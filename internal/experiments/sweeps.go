package experiments

// One definition per figure. TradeoffSweepDef (Figure 5) and
// TimingSweepDef (Figures 7/8) are the only code that builds those
// sweeps; everything that runs one runs the def:
//
//   - Figure5/Figure7/Figure8 run it through def.Runner/def.TimingRunner
//     and fold the cells into panels;
//   - cmd/traceeval and cmd/timing -json/-shard runs write its plan's
//     manifest and stream def.RunJSONL, shard by shard if asked, which
//     cmd/sweepmerge reassembles;
//   - cmd/sweepd serves it to workers and cmd/sweepapi answers figure
//     queries with it.
//
// FigureDef is the one mapping from a figure selection (figure number
// and scale, as the CLIs and services take them) onto the def, so every
// entry point computes the same plan fingerprint for the same flags —
// and therefore shares result-store cells and merges byte-identically.

import (
	"context"
	"fmt"

	"destset"
)

// TradeoffSweepDef captures the Figure 5 trace-driven sweep under opt:
// the snooping/directory baselines plus the four standout-configuration
// policies, over every selected workload and opt.ExtraWorkloads at the
// trace-driven scale.
func TradeoffSweepDef(opt Options) (destset.SweepDef, error) {
	if err := opt.validate(); err != nil {
		return destset.SweepDef{}, err
	}
	workloads := append(opt.traceWorkloads(opt.names()...), opt.ExtraWorkloads...)
	specs := append(baselineSpecs(), standoutSpecs()...)
	def := destset.NewTraceSweepDef(specs, workloads, destset.WithSeeds(opt.Seed))
	return def, def.Validate()
}

// TimingSweepDef captures a figure's timing sweep under opt — the simple
// model's Figure 7 cells or the detailed model's Figure 8 cells: every
// selected protocol configuration over every selected workload and
// opt.ExtraWorkloads at the timed scale.
func TimingSweepDef(opt Options, cpu destset.CPUModel) (destset.SweepDef, error) {
	if err := opt.validate(); err != nil {
		return destset.SweepDef{}, err
	}
	specs, err := opt.selectProtocols(TimingSpecs(cpu), "timing")
	if err != nil {
		return destset.SweepDef{}, err
	}
	workloads := append(opt.timedWorkloads(opt.timingNames(cpu)...), opt.ExtraWorkloads...)
	def := destset.NewTimingSweepDef(specs, workloads, destset.WithSeeds(opt.Seed))
	return def, def.Validate()
}

// FigureDef maps a figure selection onto its sweep definition: fig is
// 5, 7 or 8, and warm/misses set that figure's scale in opt (the trace
// scale for Figure 5, the timed scale for Figures 7/8), 0 keeping opt's.
// A protocol filter selects Figure 7/8 configurations only, so Figure 5
// refuses one rather than silently sweeping every engine.
func FigureDef(opt Options, fig, warm, misses int) (destset.SweepDef, error) {
	if warm < 0 || misses < 0 {
		return destset.SweepDef{}, fmt.Errorf("experiments: negative scale (warm %d, misses %d)", warm, misses)
	}
	scale := func(w, m *int) {
		if warm != 0 {
			*w = warm
		}
		if misses != 0 {
			*m = misses
		}
	}
	switch fig {
	case 5:
		if len(opt.Protocols) > 0 {
			return destset.SweepDef{}, fmt.Errorf("experiments: Figure 5 sweeps every engine; protocol filters (%v) apply to Figures 7 and 8", opt.Protocols)
		}
		scale(&opt.WarmMisses, &opt.Misses)
		return TradeoffSweepDef(opt)
	case 7, 8:
		scale(&opt.TimedWarmMisses, &opt.TimedMisses)
		cpu := destset.SimpleCPU
		if fig == 8 {
			cpu = destset.DetailedCPU
		}
		return TimingSweepDef(opt, cpu)
	}
	return destset.SweepDef{}, fmt.Errorf("experiments: no sweep for figure %d (want 5, 7 or 8)", fig)
}

// StreamJSONL runs shard shard of shards of def (shards <= 1: all of
// it) as a manifest-headed, plan-ordered JSONL stream on sink, then
// flushes sink — the -json output of the figure CLIs and sweepapi,
// whose shard files cmd/sweepmerge reassembles. opts are process-local
// runner options (parallelism, a result store).
func StreamJSONL(ctx context.Context, def destset.SweepDef, sink *destset.JSONLObserver, shard, shards int, opts ...destset.RunnerOption) error {
	plan, err := def.Plan()
	if err != nil {
		return err
	}
	if err := sink.WriteManifest(plan.Manifest(shard, shards)); err != nil {
		return err
	}
	if err := def.RunJSONL(ctx, sink, append(opts, destset.WithShard(shard, shards))...); err != nil {
		return err
	}
	return sink.Flush()
}
