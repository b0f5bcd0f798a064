package experiments

import (
	"context"
	"fmt"
	"strings"

	"destset"
	"destset/internal/predictor"
)

// TimingPoint is one point on the Figure 7/8 plane: runtime normalized to
// the directory protocol (y) versus traffic per miss normalized to
// broadcast snooping (x).
type TimingPoint struct {
	Config       string
	NormRuntime  float64 // directory = 100
	NormTraffic  float64 // snooping = 100
	RuntimeNs    float64
	BytesPerMiss float64
	AvgLatencyNs float64
}

// WorkloadTiming is one workload's Figure 7/8 panel.
type WorkloadTiming struct {
	Workload string
	Points   []TimingPoint
}

// TimingSpecs returns the six protocol configurations of Figures 7/8 as
// sim specs for the public TimingRunner: the snooping and directory
// extremes plus multicast snooping under the paper's four predictor
// policies at the standout configuration.
func TimingSpecs(cpu destset.CPUModel) []destset.SimSpec {
	specs := []destset.SimSpec{
		{Protocol: destset.ProtocolSnooping, CPU: cpu},
		{Protocol: destset.ProtocolDirectory, CPU: cpu},
	}
	for _, pol := range []destset.Policy{
		destset.Owner,
		destset.BroadcastIfShared,
		destset.Group,
		destset.OwnerGroup,
	} {
		specs = append(specs, destset.SimSpec{
			Protocol: destset.ProtocolMulticast,
			Policy:   pol, UsePolicy: true,
			CPU: cpu,
		})
	}
	return specs
}

// matchesProtocol reports whether a spec's display label (e.g.
// "multicast+group") matches one of the filters. A filter matches the
// whole label, its protocol part, or its policy part, after the policy
// predictor package's name normalization — so "snooping", "Multicast+Group" and
// "owner_group" all select what they read as.
func matchesProtocol(spec destset.SimSpec, filters []string) bool {
	label := spec.DisplayLabel()
	proto, policy := label, ""
	if i := strings.IndexByte(label, '+'); i >= 0 {
		proto, policy = label[:i], label[i+1:]
	}
	for _, f := range filters {
		cf := predictor.CanonicalName(f)
		if cf == "" {
			continue // an empty filter (e.g. a trailing comma) matches nothing
		}
		switch cf {
		case predictor.CanonicalName(label), predictor.CanonicalName(proto), predictor.CanonicalName(policy):
			return true
		}
	}
	return false
}

// timingSpecs resolves the option set's timing configurations: the six
// Figure 7/8 specs, restricted by Options.Protocols when set.
func (o Options) timingSpecs(cpu destset.CPUModel) ([]destset.SimSpec, error) {
	specs := TimingSpecs(cpu)
	if len(o.Protocols) == 0 {
		return specs, nil
	}
	out := specs[:0]
	for _, s := range specs {
		if matchesProtocol(s, o.Protocols) {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: no timing configuration matches protocols %v", o.Protocols)
	}
	return out, nil
}

// timingRunnerOptions assembles the shared TimingRunner options.
func (o Options) timingRunnerOptions(seeds ...uint64) []destset.RunnerOption {
	if len(seeds) == 0 {
		seeds = []uint64{o.Seed}
	}
	opts := []destset.RunnerOption{
		destset.WithSeeds(seeds...),
		destset.WithParallelism(o.Parallelism),
	}
	if o.TimingObserver != nil {
		opts = append(opts, destset.WithTimingObserver(o.TimingObserver))
	}
	return opts
}

// timingWorkloadSpec scales a named workload for the execution-driven
// runs.
func (o Options) timingWorkloadSpec(name string) destset.WorkloadSpec {
	return destset.WorkloadSpec{
		Name:    name,
		Warm:    explicitScale(o.TimedWarmMisses),
		Measure: explicitScale(o.TimedMisses),
	}
}

// timingNames resolves a figure's workload list for a CPU model: the
// option set's selection, defaulting to all six workloads for the
// simple model (Figure 7) and the paper's reduced detailed-model set
// (Figure 8).
func (o Options) timingNames(cpu destset.CPUModel) ([]string, error) {
	if len(o.Workloads) > 0 {
		return o.Workloads, nil
	}
	if cpu == destset.DetailedCPU {
		return Figure8Workloads, nil
	}
	params, err := o.workloads()
	if err != nil {
		return nil, err
	}
	names := make([]string, len(params))
	for i, p := range params {
		names[i] = p.Name
	}
	return names, nil
}

// timingRunner builds the single TimingRunner behind a figure — every
// selected protocol configuration × every selected workload in one
// addressable sweep, so the whole figure is one plan that can be
// executed entire or shard by shard.
func (o Options) timingRunner(cpu destset.CPUModel, shard, shards int) (*destset.TimingRunner, []destset.SimSpec, []string, error) {
	specs, err := o.timingSpecs(cpu)
	if err != nil {
		return nil, nil, nil, err
	}
	names, err := o.timingNames(cpu)
	if err != nil {
		return nil, nil, nil, err
	}
	workloads := make([]destset.WorkloadSpec, len(names))
	for i, n := range names {
		workloads[i] = o.timingWorkloadSpec(n)
	}
	// Extras append to both lists in step, so runTimingAll's
	// cells-per-workload arithmetic and per-panel normalization hold.
	// (names may alias o.Workloads — copy before growing it.)
	if len(o.ExtraWorkloads) > 0 {
		names = append([]string(nil), names...)
		for _, w := range o.ExtraWorkloads {
			workloads = append(workloads, w)
			names = append(names, extraLabel(w))
		}
	}
	opts := o.timingRunnerOptions()
	if shards > 1 {
		opts = append(opts, destset.WithShard(shard, shards))
	}
	return destset.NewTimingRunner(specs, workloads, opts...), specs, names, nil
}

// TimingSweepPlan returns the plan of a figure's timing sweep — the
// simple model's Figure 7 cells or the detailed model's Figure 8 cells
// under opt — without running anything. Shard processes and merge tools
// use its fingerprint and cell list (via destset.SweepPlan.Manifest) to
// agree on the cell index space.
func TimingSweepPlan(opt Options, cpu destset.CPUModel) (*destset.SweepPlan, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	runner, _, _, err := opt.timingRunner(cpu, 0, 0)
	if err != nil {
		return nil, err
	}
	return runner.Plan()
}

// TimingSweep executes shard shard of shards of a figure's timing sweep
// (shards <= 1 runs everything), streaming each completed cell to
// opt.TimingObserver and returning the raw results in global plan
// order. It is the sharded-execution entry point behind
// cmd/timing -json -shard; unlike Figure7/Figure8 it performs no panel
// assembly, since a shard does not hold the normalization anchors of
// every workload.
func TimingSweep(ctx context.Context, opt Options, cpu destset.CPUModel, shard, shards int) ([]destset.TimingResult, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	runner, _, _, err := opt.timingRunner(cpu, shard, shards)
	if err != nil {
		return nil, err
	}
	return runner.Run(ctx)
}

// runTimingAll executes every configuration over every workload through
// one TimingRunner and normalizes each workload's panel as the paper
// does (runtime to directory, traffic to snooping). One runner means
// one worker pool for the whole figure — per-protocol and per-workload
// cells interleave freely, every cell replays its shared dataset
// zero-copy — and one plan, so the figure is shardable. Honors ctx.
func runTimingAll(ctx context.Context, opt Options, cpu destset.CPUModel) ([]WorkloadTiming, error) {
	runner, specs, names, err := opt.timingRunner(cpu, 0, 0)
	if err != nil {
		return nil, err
	}
	res, err := runner.Run(ctx)
	if err != nil {
		return nil, err
	}
	if len(res) != len(specs)*len(names) {
		return nil, fmt.Errorf("experiments: timing sweep returned %d cells, want %d", len(res), len(specs)*len(names))
	}
	out := make([]WorkloadTiming, len(names))
	for wi, name := range names {
		cells := res[wi*len(specs) : (wi+1)*len(specs)]
		wt := WorkloadTiming{Workload: name, Points: make([]TimingPoint, len(cells))}
		var dirRuntime, snoopTraffic float64
		for i, r := range cells {
			wt.Points[i] = TimingPoint{
				Config:       r.Config,
				RuntimeNs:    r.Result.RuntimeNs,
				BytesPerMiss: r.Result.BytesPerMiss(),
				AvgLatencyNs: r.Result.AvgMissLatencyNs,
			}
			switch specs[i].Protocol {
			case destset.ProtocolDirectory:
				dirRuntime = r.Result.RuntimeNs
			case destset.ProtocolSnooping:
				snoopTraffic = r.Result.BytesPerMiss()
			}
		}
		for i := range wt.Points {
			if dirRuntime > 0 {
				wt.Points[i].NormRuntime = 100 * wt.Points[i].RuntimeNs / dirRuntime
			}
			if snoopTraffic > 0 {
				wt.Points[i].NormTraffic = 100 * wt.Points[i].BytesPerMiss / snoopTraffic
			}
		}
		out[wi] = wt
	}
	return out, nil
}

// Figure7 reproduces the simple-processor-model runtime results for all
// workloads (§5.3). It honors ctx: on cancellation the partial sweep is
// abandoned promptly and the context's error returned.
func Figure7(ctx context.Context, opt Options) ([]WorkloadTiming, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return runTimingAll(ctx, opt, destset.SimpleCPU)
}

// Figure8Workloads are the three workloads the paper ran under the
// detailed processor model (simulation cost forced the reduction, §5.3).
var Figure8Workloads = []string{"apache", "oltp", "specjbb"}

// Figure8 reproduces the detailed-processor-model results (§5.3).
func Figure8(ctx context.Context, opt Options) ([]WorkloadTiming, error) {
	if err := opt.validate(); err != nil {
		return nil, err
	}
	return runTimingAll(ctx, opt, destset.DetailedCPU)
}
