// Package experiments contains one harness per table and figure of the
// paper's evaluation. Each harness regenerates the same rows or series
// the paper reports:
//
//	Table 2    — workload properties (§2.2)
//	Figure 2   — instantaneous sharing histogram (§2.4)
//	Figure 3   — degree of sharing (§2.5)
//	Figure 4   — temporal/spatial locality of sharing misses (§2.6)
//	Figure 5   — predictor policy tradeoff, all workloads (§4.3)
//	Figure 6   — OLTP sensitivity: PC indexing, macroblocks, size (§4.4)
//	Figure 7   — runtime vs traffic, simple processor model (§5.3)
//	Figure 8   — runtime vs traffic, detailed processor model (§5.3)
//
// The CLI tools in cmd/ and the repository benchmarks are thin wrappers
// over these functions.
package experiments

import (
	"context"
	"fmt"

	"destset"
	"destset/internal/dataset"
	"destset/internal/nodeset"
	"destset/internal/predictor"
	"destset/internal/sweep"
	"destset/internal/trace"
	"destset/internal/workload"
)

// Options control experiment scale. The paper warms 1M misses and
// measures millions; the defaults here are scaled down to run the full
// suite in minutes while preserving every qualitative shape. Raise them
// via the CLI flags for closer quantitative agreement.
type Options struct {
	// Seed drives all workload generation.
	Seed uint64
	// WarmMisses are generated before measurement to warm caches and
	// predictors (§2.1).
	WarmMisses int
	// Misses are measured for the trace-driven experiments (§2, §4).
	Misses int
	// TimedWarmMisses and TimedMisses size the slower execution-driven
	// runs (§5).
	TimedWarmMisses int
	// TimedMisses is the number of misses in the timed region.
	TimedMisses int
	// Workloads restricts the benchmark set (default: the paper's six).
	Workloads []string
	// ExtraWorkloads appends value-described workload specs — imported
	// trace datasets or composed parameter sets — to the Figure 5/7/8
	// sweeps (TradeoffSweepDef/TimingSweepDef, and so Figure5, Figure7
	// and Figure8, which each get one panel per extra). Each spec is
	// used verbatim: its Warm/Measure must match the dataset it names.
	// Table 2, Figures 2-4 and 6 and the extensions ignore them.
	ExtraWorkloads []destset.WorkloadSpec
	// Protocols restricts the execution-driven protocol configurations
	// (§5), matched against SimSpec display labels: "snooping",
	// "directory", "multicast+group", or policy shorthands like "owner".
	// Empty keeps all six Figure 7/8 configurations.
	Protocols []string
	// Parallelism caps concurrently-evaluated sweep cells and dataset
	// generations; <=0 uses GOMAXPROCS. Results are identical at every
	// parallelism.
	Parallelism int
	// TimingObserver, when set, streams every execution-driven cell
	// (protocol × workload × seed) to the observer as it completes —
	// wire destset.NewJSONLObserver(w).ObserveTiming here to spill
	// timing sweeps as JSON Lines.
	TimingObserver destset.TimingObserver
	// Observer, when set, streams every trace-driven sweep cell to the
	// observer — the trace analogue of TimingObserver, wired to
	// destset.NewJSONLObserver(w).Observe by cmd/traceeval -json.
	Observer destset.Observer
}

// DefaultOptions returns the scale used for the committed EXPERIMENTS.md
// results.
func DefaultOptions() Options {
	return Options{
		Seed:            1,
		WarmMisses:      300_000,
		Misses:          300_000,
		TimedWarmMisses: 100_000,
		TimedMisses:     100_000,
	}
}

// QuickOptions returns a reduced scale for tests and benchmarks.
func QuickOptions() Options {
	return Options{
		Seed:            1,
		WarmMisses:      40_000,
		Misses:          40_000,
		TimedWarmMisses: 15_000,
		TimedMisses:     15_000,
	}
}

// names is the selected workload list (default: the paper's six).
func (o Options) names() []string {
	if len(o.Workloads) > 0 {
		return o.Workloads
	}
	return workload.PaperNames()
}

func (o Options) workloads() ([]workload.Params, error) {
	names := o.names()
	out := make([]workload.Params, 0, len(names))
	for _, n := range names {
		p, err := workload.Preset(n, o.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Dataset is one workload's generated, annotated trace, backed by the
// process-wide columnar dataset store: generated once per (workload,
// seed, scale), read by the characterization harnesses and replayed by
// every sweep cell that names the same workload.
type Dataset struct {
	Params workload.Params
	// Data is the shared columnar recording: warm region, measured
	// region, per-miss coherence annotations and whole-run block
	// statistics.
	Data *dataset.Dataset
}

// NewDataset resolves a workload's dataset at the given scale through
// the shared store, generating it only if no earlier experiment or sweep
// already has.
func NewDataset(p workload.Params, warm, measure int) (*Dataset, error) {
	ds, err := dataset.GetShared(p, warm, measure)
	if err != nil {
		return nil, err
	}
	return &Dataset{Params: p, Data: ds}, nil
}

// datasets resolves every selected workload's dataset, fanning any
// still-missing generations over a worker pool (each dataset is an
// independent seeded generator, so the output is identical at any
// parallelism).
func (o Options) datasets() ([]*Dataset, error) {
	params, err := o.workloads()
	if err != nil {
		return nil, err
	}
	out := make([]*Dataset, len(params))
	err = sweep.ForEach(context.Background(), len(params), o.Parallelism, func(i int) error {
		d, err := NewDataset(params[i], o.WarmMisses, o.Misses)
		out[i] = d
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// explicitScale marks a zero miss count as "explicitly none" for
// WorkloadSpec, whose 0 means "inherit the runner default".
func explicitScale(n int) int {
	if n == 0 {
		return -1
	}
	return n
}

// baselineSpecs returns the two protocol extremes every figure anchors
// on: broadcast snooping and the directory protocol.
func baselineSpecs() []destset.EngineSpec {
	return []destset.EngineSpec{
		{Protocol: destset.ProtocolSnooping},
		{Protocol: destset.ProtocolDirectory},
	}
}

// standoutSpecs returns the paper's four policies at the standout
// configuration (8192 entries, 1024-byte macroblocks, §4.3) as engine
// specs for the public Runner.
func standoutSpecs() []destset.EngineSpec {
	policies := []predictor.Policy{
		predictor.Owner,
		predictor.BroadcastIfShared,
		predictor.Group,
		predictor.OwnerGroup,
	}
	specs := make([]destset.EngineSpec, len(policies))
	for i, pol := range policies {
		specs[i] = destset.EngineSpec{Policy: pol, UsePolicy: true}
	}
	return specs
}

// namedWorkloads describes each named workload at an explicit scale —
// the value-described specs every sweep here runs, which resolve
// through the shared dataset store and the result store alike.
func namedWorkloads(names []string, warm, measure int) []destset.WorkloadSpec {
	out := make([]destset.WorkloadSpec, len(names))
	for i, n := range names {
		out[i] = destset.WorkloadSpec{Name: n, Warm: explicitScale(warm), Measure: explicitScale(measure)}
	}
	return out
}

// traceWorkloads names workloads at the trace-driven scale.
func (o Options) traceWorkloads(names ...string) []destset.WorkloadSpec {
	return namedWorkloads(names, o.WarmMisses, o.Misses)
}

// runnerOptions are the process-local runner options every harness
// shares: the parallelism cap and the option set's observers.
func (o Options) runnerOptions() []destset.RunnerOption {
	opts := []destset.RunnerOption{destset.WithParallelism(o.Parallelism)}
	if o.Observer != nil {
		opts = append(opts, destset.WithObserver(o.Observer))
	}
	if o.TimingObserver != nil {
		opts = append(opts, destset.WithTimingObserver(o.TimingObserver))
	}
	return opts
}

// runTradeoff sweeps the engine specs over the named workloads and
// folds the cells into one panel per workload, in spec order.
func (o Options) runTradeoff(specs []destset.EngineSpec, workloads []destset.WorkloadSpec) ([]WorkloadTradeoff, error) {
	return o.tradeoffPanels(destset.NewTraceSweepDef(specs, workloads, destset.WithSeeds(o.Seed)))
}

// tradeoffPanels runs a single-seed trace sweep def and folds its
// workload-major cells into one panel per workload.
func (o Options) tradeoffPanels(def destset.SweepDef) ([]WorkloadTradeoff, error) {
	runner, err := def.Runner(o.runnerOptions()...)
	if err != nil {
		return nil, err
	}
	res, err := runner.Run(context.Background())
	if err != nil {
		return nil, err
	}
	n := len(def.Engines)
	if len(res) != n*len(def.Workloads) {
		return nil, fmt.Errorf("experiments: sweep returned %d cells, want %d", len(res), n*len(def.Workloads))
	}
	out := make([]WorkloadTradeoff, len(def.Workloads))
	for wi := range out {
		cells := res[wi*n : (wi+1)*n]
		pts := make([]TradeoffPoint, n)
		for i, r := range cells {
			pts[i] = TradeoffPoint{
				Config:         r.Tradeoff.Config,
				MsgsPerMiss:    r.Tradeoff.RequestMsgsPerMiss,
				IndirectionPct: r.Tradeoff.IndirectionPercent,
				BytesPerMiss:   r.Tradeoff.BytesPerMiss,
			}
		}
		out[wi] = WorkloadTradeoff{Workload: cells[0].Workload, Points: pts}
	}
	return out, nil
}

// requesterOf is a small helper shared by the harnesses.
func requesterOf(rec trace.Record) nodeset.NodeID { return nodeset.NodeID(rec.Requester) }

// validateScale rejects degenerate experiment sizes early.
func (o Options) validate() error {
	if o.Misses <= 0 || o.WarmMisses < 0 || o.TimedMisses <= 0 || o.TimedWarmMisses < 0 {
		return fmt.Errorf("experiments: non-positive scale in %+v", o)
	}
	return nil
}
