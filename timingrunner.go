package destset

import (
	"context"
	"encoding/json"
	"fmt"

	"destset/internal/sim"
)

// TimingResult is one completed timing cell: a SimSpec simulated over a
// workload at one seed.
type TimingResult struct {
	// Sim is the sim spec's display label.
	Sim string
	// Config is the resolved configuration's Name() — the label the
	// paper-figure harnesses print (e.g. "Multicast+Group[1024B,8192e]").
	Config string
	// Workload names the workload (preset name or spec label).
	Workload string
	// Seed is the workload generation seed of this cell.
	Seed uint64
	// CPU names the processor model ("simple" or "detailed").
	CPU string
	// Result is the full timing outcome: runtime, traffic, latency
	// percentiles, retries.
	Result SimResult
}

// TimingObservation is one timing cell's result, streamed to observers
// the moment the cell completes — the timing analogue of Observation.
// Unlike the trace-driven sweep there are no intra-cell intervals: the
// execution-driven model's metrics (runtime, queuing) only exist once
// the cell's event queue drains, so each cell emits exactly one
// observation.
type TimingObservation = TimingResult

// TimingObserver receives per-cell timing observations. The TimingRunner
// serializes calls, in plan order, so observers need not be
// concurrency-safe and see the same stream at every parallelism.
type TimingObserver func(TimingObservation)

// WithTimingObserver streams each completed timing cell to fn while the
// sweep runs. It has no effect on the trace-driven Runner.
func WithTimingObserver(fn TimingObserver) RunnerOption {
	return func(c *runnerConfig) { c.timingObserver = fn }
}

// TimingRunner fans a []SimSpec × []WorkloadSpec × seeds cross-product
// of execution-driven timing simulations over a worker pool — the timing
// analogue of Runner. Every cell resolves a fresh sim.Config from its
// spec; Name- and Params-based workloads resolve through the shared
// dataset store and are replayed zero-copy by any number of concurrent
// cells. Cells share no mutable state, so Run returns the same results
// in the same order at parallelism 1 and parallelism N.
type TimingRunner struct {
	sims      []SimSpec
	workloads []WorkloadSpec
	cfg       runnerConfig
}

// NewTimingRunner builds a timing sweep over the cross-product of sim
// and workload specs. It accepts the Runner's functional options; the
// trace-driven-only ones (WithInterval, WithObserver) are ignored — use
// WithTimingObserver to stream per-cell timing observations.
func NewTimingRunner(sims []SimSpec, workloads []WorkloadSpec, opts ...RunnerOption) *TimingRunner {
	return &TimingRunner{
		sims:      append([]SimSpec(nil), sims...),
		workloads: append([]WorkloadSpec(nil), workloads...),
		cfg:       newRunnerConfig(opts),
	}
}

// Run executes the sweep and returns one TimingResult per cell, ordered
// workload-major: for each workload, for each sim spec, for each seed.
// Under WithShard only that shard's cells run; the results keep the
// global order, so Merge reassembles shard outputs into the exact
// full-run slice. A nil ctx falls back to WithContext, then
// context.Background(). On cancellation Run returns promptly with the
// completed cells (still in order) and the context's error; the
// execution-driven cells themselves check the context, so even a single
// huge simulation aborts promptly.
func (r *TimingRunner) Run(ctx context.Context) ([]TimingResult, error) {
	return run[TimingResult, TimingObservation](ctx, r.kind(), r.workloads, r.cfg, r.cfg.timingObserver)
}

// Plan returns the timing runner's sweep plan: its cells in execution
// order with stable fingerprints. The plan does not depend on WithShard
// — all shards of a sweep share one plan.
func (r *TimingRunner) Plan() (*SweepPlan, error) { return planOf(r.kind(), r.workloads, r.cfg) }

// Merge reassembles per-shard Run outputs into the exact full-run result
// slice: shards[s] must be the output of an identically-configured
// TimingRunner run with WithShard(s, len(shards)). Every merged cell is
// checked against the plan's coordinates.
func (r *TimingRunner) Merge(shards [][]TimingResult) ([]TimingResult, error) {
	return mergeResults[TimingResult, TimingObservation](r.kind(), r.workloads, r.cfg, shards)
}

func (r *TimingRunner) kind() timingKind { return timingKind{sims: r.sims} }

// timingKind is the execution-driven cell kind: a sim spec simulated
// over a workload. Each cell emits exactly one observation, its result,
// and its stored record is exactly that observation's JSONL line, so one
// format serves the runner, the coordinator and the observations
// endpoint alike.
type timingKind struct{ sims []SimSpec }

func (k timingKind) kind() string { return PlanKindTiming }

// tag ignores the observation interval, which is meaningless to timing
// cells (one observation each).
func (k timingKind) tag() string              { return PlanKindTiming }
func (k timingKind) specs() int               { return len(k.sims) }
func (k timingKind) label(s int) string       { return k.sims[s].DisplayLabel() }
func (k timingKind) fingerprint(s int) string { return fingerprintSimSpec(k.sims[s]) }
func (k timingKind) validate(s int) error     { return k.sims[s].validate() }
func (k timingKind) custom(s int) bool        { return k.sims[s].NewPredictor != nil }
func (k timingKind) coords(res TimingResult) (string, string, uint64) {
	return res.Sim, res.Workload, res.Seed
}

func (k timingKind) runJSONL(ctx context.Context, workloads []WorkloadSpec, cfg runnerConfig, sink *JSONLObserver) error {
	_, err := run[TimingResult, TimingObservation](ctx, k, workloads, cfg, sink.ObserveTiming)
	return err
}

func (k timingKind) eval(ctx context.Context, s int, w cellWorkload, seed uint64, emit func(TimingObservation)) (TimingResult, error) {
	if w.measure == 0 {
		return TimingResult{}, fmt.Errorf("destset: timing workload %q needs measured misses", w.name)
	}
	spec := k.sims[s]
	cfg, err := spec.Resolve(w.nodes)
	if err != nil {
		return TimingResult{}, err
	}
	warm, timed, err := w.simSources(seed)
	if err != nil {
		return TimingResult{}, fmt.Errorf("destset: workload %q: %w", w.name, err)
	}
	res, err := sim.Simulate(ctx, cfg, warm, timed)
	if err != nil {
		return TimingResult{}, err
	}
	tr := TimingResult{
		Sim:      spec.DisplayLabel(),
		Config:   cfg.Name(),
		Workload: w.name,
		Seed:     seed,
		CPU:      cfg.CPU.String(),
		Result:   res,
	}
	if emit != nil {
		emit(tr)
	}
	return tr, nil
}

func (k timingKind) encode(res TimingResult, _ []TimingObservation) ([]byte, error) {
	return json.Marshal(res)
}

func (k timingKind) decode(payload []byte, _ PlanCell) (TimingResult, []TimingObservation, bool) {
	var tr TimingResult
	if json.Unmarshal(payload, &tr) != nil {
		return TimingResult{}, nil, false
	}
	return tr, []TimingObservation{tr}, true
}

// EvaluateTiming runs a single (sim, workload) timing cell — the
// one-call version of the TimingRunner:
//
//	EvaluateTiming(ctx,
//	    SimSpec{Protocol: ProtocolMulticast, Policy: Group, UsePolicy: true},
//	    WorkloadSpec{Name: "oltp"})
func EvaluateTiming(ctx context.Context, spec SimSpec, workload WorkloadSpec, opts ...RunnerOption) (SimResult, error) {
	res, err := NewTimingRunner([]SimSpec{spec}, []WorkloadSpec{workload}, opts...).Run(ctx)
	if err != nil {
		return SimResult{}, err
	}
	if len(res) != 1 {
		return SimResult{}, fmt.Errorf("destset: expected one result, got %d", len(res))
	}
	return res[0].Result, nil
}
