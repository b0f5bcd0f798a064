package destset

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"destset/internal/sweep"
)

// Default measurement scale applied to WorkloadSpecs that do not set
// their own, matching the paper's reduced-scale methodology (§4).
const (
	DefaultWarmMisses    = 50_000
	DefaultMeasureMisses = 50_000
)

// Observation is one measurement interval of one sweep cell, streamed
// to observers while the sweep runs. Totals covers the interval alone;
// Cumulative covers the cell's measurement so far.
type Observation = sweep.Observation

// Observer receives per-interval observations. The Runner serializes
// calls, in plan order, so observers need not be concurrency-safe and
// see the same stream at every parallelism.
type Observer func(Observation)

// RunResult is one completed sweep cell: an engine evaluated on a
// workload at one seed, aggregated into a tradeoff point.
type RunResult struct {
	// Engine is the engine spec's display label.
	Engine string
	// Workload names the workload (preset name or spec label).
	Workload string
	// Seed is the workload generation seed of this cell.
	Seed uint64
	// Totals is the raw per-miss accounting aggregate.
	Totals Totals
	// Tradeoff is the cell's point on the latency/bandwidth plane;
	// Tradeoff.Config carries the built engine's Name().
	Tradeoff TradeoffResult
}

type runnerConfig struct {
	seeds       []uint64
	warm        int
	measure     int
	interval    int
	parallelism int
	// shard/shards restrict a run to one shard of the plan's cell index
	// space; shards <= 1 runs everything.
	shard, shards int
	// cells, when non-nil, restricts the run to an explicit list of plan
	// indices instead (see WithCells).
	cells    []int
	observer Observer
	// timingObserver streams per-cell timing observations; it is only
	// consulted by the TimingRunner (see WithTimingObserver).
	timingObserver TimingObserver
	// resultStore, when non-nil, serves completed cells and absorbs
	// freshly-computed ones (see WithResultStore); nil falls back to the
	// shared store once SetResultDir has armed it.
	resultStore *ResultStore
	ctx         context.Context
}

// RunnerOption tunes a Runner.
type RunnerOption func(*runnerConfig)

// WithSeeds sets the workload seeds swept per (engine, workload) pair;
// the default is the single seed 1.
func WithSeeds(seeds ...uint64) RunnerOption {
	return func(c *runnerConfig) { c.seeds = append([]uint64(nil), seeds...) }
}

// WithWarmup sets the default warmup misses for workloads that do not
// set their own (default DefaultWarmMisses).
func WithWarmup(n int) RunnerOption {
	return func(c *runnerConfig) { c.warm = n }
}

// WithMeasure sets the default measured misses for workloads that do
// not set their own (default DefaultMeasureMisses).
func WithMeasure(n int) RunnerOption {
	return func(c *runnerConfig) { c.measure = n }
}

// WithInterval sets the observation granularity in misses. 0 (the
// default) emits a single observation per cell when an observer is set.
func WithInterval(misses int) RunnerOption {
	return func(c *runnerConfig) { c.interval = misses }
}

// WithParallelism caps how many sweep cells run concurrently; values
// below 1 restore the default (GOMAXPROCS). Results are identical at
// every parallelism.
func WithParallelism(n int) RunnerOption {
	return func(c *runnerConfig) { c.parallelism = n }
}

// WithObserver streams per-interval observations to fn while the sweep
// runs.
func WithObserver(fn Observer) RunnerOption {
	return func(c *runnerConfig) { c.observer = fn }
}

// WithShard restricts the run to shard shard of shards of the sweep's
// cell index space (round-robin over the plan's deterministic cell
// order), so independent processes can split one sweep: give each
// process the same specs and options plus its own WithShard(i, n), and
// reassemble the full-run result with Merge (in-process) or
// MergeObservations / cmd/sweepmerge (JSONL files). shards <= 1
// restores the default full run. Out-of-range shards fail at Run.
func WithShard(shard, shards int) RunnerOption {
	return func(c *runnerConfig) { c.shard, c.shards = shard, shards }
}

// WithCells restricts the run to an explicit, strictly increasing list
// of plan cell indices (see Plan for the index space) — the
// finer-grained sibling of WithShard that distributed workers use to
// execute a leased cell range: any subset of the plan, not just a
// round-robin residue class. Results keep the global plan order.
// WithCells is mutually exclusive with WithShard; out-of-range,
// duplicate or unsorted indices fail at Run. A nil indices slice
// restores the default full run.
func WithCells(indices []int) RunnerOption {
	return func(c *runnerConfig) {
		if indices == nil {
			c.cells = nil
			return
		}
		c.cells = append([]int(nil), indices...)
	}
}

// WithContext sets the context used when Run is called with a nil
// context.
func WithContext(ctx context.Context) RunnerOption {
	return func(c *runnerConfig) { c.ctx = ctx }
}

// Runner fans a []EngineSpec × []WorkloadSpec × seeds cross-product
// over a worker pool. Every cell builds a fresh engine, and Name- and
// Params-based workloads resolve through the process-wide dataset
// store: each (workload, seed, scale) trace is generated once — across
// cells, Runners and experiment harnesses alike — and every cell
// replays it through its own zero-copy cursor. Cells therefore share
// no mutable state and results are deterministic regardless of
// goroutine scheduling: Run returns the same results in the same order
// at parallelism 1 and parallelism N, byte-identical to regenerating
// the stream per cell.
type Runner struct {
	engines   []EngineSpec
	workloads []WorkloadSpec
	cfg       runnerConfig
}

// newRunnerConfig applies opts over the runners' shared defaults — the
// one place those defaults live, so a Runner, a TimingRunner and a
// SweepDef built from the same options agree on the effective seeds and
// scale (and therefore on the plan fingerprint).
func newRunnerConfig(opts []RunnerOption) runnerConfig {
	cfg := runnerConfig{
		seeds:   []uint64{1},
		warm:    DefaultWarmMisses,
		measure: DefaultMeasureMisses,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if len(cfg.seeds) == 0 {
		cfg.seeds = []uint64{1}
	}
	return cfg
}

// NewRunner builds a sweep over the cross-product of engine and
// workload specs.
func NewRunner(engines []EngineSpec, workloads []WorkloadSpec, opts ...RunnerOption) *Runner {
	return &Runner{
		engines:   append([]EngineSpec(nil), engines...),
		workloads: append([]WorkloadSpec(nil), workloads...),
		cfg:       newRunnerConfig(opts),
	}
}

// Run executes the sweep and returns one RunResult per cell, ordered
// workload-major: for each workload, for each engine, for each seed.
// Under WithShard only that shard's cells run; the results keep the
// global order, so Merge reassembles shard outputs into the exact
// full-run slice. A nil ctx falls back to WithContext, then
// context.Background(). On cancellation Run returns promptly with the
// completed cells (still in order) and the context's error.
func (r *Runner) Run(ctx context.Context) ([]RunResult, error) {
	return run[RunResult, Observation](ctx, r.kind(), r.workloads, r.cfg, r.cfg.observer)
}

// Plan returns the runner's sweep plan: its cells in execution order
// with stable fingerprints. The plan does not depend on WithShard — all
// shards of a sweep share one plan.
func (r *Runner) Plan() (*SweepPlan, error) { return planOf(r.kind(), r.workloads, r.cfg) }

// Merge reassembles per-shard Run outputs into the exact full-run result
// slice: shards[s] must be the output of an identically-configured
// Runner run with WithShard(s, len(shards)). Every merged cell is
// checked against the plan's coordinates, so mixing shards of different
// sweeps — or supplying them out of order — fails instead of silently
// mislabeling results.
func (r *Runner) Merge(shards [][]RunResult) ([]RunResult, error) {
	return mergeResults[RunResult, Observation](r.kind(), r.workloads, r.cfg, shards)
}

func (r *Runner) kind() traceKind { return traceKind{engines: r.engines, interval: r.cfg.interval} }

// traceKind is the trace-driven cell kind: an engine spec trained and
// measured on a workload's miss stream.
type traceKind struct {
	engines  []EngineSpec
	interval int
}

func (k traceKind) kind() string { return PlanKindTrace }

// tag folds the observation interval into trace fingerprints: it does
// not change cell results, but it changes the observation stream shard
// files carry, and two streams of different granularity must not merge
// as one sweep.
func (k traceKind) tag() string {
	return PlanKindTrace + "|interval=" + strconv.Itoa(k.interval)
}

func (k traceKind) specs() int               { return len(k.engines) }
func (k traceKind) label(s int) string       { return k.engines[s].DisplayLabel() }
func (k traceKind) fingerprint(s int) string { return fingerprintEngineSpec(k.engines[s]) }
func (k traceKind) validate(s int) error     { return k.engines[s].validate() }
func (k traceKind) custom(s int) bool        { return k.engines[s].NewPredictor != nil }
func (k traceKind) coords(res RunResult) (string, string, uint64) {
	return res.Engine, res.Workload, res.Seed
}

func (k traceKind) runJSONL(ctx context.Context, workloads []WorkloadSpec, cfg runnerConfig, sink *JSONLObserver) error {
	_, err := run[RunResult, Observation](ctx, k, workloads, cfg, sink.Observe)
	return err
}

func (k traceKind) eval(ctx context.Context, s int, w cellWorkload, seed uint64, emit func(Observation)) (RunResult, error) {
	res, err := sweep.RunCell(ctx, sweep.Cell{
		Engine: k.engines[s].sweepEngine(),
		Workload: sweep.Workload{
			Name: w.name, Nodes: w.nodes, Open: w.stream, Warm: w.warm, Measure: w.measure,
		},
		Seed: seed,
	}, k.interval, emit)
	if err != nil {
		return RunResult{}, err
	}
	return runResult(res.Engine, res.EngineName, res.Workload, res.Seed, res.Totals), nil
}

// traceCellRecord is a trace cell's stored payload (JSON). Records
// written by a runner are Final: they carry the built engine's Name()
// and can reconstruct a full RunResult. Records spilled from uploaded
// observation streams (the distributed coordinator's spill path) lack
// the engine name — observation records never carry it — and serve
// observation replay only; a runner treats them as misses and upgrades
// them to Final when it computes the cell.
type traceCellRecord struct {
	Final        bool          `json:"final,omitempty"`
	EngineName   string        `json:"engine_name,omitempty"`
	Totals       Totals        `json:"totals"`
	Observations []Observation `json:"observations,omitempty"`
}

func (k traceKind) encode(res RunResult, obs []Observation) ([]byte, error) {
	return json.Marshal(traceCellRecord{
		Final:        true,
		EngineName:   res.Tradeoff.Config,
		Totals:       res.Totals,
		Observations: obs,
	})
}

func (k traceKind) decode(payload []byte, c PlanCell) (RunResult, []Observation, bool) {
	var rec traceCellRecord
	if json.Unmarshal(payload, &rec) != nil || !rec.Final {
		return RunResult{}, nil, false
	}
	return runResult(c.Engine, rec.EngineName, c.Workload, c.Seed, rec.Totals), rec.Observations, true
}

// runResult assembles a cell's RunResult and its tradeoff point.
func runResult(label, engineName, workload string, seed uint64, t Totals) RunResult {
	return RunResult{
		Engine:   label,
		Workload: workload,
		Seed:     seed,
		Totals:   t,
		Tradeoff: TradeoffResult{
			Config:             engineName,
			RequestMsgsPerMiss: t.RequestMsgsPerMiss(),
			IndirectionPercent: t.IndirectionPercent(),
			BytesPerMiss:       t.BytesPerMiss(),
		},
	}
}

// Evaluate runs a single (engine, workload) cell — the one-call version
// of the Runner for a single tradeoff point. Unlike EvaluatePolicy it
// reaches every built-in protocol engine, including the Acacio-style
// predictive-directory hybrid:
//
//	Evaluate(ctx,
//	    EngineSpec{Protocol: ProtocolPredictiveDirectory, PolicyName: "owner"},
//	    WorkloadSpec{Name: "oltp"})
func Evaluate(ctx context.Context, engine EngineSpec, workload WorkloadSpec, opts ...RunnerOption) (TradeoffResult, error) {
	res, err := NewRunner([]EngineSpec{engine}, []WorkloadSpec{workload}, opts...).Run(ctx)
	if err != nil {
		return TradeoffResult{}, err
	}
	if len(res) != 1 {
		return TradeoffResult{}, fmt.Errorf("destset: expected one result, got %d", len(res))
	}
	return res[0].Tradeoff, nil
}
