package destset

import (
	"context"
	"fmt"
	"strconv"

	"destset/internal/dataset"
	"destset/internal/sim"
	"destset/internal/sweep"
	"destset/internal/trace"
	"destset/internal/workload"
)

// One cell pipeline. A trace-driven sweep and a timing sweep are the same
// thing: a spec × workload × seed cross-product whose cells run
// workload-major (for each workload, for each spec, for each seed). They
// differ only in their cell kind — how a spec is labeled, fingerprinted
// and validated, how one cell computes, and how a computed cell is
// stored. Runner and TimingRunner are thin typed wrappers that hand
// their kind to run, planOf and mergeResults below; internal/sweep's
// Execute does the rest.

// sweepKind is the untyped half of a cell kind: what a plan and a
// serialized SweepDef need to know about a spec list.
type sweepKind interface {
	// kind is PlanKindTrace or PlanKindTiming.
	kind() string
	// tag is folded into every cell fingerprint.
	tag() string
	// specs is the number of engine or sim specs.
	specs() int
	label(s int) string
	fingerprint(s int) string
	validate(s int) error
	// custom reports whether spec s carries a NewPredictor factory:
	// code, not data, so the spec does not serialize and its cells
	// bypass the result store.
	custom(s int) bool
	// runJSONL runs the sweep, writing every observation to sink.
	runJSONL(ctx context.Context, workloads []WorkloadSpec, cfg runnerConfig, sink *JSONLObserver) error
}

// cellKind is a sweepKind that computes cells with results R and
// observations O.
type cellKind[R, O any] interface {
	sweepKind
	// eval computes spec s on workload w at seed, passing each
	// observation to emit (which may be nil).
	eval(ctx context.Context, s int, w cellWorkload, seed uint64, emit func(O)) (R, error)
	// coords names the cell a result belongs to.
	coords(res R) (label, workload string, seed uint64)
	// encode renders a computed cell as its result-store record; decode
	// is its inverse, declining records a runner cannot serve.
	encode(res R, obs []O) ([]byte, error)
	decode(payload []byte, c PlanCell) (res R, obs []O, ok bool)
}

// cellWorkload is a WorkloadSpec resolved against a runner's default
// scale.
type cellWorkload struct {
	WorkloadSpec
	name          string
	nodes         int
	warm, measure int
}

// resolve applies the runner's default scale and derives the system
// size. Preset names are validated here, before any cell runs.
func (w WorkloadSpec) resolve(defaultWarm, defaultMeasure int) (cellWorkload, error) {
	cw := cellWorkload{WorkloadSpec: w, name: w.label(), nodes: w.Nodes}
	// 0 inherits the runner default; negative means "explicitly none".
	cw.warm, cw.measure = scaleOf(w.Warm, w.Measure, defaultWarm, defaultMeasure)
	switch {
	case w.Open != nil:
		if cw.nodes <= 0 {
			return cellWorkload{}, fmt.Errorf("destset: workload %q uses a custom stream source and must set Nodes", cw.name)
		}
	case w.Params != nil:
		if cw.nodes == 0 {
			cw.nodes = w.Params.Nodes
		}
	case w.Name != "":
		base, err := workload.Preset(w.Name, 0)
		if err != nil {
			return cellWorkload{}, err
		}
		if cw.nodes == 0 {
			cw.nodes = base.Nodes
		}
	default:
		return cellWorkload{}, fmt.Errorf("destset: workload spec needs a Name, Params or Open source")
	}
	return cw, nil
}

// params resolves a Name- or Params-based spec into the fully-specified
// workload parameters of one seed — the identity its dataset is
// generated and content-addressed under.
func (w WorkloadSpec) params(seed uint64) (workload.Params, error) {
	switch {
	case w.Open != nil:
		return workload.Params{}, fmt.Errorf("destset: workload %q uses a custom Open stream source and has no shared dataset", w.label())
	case w.Params != nil:
		p := *w.Params
		// Imported traces are fixed data: their identity is the input's
		// content hash, so the cell seed must not perturb it (every seed
		// replays the same dataset).
		if !p.Import.Enabled() {
			p.Seed = seed
		}
		return p, nil
	case w.Name != "":
		return workload.Preset(w.Name, seed)
	default:
		return workload.Params{}, fmt.Errorf("destset: workload spec needs a Name, Params or Open source")
	}
}

// dataset returns the workload's shared dataset for seed from the
// process-wide store: generated once per (params, seed, scale), then
// replayed by every cell through zero-copy cursors.
func (w cellWorkload) dataset(seed uint64) (*dataset.Dataset, error) {
	p, err := w.params(seed)
	if err != nil {
		return nil, err
	}
	return dataset.GetShared(p, w.warm, w.measure)
}

// stream opens the workload's miss stream for one trace-driven cell.
func (w cellWorkload) stream(seed uint64) (Stream, error) {
	if w.Open != nil {
		return w.Open(seed)
	}
	d, err := w.dataset(seed)
	if err != nil {
		return nil, err
	}
	return d.Replay(), nil
}

// simSources opens the warm and timed record sources for one timing
// cell: zero-copy regions of the shared dataset, or — for custom Open
// sources, since the timing simulator needs random access for its
// reorder-buffer window — the stream drained into materialized traces.
func (w cellWorkload) simSources(seed uint64) (warm, timed sim.Source, err error) {
	if w.Open == nil {
		d, err := w.dataset(seed)
		if err != nil {
			return nil, nil, err
		}
		if w.warm > 0 {
			warm = d.WarmRegion()
		}
		return warm, d.MeasureRegion(), nil
	}
	st, err := w.Open(seed)
	if err != nil {
		return nil, nil, err
	}
	warmTr := &trace.Trace{Nodes: w.nodes, Records: make([]trace.Record, 0, w.warm)}
	timedTr := &trace.Trace{Nodes: w.nodes, Records: make([]trace.Record, 0, w.measure)}
	for i := 0; i < w.warm; i++ {
		rec, _ := st.Next()
		warmTr.Append(rec)
	}
	for i := 0; i < w.measure; i++ {
		rec, _ := st.Next()
		timedTr.Append(rec)
	}
	return sim.TraceSource(warmTr), sim.TraceSource(timedTr), nil
}

// planOf enumerates a sweep's cells workload-major with stable
// fingerprints, validating every spec.
func planOf(k sweepKind, workloads []WorkloadSpec, cfg runnerConfig) (*SweepPlan, error) {
	if k.specs() == 0 || len(workloads) == 0 {
		return nil, fmt.Errorf("destset: %s sweep needs at least one spec and one workload spec", k.kind())
	}
	specFPs := make([]string, k.specs())
	for s := range specFPs {
		if err := k.validate(s); err != nil {
			return nil, err
		}
		specFPs[s] = k.fingerprint(s)
	}
	tag := k.tag()
	cells := make([]PlanCell, 0, len(specFPs)*len(workloads)*len(cfg.seeds))
	for _, w := range workloads {
		wfp := fingerprintWorkloadSpec(w, cfg.warm, cfg.measure)
		for s, sfp := range specFPs {
			label := k.label(s)
			for _, seed := range cfg.seeds {
				cells = append(cells, PlanCell{
					Engine:      label,
					Workload:    w.label(),
					Seed:        seed,
					Fingerprint: sweep.Fingerprint(tag, sfp, wfp, "seed="+strconv.FormatUint(seed, 10)),
				})
			}
		}
	}
	return &SweepPlan{kind: k.kind(), plan: sweep.NewPlan(cells)}, nil
}

// run executes a sweep — or the shard or cell subset cfg selects — and
// returns one result per cell in plan order, streaming observations to
// observe in plan order. With a result store, cells it holds are served
// without computing (or preparing their datasets) and computed cells are
// stored. Cells of custom-Open workloads or NewPredictor specs are never
// cached: their fingerprints cover only labels and shapes, not the code
// behind them.
func run[R, O any](ctx context.Context, k cellKind[R, O], specs []WorkloadSpec, cfg runnerConfig, observe func(O)) ([]R, error) {
	if ctx == nil {
		ctx = cfg.ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	plan, err := planOf(k, specs, cfg)
	if err != nil {
		return nil, err
	}
	workloads := make([]cellWorkload, len(specs))
	for i, w := range specs {
		if workloads[i], err = w.resolve(cfg.warm, cfg.measure); err != nil {
			return nil, err
		}
	}
	seeds := cfg.seeds
	perWorkload := k.specs() * len(seeds)
	// at decodes plan index i into its spec, workload and seed index.
	at := func(i int) (s int, w cellWorkload, si int) {
		return i % perWorkload / len(seeds), workloads[i/perWorkload], i % len(seeds)
	}
	job := sweep.Job[R, O]{
		Total:       plan.Len(),
		Cells:       cfg.cells,
		Shard:       cfg.shard,
		Shards:      cfg.shards,
		Parallelism: cfg.parallelism,
		Observe:     observe,
		Prepare: func(i int) (int, func() error) {
			_, w, si := at(i)
			if w.Open != nil {
				return 0, nil
			}
			return i/perWorkload*len(seeds) + si, func() error {
				if _, err := w.dataset(seeds[si]); err != nil {
					return fmt.Errorf("destset: workload %q: %w", w.name, err)
				}
				return nil
			}
		},
		Eval: func(ctx context.Context, i int, emit func(O)) (R, error) {
			s, w, si := at(i)
			return k.eval(ctx, s, w, seeds[si], emit)
		},
	}
	if store := cfg.resolveResultStore(); store != nil {
		cacheable := func(i int) bool {
			s, w, _ := at(i)
			return w.Open == nil && !k.custom(s)
		}
		job.Lookup = func(i int) (res R, obs []O, ok bool) {
			c := plan.Cell(i)
			if !cacheable(i) {
				return res, nil, false
			}
			kind, payload, ok := store.s.Get(c.Fingerprint)
			if !ok || kind != k.kind() {
				return res, nil, false
			}
			return k.decode(payload, c)
		}
		job.Store = func(i int, res R, obs []O) {
			if !cacheable(i) {
				return
			}
			// Best-effort: a record that fails to encode is recomputed
			// next time.
			if payload, err := k.encode(res, obs); err == nil {
				store.s.Put(k.kind(), plan.Cell(i).Fingerprint, payload)
			}
		}
	}
	return sweep.Execute(ctx, job)
}

// mergeResults reassembles per-shard Run outputs into the exact full-run
// result slice, checking every merged cell against the plan's
// coordinates so that shards of different sweeps — or shards supplied
// out of order — fail instead of silently mislabeling results.
func mergeResults[R, O any](k cellKind[R, O], workloads []WorkloadSpec, cfg runnerConfig, shards [][]R) ([]R, error) {
	p, err := planOf(k, workloads, cfg)
	if err != nil {
		return nil, err
	}
	merged, err := sweep.MergeShards(p.Len(), shards)
	if err != nil {
		return nil, err
	}
	for i, res := range merged {
		label, w, seed := k.coords(res)
		if c := p.Cell(i); label != c.Engine || w != c.Workload || seed != c.Seed {
			return nil, fmt.Errorf("destset: merged cell %d is (%s, %s, seed %d), plan expects (%s, %s, seed %d)",
				i, label, w, seed, c.Engine, c.Workload, c.Seed)
		}
	}
	return merged, nil
}
