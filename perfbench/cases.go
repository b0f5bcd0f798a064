package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"destset"
	"destset/internal/dataset"
	"destset/internal/experiments"
	"destset/internal/sweep"
	"destset/internal/workload"
)

// A benchCase is one workload of the benchmark: a sweep over datasets
// generated from the run's seed.
type benchCase interface {
	// datasets lists the shared datasets the sweep replays; set-up
	// resolves them.
	datasets() ([]destset.SweepDataset, error)
	// sweep runs the sweep once and measures it. tr is nil when untraced;
	// traced, the sweep records spans under parent.
	sweep(ctx context.Context, tr *tracer, parent int64) (outcome, error)
	// reference computes the sweep's cells by single-threaded shard runs.
	reference(ctx context.Context) ([]cell, error)
	// model derives the simulated metrics from a checked outcome.
	model(o outcome) (map[string]float64, error)
	// probe drives the layers the sweep exercises with its own datasets;
	// o is the checked traced sweep.
	probe(ctx context.Context, tr *tracer, parent int64, sets []*dataset.Dataset, o outcome) error
}

// outcome is one measured sweep.
type outcome struct {
	cells   []cell
	misses  int64         // replayed misses summed over computed cells
	elapsed time.Duration // the timed part of the sweep
	alloc   uint64        // Go heap bytes allocated in the timed part
	trace   []destset.RunResult
	timing  []destset.TimingResult
}

// window measures the timed part of a sweep.
type window struct {
	t0    time.Time
	alloc uint64
}

func startWindow() window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return window{t0: time.Now(), alloc: ms.TotalAlloc}
}

func (w window) stop(o *outcome) {
	o.elapsed = time.Since(w.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	o.alloc = ms.TotalAlloc - w.alloc
}

// scale sizes a workload.
type scale struct {
	seeds         int // workload seeds swept
	warm, measure int // misses per dataset
}

// workloadSeeds derives a run's workload seeds from its --seed.
func workloadSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = seed*100 + uint64(i) + 1
	}
	return out
}

// parallelism is the sweep parallelism: one busy thread per CPU.
func parallelism() int { return runtime.NumCPU() }

// --- trace-driven sweeps: fig5-tradeoff ---

// traceCase is the Figure 5 trace-driven sweep: snooping, directory and
// the four standout predictor policies over the six paper workloads.
type traceCase struct {
	def  destset.SweepDef
	sc   scale
	work string
}

func newTraceCase(seed uint64, sc scale, work string) (*traceCase, error) {
	opt := experiments.DefaultOptions()
	opt.WarmMisses, opt.Misses = sc.warm, sc.measure
	def, err := experiments.TradeoffSweepDef(opt)
	if err != nil {
		return nil, err
	}
	def.Seeds = workloadSeeds(seed, sc.seeds)
	return &traceCase{def: def, sc: sc, work: work}, nil
}

func (c *traceCase) datasets() ([]destset.SweepDataset, error) { return c.def.Datasets() }

func (c *traceCase) sweep(ctx context.Context, tr *tracer, parent int64) (outcome, error) {
	var o outcome
	var err error
	w := startWindow()
	if tr == nil {
		var r *destset.Runner
		if r, err = c.def.Runner(destset.WithParallelism(parallelism())); err == nil {
			o.trace, err = r.Run(ctx)
		}
	} else {
		o.trace, err = c.tracedRun(ctx, tr, parent)
	}
	w.stop(&o)
	if err != nil {
		return o, err
	}
	o.cells, err = traceCells(o.trace)
	o.misses = int64(len(o.trace)) * int64(c.sc.warm+c.sc.measure)
	return o, err
}

// tracedRun runs the sweep cell by cell over the same number of threads,
// one span per cell.
func (c *traceCase) tracedRun(ctx context.Context, tr *tracer, parent int64) ([]destset.RunResult, error) {
	return tracedCells(ctx, tr, parent, c.def, "", c.def.Runner, func(destset.RunResult) string { return "" })
}

// cellRunner is a runner of the program: Runner or TimingRunner.
type cellRunner[R any] interface {
	Run(context.Context) ([]R, error)
}

// tracedCells runs each cell of def's plan through the program's own
// runner, built by newRunner and restricted to that cell, at parallelism
// 1, the cells side by side over the sweep's threads. Each cell gets a
// sweep.cell span; inner, when not empty, names a span inside it around
// the run alone. attr labels both spans from the cell's result.
func tracedCells[R any, P cellRunner[R]](ctx context.Context, tr *tracer, parent int64, def destset.SweepDef, inner string,
	newRunner func(...destset.RunnerOption) (P, error), attr func(R) string) ([]R, error) {
	plan, err := def.Plan()
	if err != nil {
		return nil, err
	}
	out := make([]R, plan.Len())
	err = sweep.ForEach(ctx, plan.Len(), parallelism(), func(i int) error {
		t0 := time.Now()
		r, err := newRunner(destset.WithCells([]int{i}), destset.WithParallelism(1))
		if err != nil {
			return err
		}
		t1 := time.Now()
		res, err := r.Run(ctx)
		t2 := time.Now()
		if err != nil {
			return err
		}
		if len(res) != 1 {
			return fmt.Errorf("cell %d returned %d results", i, len(res))
		}
		out[i] = res[0]
		id := tr.record(parent, "sweep.cell", attr(res[0]), t0, t2)
		if inner != "" {
			tr.record(id, inner, attr(res[0]), t1, t2)
		}
		return nil
	})
	return out, err
}

// reference runs the sweep as refShards single-threaded shard runs side
// by side and merges them by plan index (Runner.Merge).
func (c *traceCase) reference(ctx context.Context) ([]cell, error) {
	shards := make([][]destset.RunResult, refShards)
	err := sweep.ForEach(ctx, refShards, refShards, func(i int) error {
		r, err := c.def.Runner(destset.WithShard(i, refShards), destset.WithParallelism(1))
		if err == nil {
			shards[i], err = r.Run(ctx)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	r, err := c.def.Runner()
	if err != nil {
		return nil, err
	}
	res, err := r.Merge(shards)
	if err != nil {
		return nil, err
	}
	return traceCells(res)
}

// refShards is how many single-threaded shard runs compute a reference;
// they run side by side, one per CPU of the 2-CPU hosts the benchmark is
// sized for.
const refShards = 2

func (c *traceCase) model(o outcome) (map[string]float64, error) {
	return traceModel(o.trace)
}

func (c *traceCase) probe(ctx context.Context, tr *tracer, parent int64, sets []*dataset.Dataset, o outcome) error {
	if err := probeDataset(tr, parent, c.work, sets); err != nil {
		return err
	}
	if err := probeWorkload(tr, parent, sets); err != nil {
		return err
	}
	probePredictors(tr, parent, sets)
	if err := probeProtocols(tr, parent, c.def.Engines, sets); err != nil {
		return err
	}
	return probeFleet(ctx, tr, parent, c.def, o.trace, c.work)
}

// traceCells digests trace-driven results in plan order.
func traceCells(res []destset.RunResult) ([]cell, error) {
	cells := make([]cell, len(res))
	for i, r := range res {
		d, err := digestJSON(r)
		if err != nil {
			return nil, err
		}
		cells[i] = cell{label: fmt.Sprintf("%s|%s|%d", r.Engine, r.Workload, r.Seed), digest: d}
	}
	return cells, nil
}

// cellTotals is the part of a trace-driven cell the model metrics read.
type cellTotals struct {
	config               string // the engine's Name()
	workload             string
	indirectPct, reqMsgs float64
	bytesPerMiss         float64
}

// traceModel derives the Figure 5 model metrics from trace-driven results.
func traceModel(res []destset.RunResult) (map[string]float64, error) {
	cells := make([]cellTotals, len(res))
	for i, r := range res {
		cells[i] = cellTotals{
			config: r.Tradeoff.Config, workload: r.Workload,
			indirectPct: r.Tradeoff.IndirectionPercent, reqMsgs: r.Tradeoff.RequestMsgsPerMiss,
			bytesPerMiss: r.Tradeoff.BytesPerMiss,
		}
	}
	return figure5Model(cells)
}

// isGroup reports whether an engine or sim configuration name is the
// paper's standout Multicast+Group point.
func isGroup(config string) bool { return strings.HasPrefix(config, "Multicast+Group[") }

// figure5Model computes, over every cell:
//   - model.dir_indirect_err_pts: the mean over the paper workloads of
//     |directory indirection % − the paper's Table 2 value|;
//   - model.group_indirect_pct and model.group_req_msgs_per_miss: the
//     mean Multicast+Group point;
//   - model.group_traffic_vs_snoop: mean Multicast+Group bytes per miss ÷
//     mean snooping bytes per miss.
func figure5Model(cells []cellTotals) (map[string]float64, error) {
	dir := make(map[string][]float64)
	var group, groupMsgs, groupBytes, snoopBytes []float64
	for _, c := range cells {
		switch {
		case c.config == "Directory":
			dir[c.workload] = append(dir[c.workload], c.indirectPct)
		case c.config == "Broadcast Snooping":
			snoopBytes = append(snoopBytes, c.bytesPerMiss)
		case isGroup(c.config):
			group = append(group, c.indirectPct)
			groupMsgs = append(groupMsgs, c.reqMsgs)
			groupBytes = append(groupBytes, c.bytesPerMiss)
		}
	}
	errPts, err := paperError(dir)
	if err != nil {
		return nil, err
	}
	if len(group) == 0 || len(snoopBytes) == 0 {
		return nil, fmt.Errorf("sweep has no Multicast+Group or snooping cells")
	}
	return map[string]float64{
		"model.dir_indirect_err_pts":    errPts,
		"model.group_indirect_pct":      mean(group),
		"model.group_req_msgs_per_miss": mean(groupMsgs),
		"model.group_traffic_vs_snoop":  mean(groupBytes) / mean(snoopBytes),
	}, nil
}

// paperError is the mean absolute error, in percentage points, of the
// per-workload directory indirection percentages against the paper's
// Table 2 — the model's only in-repo reference, and a calibration target
// rather than held-out data.
func paperError(dir map[string][]float64) (float64, error) {
	if len(dir) == 0 {
		return 0, fmt.Errorf("sweep has no directory cells")
	}
	// Sum in a fixed order, so the figure repeats to the last bit.
	names := make([]string, 0, len(dir))
	for w := range dir {
		names = append(names, w)
	}
	sort.Strings(names)
	var errs []float64
	for _, w := range names {
		want, ok := workload.PaperIndirections[w]
		if !ok {
			return 0, fmt.Errorf("workload %q has no paper indirection figure", w)
		}
		errs = append(errs, math.Abs(mean(dir[w])-want))
	}
	return mean(errs), nil
}

// --- timing sweeps: fig78-timing ---

// timingCase is the Figure 7 and Figure 8 timing sweep: the six protocol
// configurations under both CPU models over the six paper workloads.
type timingCase struct {
	def  destset.SweepDef
	sc   scale
	work string
}

func newTimingCase(seed uint64, sc scale, work string) (*timingCase, error) {
	specs := append(experiments.TimingSpecs(destset.SimpleCPU), experiments.TimingSpecs(destset.DetailedCPU)...)
	names := workload.PaperNames()
	ws := make([]destset.WorkloadSpec, len(names))
	for i, n := range names {
		ws[i] = destset.WorkloadSpec{Name: n, Warm: sc.warm, Measure: sc.measure}
	}
	def := destset.NewTimingSweepDef(specs, ws, destset.WithSeeds(workloadSeeds(seed, sc.seeds)...))
	if err := def.Validate(); err != nil {
		return nil, err
	}
	return &timingCase{def: def, sc: sc, work: work}, nil
}

func (c *timingCase) datasets() ([]destset.SweepDataset, error) { return c.def.Datasets() }

func (c *timingCase) sweep(ctx context.Context, tr *tracer, parent int64) (outcome, error) {
	var o outcome
	var err error
	w := startWindow()
	if tr == nil {
		var r *destset.TimingRunner
		if r, err = c.def.TimingRunner(destset.WithParallelism(parallelism())); err == nil {
			o.timing, err = r.Run(ctx)
		}
	} else {
		o.timing, err = c.tracedRun(ctx, tr, parent)
	}
	w.stop(&o)
	if err != nil {
		return o, err
	}
	o.cells, err = timingCells(o.timing)
	o.misses = int64(len(o.timing)) * int64(c.sc.warm+c.sc.measure)
	return o, err
}

// tracedRun runs the sweep cell by cell over the same number of threads,
// with a sweep.cell span per cell and a sim.simulate span around its run,
// both labelled with the cell's CPU model.
func (c *timingCase) tracedRun(ctx context.Context, tr *tracer, parent int64) ([]destset.TimingResult, error) {
	res, err := tracedCells(ctx, tr, parent, c.def, "sim.simulate", c.def.TimingRunner,
		func(r destset.TimingResult) string { return r.CPU })
	tr.addCount("sim.timed_misses", float64(len(res)*c.sc.measure))
	return res, err
}

func (c *timingCase) reference(ctx context.Context) ([]cell, error) {
	shards := make([][]destset.TimingResult, refShards)
	err := sweep.ForEach(ctx, refShards, refShards, func(i int) error {
		r, err := c.def.TimingRunner(destset.WithShard(i, refShards), destset.WithParallelism(1))
		if err == nil {
			shards[i], err = r.Run(ctx)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	r, err := c.def.TimingRunner()
	if err != nil {
		return nil, err
	}
	res, err := r.Merge(shards)
	if err != nil {
		return nil, err
	}
	return timingCells(res)
}

// timingCells digests timing results in plan order.
func timingCells(res []destset.TimingResult) ([]cell, error) {
	cells := make([]cell, len(res))
	for i, r := range res {
		d, err := digestJSON(r)
		if err != nil {
			return nil, err
		}
		cells[i] = cell{label: fmt.Sprintf("%s|%s|%s|%d", r.Sim, r.CPU, r.Workload, r.Seed), digest: d}
	}
	return cells, nil
}

// model derives the Figure 7/8 metrics: mean over (workload, seed, CPU
// model) of Multicast+Group runtime ÷ directory runtime and of
// Multicast+Group endpoint bytes ÷ snooping endpoint bytes, plus the
// Figure 5 metrics the timing model also yields (directory and
// Multicast+Group indirections).
func (c *timingCase) model(o outcome) (map[string]float64, error) {
	type key struct {
		workload, cpu string
		seed          uint64
	}
	dirRun, snoopBytes := map[key]float64{}, map[key]float64{}
	dirPct := make(map[string][]float64)
	var group []destset.TimingResult
	var groupPct []float64
	for _, r := range o.timing {
		k := key{r.Workload, r.CPU, r.Seed}
		switch {
		case r.Config == "directory":
			dirRun[k] = r.Result.RuntimeNs
			dirPct[r.Workload] = append(dirPct[r.Workload], r.Result.IndirectionPercent())
		case r.Config == "snooping":
			snoopBytes[k] = float64(r.Result.EndpointBytes)
		case isGroup(r.Config):
			group = append(group, r)
			groupPct = append(groupPct, r.Result.IndirectionPercent())
		}
	}
	var runtimes, traffic []float64
	for _, g := range group {
		k := key{g.Workload, g.CPU, g.Seed}
		if dirRun[k] == 0 || snoopBytes[k] == 0 {
			return nil, fmt.Errorf("no directory or snooping cell for %v", k)
		}
		runtimes = append(runtimes, g.Result.RuntimeNs/dirRun[k])
		traffic = append(traffic, float64(g.Result.EndpointBytes)/snoopBytes[k])
	}
	if len(runtimes) == 0 {
		return nil, fmt.Errorf("sweep has no Multicast+Group cells")
	}
	errPts, err := paperError(dirPct)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"model.dir_indirect_err_pts":   errPts,
		"model.group_indirect_pct":     mean(groupPct),
		"model.group_runtime_vs_dir":   mean(runtimes),
		"model.group_traffic_vs_snoop": mean(traffic),
	}, nil
}

func (c *timingCase) probe(_ context.Context, tr *tracer, parent int64, sets []*dataset.Dataset, _ outcome) error {
	if err := probeDataset(tr, parent, c.work, sets); err != nil {
		return err
	}
	if err := probeWorkload(tr, parent, sets); err != nil {
		return err
	}
	probePredictors(tr, parent, sets)
	probeTimingParts(tr, parent, sets)
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
