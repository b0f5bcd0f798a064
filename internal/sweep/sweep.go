// Package sweep is the concurrency engine behind the public experiment
// API. Execute runs any kind of sweep cell — a trace-driven engine
// replay (RunCell) or an execution-driven timing simulation — over a
// worker pool: it selects a shard or explicit subset of the plan,
// serves cells a result store already holds, materializes shared stream
// sources once, computes the rest, and hands every observation to the
// observer in plan order. It honors context cancellation and returns
// results in plan order regardless of goroutine scheduling.
//
// Determinism comes from the shape of a cell, not from locking: every
// cell builds its own fresh engine and opens its own miss stream, both
// of which are pure functions of the cell's coordinates, so cells never
// share mutable state and their results are reproducible at any
// parallelism. Streams may replay a shared immutable dataset (each cell
// still gets its own cursor). Results are written to a slot indexed by
// the cell's position in the plan, then compacted in order.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"destset/internal/coherence"
	"destset/internal/protocol"
	"destset/internal/trace"
)

// Stream produces a workload's miss stream: one coherence request and
// its oracle annotation per call. *workload.Generator implements it; so
// do replayers over pre-generated traces.
type Stream interface {
	Next() (trace.Record, coherence.MissInfo)
}

// Engine names a protocol engine and knows how to build a fresh,
// untrained instance for a system of the given size.
type Engine struct {
	// Label identifies the engine in results and observations. It need
	// not equal the built engine's Name().
	Label string
	// New builds a fresh engine. It is called once per cell, so every
	// cell trains and measures an independent instance.
	New func(nodes int) (protocol.Engine, error)
}

// Workload names a miss-stream source and its measurement scale.
type Workload struct {
	// Name identifies the workload in results and observations.
	Name string
	// Nodes is the system size engines are built for.
	Nodes int
	// Open returns a fresh stream positioned at the beginning. The same
	// seed must yield the same stream contents.
	Open func(seed uint64) (Stream, error)
	// Warm misses train caches and predictors without being measured.
	Warm int
	// Measure misses are accounted.
	Measure int
}

// Observation is one measurement interval of one cell, streamed to the
// observer as the sweep runs.
type Observation struct {
	Engine   string // engine label
	Workload string
	Seed     uint64
	// Interval is the 0-based interval index within the cell.
	Interval int
	// Totals covers this interval only.
	Totals protocol.Totals
	// Cumulative covers the cell's whole measurement so far.
	Cumulative protocol.Totals
}

// Result is one completed cell.
type Result struct {
	Engine     string // engine label
	EngineName string // the built engine's Name()
	Workload   string
	Seed       uint64
	Totals     protocol.Totals
}

// Job is one sweep for Execute: a plan of Total cells, the subset of it
// to run, and how one cell is served from a result store, computed and
// stored. R is a completed cell's result, O one of its observations.
type Job[R, O any] struct {
	// Total is the plan's cell count. Cells, Shard and Shards select the
	// subset that runs (see SubsetIndices).
	Total         int
	Cells         []int
	Shard, Shards int
	// Parallelism caps concurrently-running cells; <=0 means GOMAXPROCS.
	Parallelism int
	// Lookup, when non-nil, serves cell i from a result store: its
	// result and the observations it emitted when it computed. It is
	// called once per selected cell, serially, before anything else
	// runs, so served cells neither compute nor prepare their sources.
	Lookup func(i int) (res R, obs []O, ok bool)
	// Prepare, when non-nil, names cell i's shared stream source by key
	// and returns the function that materializes it (nil: nothing to
	// prepare). Execute calls it once per distinct key among the cells
	// that compute, across the worker pool, before any cell runs, so
	// expensive one-time generation fans out instead of serializing the
	// first cells that race to open the same source.
	Prepare func(i int) (key int, prepare func() error)
	// Eval computes cell i, passing each observation it makes to emit
	// (nil when neither Observe nor Store wants them). It must honor
	// ctx: Execute cancels it on the first cell error.
	Eval func(ctx context.Context, i int, emit func(O)) (R, error)
	// Store, when non-nil, receives every computed cell with the
	// observations it emitted. Calls arrive concurrently.
	Store func(i int, res R, obs []O)
	// Observe, when non-nil, receives every observation of every
	// returned cell, served or computed. Calls are serialized and in
	// plan order, so the observer need not be concurrency-safe and its
	// output is the same at every parallelism.
	Observe func(O)
}

// Execute runs a job's selected cells over a worker pool and returns
// their results in plan order. Dispatch is in plan order too; a cell
// that finishes before an earlier one holds its observations until
// every earlier cell has released its own, so Observe sees plan order
// with no reordering window to size. On cancellation — from the
// caller's ctx or a failing cell (fail-fast: in-flight cells see their
// context end) — Execute still returns every completed cell, in order,
// with the first real error (or the context's), and the observer has
// seen exactly those cells' observations.
func Execute[R, O any](ctx context.Context, job Job[R, O]) ([]R, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	subset, err := SubsetIndices(job.Total, job.Cells, job.Shard, job.Shards)
	if err != nil {
		return nil, err
	}
	slots := make([]slot[R, O], len(subset))
	if job.Lookup != nil {
		for k, i := range subset {
			if res, obs, ok := job.Lookup(i); ok {
				slots[k] = slot[R, O]{res: &res, obs: obs, hit: true}
			}
		}
	}
	if err := prepare(ctx, job, subset, slots); err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	observe := func(obs []O) {
		if job.Observe != nil {
			for _, o := range obs {
				job.Observe(o)
			}
		}
	}
	var (
		mu        sync.Mutex
		firstErr  error
		next      int  // the first slot whose observations are not yet released
		releasing bool // a goroutine is running the observer
	)
	// finish records slot k's outcome and releases the finished slots
	// from next on, in order, up to the first unfinished one. The
	// observer runs outside mu so a slow sink never stalls the pool; the
	// releasing flag keeps its calls serialized, and a slot that finishes
	// mid-release is picked up by the releasing goroutine's next check.
	finish := func(k int, res *R, obs []O) {
		mu.Lock()
		defer mu.Unlock()
		slots[k].res, slots[k].obs, slots[k].done = res, obs, true
		if releasing {
			return
		}
		releasing = true
		for next < len(slots) && slots[next].done {
			obs := slots[next].obs
			slots[next].obs = nil
			next++
			mu.Unlock()
			observe(obs)
			mu.Lock()
		}
		releasing = false
	}
	capture := job.Observe != nil || job.Store != nil
	_ = ForEach(ctx, len(slots), job.Parallelism, func(k int) error {
		if s := slots[k]; s.hit {
			finish(k, s.res, s.obs)
			return nil
		}
		var obs []O
		var emit func(O)
		if capture {
			emit = func(o O) { obs = append(obs, o) }
		}
		res, err := job.Eval(ctx, subset[k], emit)
		if err != nil {
			mu.Lock()
			// A cell failing only because the sweep is already cancelled
			// is a victim, not the cause.
			if firstErr == nil && ctx.Err() == nil {
				firstErr = err
			}
			mu.Unlock()
			cancel()
			return nil
		}
		if job.Store != nil {
			job.Store(subset[k], res, obs)
		}
		finish(k, &res, obs)
		return nil
	})
	// The pool has drained: release the finished cells stranded behind a
	// cell that failed or never ran.
	for ; next < len(slots); next++ {
		if slots[next].done {
			observe(slots[next].obs)
		}
	}
	out := make([]R, 0, len(slots))
	for _, s := range slots {
		if s.done {
			out = append(out, *s.res)
		}
	}
	if firstErr != nil {
		return out, firstErr
	}
	return out, ctx.Err()
}

// slot is one selected cell's state in Execute: its result and the
// observations it holds until its turn to release them.
type slot[R, O any] struct {
	res  *R
	obs  []O
	hit  bool // served by Lookup
	done bool // completed; results and observations final
}

// prepare runs job.Prepare's materializers once per distinct source key
// of the cells that compute.
func prepare[R, O any](ctx context.Context, job Job[R, O], subset []int, slots []slot[R, O]) error {
	if job.Prepare == nil {
		return nil
	}
	var preps []func() error
	seen := make(map[int]bool)
	for k, i := range subset {
		if slots[k].hit {
			continue
		}
		key, prep := job.Prepare(i)
		if prep != nil && !seen[key] {
			seen[key] = true
			preps = append(preps, prep)
		}
	}
	return ForEach(ctx, len(preps), job.Parallelism, func(j int) error { return preps[j]() })
}

// ctxCheckStride bounds how many misses a cell processes between
// cancellation checks, so cancellation is prompt even on huge cells.
const ctxCheckStride = 2048

// Cell is one trace-driven sweep cell: an engine trained and measured on
// a workload's miss stream at one seed.
type Cell struct {
	Engine   Engine
	Workload Workload
	Seed     uint64
}

// RunCell trains and measures one cell, passing each interval's
// observation to observe (which may be nil); interval <= 0 makes one
// observation of the whole measurement. It checks for cancellation every
// ctxCheckStride misses and abandons the cell promptly when the context
// ends.
func RunCell(ctx context.Context, c Cell, interval int, observe func(Observation)) (*Result, error) {
	if c.Workload.Open == nil {
		return nil, fmt.Errorf("sweep: workload %q has no stream source", c.Workload.Name)
	}
	if c.Engine.New == nil {
		return nil, fmt.Errorf("sweep: engine %q has no constructor", c.Engine.Label)
	}
	eng, err := c.Engine.New(c.Workload.Nodes)
	if err != nil {
		return nil, fmt.Errorf("sweep: engine %q: %w", c.Engine.Label, err)
	}
	st, err := c.Workload.Open(c.Seed)
	if err != nil {
		return nil, fmt.Errorf("sweep: workload %q: %w", c.Workload.Name, err)
	}
	for i := 0; i < c.Workload.Warm; i++ {
		if i%ctxCheckStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rec, mi := st.Next()
		eng.Process(rec, mi)
	}
	var cum, cur protocol.Totals
	intervalIdx := 0
	emit := func() {
		if observe != nil {
			observe(Observation{
				Engine:     c.Engine.Label,
				Workload:   c.Workload.Name,
				Seed:       c.Seed,
				Interval:   intervalIdx,
				Totals:     cur,
				Cumulative: cum,
			})
		}
		intervalIdx++
		cur = protocol.Totals{}
	}
	for i := 0; i < c.Workload.Measure; i++ {
		if i%ctxCheckStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		rec, mi := st.Next()
		r := eng.Process(rec, mi)
		cum.Add(r)
		cur.Add(r)
		if interval > 0 && cur.Misses >= uint64(interval) {
			emit()
		}
	}
	if cur.Misses > 0 || interval <= 0 {
		emit()
	}
	return &Result{
		Engine:     c.Engine.Label,
		EngineName: eng.Name(),
		Workload:   c.Workload.Name,
		Seed:       c.Seed,
		Totals:     cum,
	}, nil
}

// ForEach runs fn(i) for every i in [0, n) across a worker pool of the
// given size (<=0 means GOMAXPROCS), stopping at the first error or at
// context cancellation. Callers get determinism by writing fn's output
// to slot i of a caller-owned slice.
func ForEach(ctx context.Context, n, parallelism int, fn func(i int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		return nil
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > n {
		parallelism = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		firstErr error
		errOnce  sync.Once
		wg       sync.WaitGroup
	)
	jobs := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					continue
				}
				if err := fn(i); err != nil {
					errOnce.Do(func() { firstErr = err })
					cancel()
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}
