package sweep

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"destset/internal/coherence"
	"destset/internal/predictor"
	"destset/internal/protocol"
	"destset/internal/trace"
	"destset/internal/workload"
)

func testEngines() []Engine {
	return []Engine{
		{Label: "snooping", New: func(nodes int) (protocol.Engine, error) {
			return protocol.NewSnooping(nodes), nil
		}},
		{Label: "directory", New: func(nodes int) (protocol.Engine, error) {
			return protocol.NewDirectory(), nil
		}},
		{Label: "owner", New: func(nodes int) (protocol.Engine, error) {
			cfg := predictor.DefaultConfig(predictor.Owner, nodes)
			return protocol.NewMulticastWithFactory(func() []predictor.Predictor {
				return predictor.NewBank(cfg)
			}), nil
		}},
	}
}

func testWorkloads(t *testing.T, names []string, warm, measure int) []Workload {
	t.Helper()
	out := make([]Workload, 0, len(names))
	for _, name := range names {
		name := name
		p, err := workload.Preset(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Workload{
			Name:    name,
			Nodes:   p.Nodes,
			Warm:    warm,
			Measure: measure,
			Open: func(seed uint64) (Stream, error) {
				ps, err := workload.Preset(name, seed)
				if err != nil {
					return nil, err
				}
				return workload.New(ps)
			},
		})
	}
	return out
}

// runConfig shapes the test sweeps.
type runConfig struct {
	Seeds       []uint64
	Parallelism int
	Interval    int
	Observe     func(Observation)
}

// run executes the engines × workloads × seeds cross-product,
// workload-major, through Execute and RunCell — the trace-driven sweep
// the facade's Runner drives.
func run(ctx context.Context, engines []Engine, workloads []Workload, cfg runConfig) ([]Result, error) {
	seeds := cfg.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	var cells []Cell
	for _, w := range workloads {
		for _, e := range engines {
			for _, s := range seeds {
				cells = append(cells, Cell{Engine: e, Workload: w, Seed: s})
			}
		}
	}
	return Execute(ctx, Job[Result, Observation]{
		Total:       len(cells),
		Parallelism: cfg.Parallelism,
		Observe:     cfg.Observe,
		Eval: func(ctx context.Context, i int, emit func(Observation)) (Result, error) {
			res, err := RunCell(ctx, cells[i], cfg.Interval, emit)
			if err != nil {
				return Result{}, err
			}
			return *res, nil
		},
	})
}

func TestRunDeterministicAcrossParallelism(t *testing.T) {
	engines := testEngines()
	workloads := testWorkloads(t, []string{"oltp", "ocean"}, 2000, 2000)
	seeds := []uint64{1, 2}

	serial, err := run(context.Background(), engines, workloads,
		runConfig{Seeds: seeds, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := run(context.Background(), engines, workloads,
		runConfig{Seeds: seeds, Parallelism: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(engines)*len(workloads)*len(seeds) {
		t.Fatalf("got %d results", len(serial))
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel results diverge from serial:\n%v\nvs\n%v", serial, parallel)
	}
	// Workload-major ordering: first cells all belong to the first workload.
	for i, r := range serial[:len(engines)*len(seeds)] {
		if r.Workload != "oltp" {
			t.Errorf("result %d workload %q, want oltp-first ordering", i, r.Workload)
		}
	}
}

func TestRunObservationsCoverMeasurement(t *testing.T) {
	engines := testEngines()[:1]
	workloads := testWorkloads(t, []string{"oltp"}, 500, 2500)
	var obs []Observation
	_, err := run(context.Background(), engines, workloads, runConfig{
		Interval: 1000,
		Observe:  func(o Observation) { obs = append(obs, o) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 3 {
		t.Fatalf("got %d observations, want 3 (1000+1000+500)", len(obs))
	}
	var misses uint64
	for i, o := range obs {
		if o.Interval != i {
			t.Errorf("observation %d has interval index %d", i, o.Interval)
		}
		misses += o.Totals.Misses
	}
	if misses != 2500 {
		t.Errorf("observations cover %d misses, want 2500", misses)
	}
	last := obs[len(obs)-1]
	if last.Cumulative.Misses != 2500 {
		t.Errorf("final cumulative misses %d", last.Cumulative.Misses)
	}
}

func TestRunCancellationReturnsPartialResults(t *testing.T) {
	engines := testEngines()
	workloads := testWorkloads(t, []string{"oltp"}, 50_000, 200_000)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var (
		res []Result
		err error
	)
	go func() {
		defer close(done)
		res, err = run(ctx, engines, workloads, runConfig{Parallelism: 2})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return promptly after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if len(res) >= len(engines) {
		t.Errorf("expected partial results, got all %d", len(res))
	}
}

func TestRunPropagatesCellErrors(t *testing.T) {
	bad := []Engine{{Label: "bad", New: func(int) (protocol.Engine, error) {
		return nil, errors.New("boom")
	}}}
	workloads := testWorkloads(t, []string{"oltp"}, 10, 10)
	_, err := run(context.Background(), bad, workloads, runConfig{})
	if err == nil || !contains(err.Error(), "boom") {
		t.Errorf("err = %v, want cell error", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		func() bool {
			for i := 0; i+len(sub) <= len(s); i++ {
				if s[i:i+len(sub)] == sub {
					return true
				}
			}
			return false
		}())
}

func TestForEach(t *testing.T) {
	out := make([]int, 100)
	err := ForEach(context.Background(), len(out), 8, func(i int) error {
		out[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	var calls atomic.Int64
	err = ForEach(context.Background(), 1000, 4, func(i int) error {
		calls.Add(1)
		if i == 3 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := calls.Load(); n == 1000 {
		t.Errorf("ForEach did not stop early (ran all %d)", n)
	}
}

// replayStream checks that pre-annotated traces satisfy Stream.
type replayStream struct {
	recs  []trace.Record
	infos []coherence.MissInfo
	i     int
}

func (r *replayStream) Next() (trace.Record, coherence.MissInfo) {
	rec, mi := r.recs[r.i], r.infos[r.i]
	r.i++
	return rec, mi
}

func TestReplayStreamMatchesGenerator(t *testing.T) {
	p, err := workload.Preset("slashcode", 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.New(p)
	if err != nil {
		t.Fatal(err)
	}
	tr, infos := g.Generate(3000)
	w := Workload{
		Name:    "slashcode-replay",
		Nodes:   p.Nodes,
		Warm:    1000,
		Measure: 2000,
		Open: func(uint64) (Stream, error) {
			return &replayStream{recs: tr.Records, infos: infos}, nil
		},
	}
	e := testEngines()[2]
	res, err := run(context.Background(), []Engine{e}, []Workload{w}, runConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Totals.Misses != 2000 {
		t.Fatalf("measured %d misses", res[0].Totals.Misses)
	}
}

func TestCollectFailFastCancelsInflightCells(t *testing.T) {
	// One cell fails immediately; the other, long-running cell must see
	// the derived context cancel and abort instead of running out its
	// full (effectively unbounded) loop.
	aborted := make(chan struct{})
	res, err := Execute(context.Background(), Job[int, int]{
		Total:       2,
		Parallelism: 2,
		Eval: func(ctx context.Context, i int, _ func(int)) (int, error) {
			if i == 0 {
				return 0, errors.New("boom")
			}
			select {
			case <-ctx.Done():
				close(aborted)
				return 0, ctx.Err()
			case <-time.After(10 * time.Second):
				t.Error("in-flight cell was not cancelled after the sibling's error")
				return 0, nil
			}
		},
	})
	select {
	case <-aborted:
	default:
		// i==1 may not have started before the error cancelled the feed;
		// either way Execute must report the real error.
	}
	if err == nil || !contains(err.Error(), "boom") {
		t.Errorf("err = %v, want the failing cell's error", err)
	}
	if len(res) != 0 {
		t.Errorf("results = %v, want none", res)
	}
}

// TestCollectOrderAndSkippedSlots pins slot order: results come back in
// plan order however the cells finish, and an explicit subset skips the
// unselected slots.
func TestCollectOrderAndSkippedSlots(t *testing.T) {
	res, err := Execute(context.Background(), Job[int, int]{
		Total:       5,
		Cells:       []int{0, 1, 3, 4},
		Parallelism: 3,
		Eval: func(_ context.Context, i int, _ func(int)) (int, error) {
			time.Sleep(time.Duration(5-i) * time.Millisecond) // later cells finish first
			return i * 10, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 10, 30, 40}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("res = %v, want %v (compaction must keep index order)", res, want)
	}
}

// orderObs is one observation of TestExecuteEmitsInPlanOrder's cells.
type orderObs struct{ cell, n int }

// TestExecuteEmitsInPlanOrder sizes cells so that later cells finish
// first and serves every third cell from a store: the observer must
// still see every cell's observations in plan order at any parallelism,
// and only computed cells are stored.
func TestExecuteEmitsInPlanOrder(t *testing.T) {
	const total, perCell = 12, 3
	var want []orderObs
	for i := 0; i < total; i++ {
		for n := 0; n < perCell; n++ {
			want = append(want, orderObs{i, n})
		}
	}
	for _, par := range []int{1, 2, 8} {
		var got []orderObs
		var stored atomic.Int64
		res, err := Execute(context.Background(), Job[int, orderObs]{
			Total:       total,
			Parallelism: par,
			Lookup: func(i int) (int, []orderObs, bool) {
				if i%3 != 1 {
					return 0, nil, false
				}
				obs := make([]orderObs, perCell)
				for n := range obs {
					obs[n] = orderObs{i, n}
				}
				return i, obs, true
			},
			Eval: func(_ context.Context, i int, emit func(orderObs)) (int, error) {
				for n := 0; n < perCell; n++ {
					time.Sleep(time.Duration(total-i) * 100 * time.Microsecond)
					emit(orderObs{i, n})
				}
				return i, nil
			},
			Store: func(i int, res int, obs []orderObs) {
				if i%3 == 1 || res != i || len(obs) != perCell {
					t.Errorf("stored cell %d (result %d, %d observations)", i, res, len(obs))
				}
				stored.Add(1)
			},
			Observe: func(o orderObs) { got = append(got, o) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != total {
			t.Fatalf("parallelism %d: %d results", par, len(res))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: observer saw %v, want plan order %v", par, got, want)
		}
		if n := stored.Load(); n != total-total/3 {
			t.Errorf("parallelism %d: stored %d cells, want %d", par, n, total-total/3)
		}
	}
}

// TestExecuteCancellationReleasesReturnedCells cancels a sweep whose
// head cell never finishes while three later cells already have: the
// run returns those three, and the observer receives exactly their
// observations, in plan order.
func TestExecuteCancellationReleasesReturnedCells(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var finished sync.WaitGroup
	finished.Add(3)
	go func() {
		finished.Wait()
		cancel()
	}()
	var got []int
	res, err := Execute(ctx, Job[int, int]{
		Total:       8,
		Parallelism: 4,
		Eval: func(ctx context.Context, i int, emit func(int)) (int, error) {
			if i < 1 || i > 3 {
				<-ctx.Done()
				return 0, ctx.Err()
			}
			emit(i * 10)
			emit(i*10 + 1)
			finished.Done()
			return i, nil
		},
		Observe: func(o int) { got = append(got, o) },
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if want := []int{1, 2, 3}; !reflect.DeepEqual(res, want) {
		t.Errorf("results = %v, want %v", res, want)
	}
	if want := []int{10, 11, 20, 21, 30, 31}; !reflect.DeepEqual(got, want) {
		t.Errorf("observer saw %v, want %v", got, want)
	}
}

// TestExecutePreparesOncePerSource pins the prepare phase: one call per
// distinct source key among computed cells, none for served cells.
func TestExecutePreparesOncePerSource(t *testing.T) {
	var calls [3]atomic.Int64
	_, err := Execute(context.Background(), Job[int, int]{
		Total:       9,
		Parallelism: 4,
		Lookup:      func(i int) (int, []int, bool) { return i, nil, i >= 6 },
		Prepare: func(i int) (int, func() error) {
			key := i / 3
			return key, func() error { calls[key].Add(1); return nil }
		},
		Eval: func(_ context.Context, i int, _ func(int)) (int, error) { return i, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range []int64{1, 1, 0} {
		if got := calls[key].Load(); got != want {
			t.Errorf("source %d prepared %d times, want %d", key, got, want)
		}
	}
}
