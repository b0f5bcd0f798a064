// Command perfbench is the repository's benchmark. One run measures one
// workload — a paper sweep driven through the program's public entry
// points — checks every cell of its output against a reference, and
// prints its metrics, the last line being one JSON object:
//
//	bash perfbench/run.sh --workload fig5-tradeoff --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the sweep
// traced, drives each layer with the workload's own datasets, and prints
// the per-layer metrics. BENCHMARK.json lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"destset"
	"destset/internal/dataset"
	"destset/internal/sweep"
	"destset/internal/workload"
)

// The workloads and the scale each runs at.
var workloads = []struct {
	name string
	sc   scale
}{
	{"fig5-tradeoff", scale{seeds: 2, warm: 300_000, measure: 300_000}},
	{"fig78-timing", scale{seeds: 1, warm: 50_000, measure: 50_000}},
}

// An untraced run sets up at least setupRuns times and for at least
// setupSeconds, at most maxSetupRuns times, and reports the median; a
// cheap set-up is repeated more so its median is as steady as a costly
// one's.
const (
	setupRuns    = 3
	setupSeconds = 4
	maxSetupRuns = 9
)

// runTimeout bounds one run.
const runTimeout = 170 * time.Second

// outDir is where runs leave build output, scratch data and span files,
// relative to the directory the benchmark runs in.
const outDir = ".bench_build"

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	sc       scale
	out      string // outDir, or a test's temporary directory
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", defaultSeed, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long to keep repeating the timed sweep")
	trace := fs.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	pin := fs.Bool("pin", false, "write the workload's reference at the default seed to perfbench/ref and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, traced: *trace == 1,
		out: outDir}
	found := false
	for _, w := range workloads {
		if w.name == *name {
			cfg.sc, found = w.sc, true
		}
	}
	if !found || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --trace 0|1 and --seconds >= 0\n", workloadNames())
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	if *pin {
		cfg.seed = defaultSeed
		if err := pinReference(ctx, cfg); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	res, err := bench(ctx, cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// newCase builds a run's workload.
func newCase(cfg config, work string) (benchCase, error) {
	switch cfg.workload {
	case "fig5-tradeoff":
		return newTraceCase(cfg.seed, cfg.sc, work)
	case "fig78-timing":
		return newTimingCase(cfg.seed, cfg.sc, work)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// workspace is the state of one run: its scratch directory and workload.
type workspace struct {
	cfg  config
	work string
	c    benchCase
	sets []destset.SweepDataset
}

// open creates the run's scratch directory and workload, and points the
// shared dataset store at nothing until set-up does.
func open(cfg config) (*workspace, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.out, "work-")
	if err != nil {
		return nil, err
	}
	if work, err = filepath.Abs(work); err != nil {
		return nil, err
	}
	s := &workspace{cfg: cfg, work: work}
	if s.c, err = newCase(cfg, work); err != nil {
		s.close()
		return nil, err
	}
	if s.sets, err = s.c.datasets(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// close removes the scratch directory and detaches the shared stores.
func (s *workspace) close() {
	destset.SetDatasetDir("")
	destset.PurgeDatasets()
	os.RemoveAll(s.work)
}

// setup resolves the workload's datasets into an empty dataset directory
// through the program's cold path — generation and spill, fanned over
// the sweep's threads — and returns how long it took.
func (s *workspace) setup(ctx context.Context, i int) (time.Duration, error) {
	dir := filepath.Join(s.work, fmt.Sprintf("datasets-%d", i))
	if err := destset.SetDatasetDir(dir); err != nil {
		return 0, err
	}
	destset.PurgeDatasets()
	before := destset.DatasetCacheStats().Generations
	t0 := time.Now()
	err := sweep.ForEach(ctx, len(s.sets), parallelism(), func(j int) error { return s.sets[j].Prewarm() })
	dt := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if got := destset.DatasetCacheStats().Generations - before; got != uint64(len(s.sets)) {
		return 0, fmt.Errorf("set-up generated %d datasets, want %d", got, len(s.sets))
	}
	return dt, nil
}

// setupAll sets up into fresh directories, keeping the last, at least
// minRuns times and until minSeconds have passed (at most maxSetupRuns
// times), and returns the durations.
func (s *workspace) setupAll(ctx context.Context, minRuns int, minSeconds float64) ([]float64, error) {
	var secs []float64
	t0 := time.Now()
	for i := 0; i < minRuns || (time.Since(t0).Seconds() < minSeconds && i < maxSetupRuns); i++ {
		dt, err := s.setup(ctx, i)
		if err != nil {
			return nil, err
		}
		secs = append(secs, dt.Seconds())
		if i > 0 {
			os.RemoveAll(filepath.Join(s.work, fmt.Sprintf("datasets-%d", i-1)))
		}
	}
	return secs, nil
}

// reference returns the cells the sweep must produce: pinned for the
// default seed, computed by single-threaded shard runs otherwise.
func (s *workspace) reference(ctx context.Context) ([]cell, error) {
	if s.cfg.seed == defaultSeed {
		return loadPinned(s.cfg.workload, s.cfg.sc)
	}
	return s.c.reference(ctx)
}

// measured is one timed sweep with its check.
type measured struct {
	o       outcome
	cells   int       // records checked
	rssMB   []float64 // peak RSS of each rssWindow
	failed  int
	diffs   []string
	cacheSt destset.DatasetStats // dataset store counters over the sweep
}

// timedSweep runs one sweep from a purged dataset memory tier, so every
// dataset loads from disk as in a fresh process, and checks it.
func (s *workspace) timedSweep(ctx context.Context, ref []cell, tr *tracer, parent int64) (measured, error) {
	destset.PurgeDatasets()
	// Hand the freed heap back to the kernel, so every sweep's RSS
	// starts from the same place rather than from what the last one left.
	debug.FreeOSMemory()
	// Write back what earlier sweeps and set-ups left dirty, so their
	// disk traffic does not land inside this sweep.
	syscall.Sync()
	rss := startRSSSampler()
	before := destset.DatasetCacheStats()
	o, err := s.c.sweep(ctx, tr, parent)
	windows := rss.finish()
	if err != nil {
		return measured{}, err
	}
	after := destset.DatasetCacheStats()
	if after.Generations != before.Generations {
		return measured{}, fmt.Errorf("sweep generated %d datasets; every one should load from the set-up's disk tier",
			after.Generations-before.Generations)
	}
	m := measured{o: o, cells: len(o.cells), rssMB: windows}
	m.cacheSt.MemHits, m.cacheSt.MemMisses = after.MemHits-before.MemHits, after.MemMisses-before.MemMisses
	m.failed, m.diffs = compare(ref, o.cells)
	return m, nil
}

// bench runs one workload and returns its result line; human-readable
// lines go to w first.
func bench(ctx context.Context, cfg config, w io.Writer) (*result, error) {
	s, err := open(cfg)
	if err != nil {
		return nil, err
	}
	defer s.close()
	runs, secs := setupRuns, float64(setupSeconds)
	if cfg.traced {
		runs, secs = 1, 0
	}
	setup, err := s.setupAll(ctx, runs, secs)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ref, err := s.reference(ctx)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if cfg.traced {
		return s.tracedRun(ctx, ref, w)
	}

	var (
		reps  []measured
		model map[string]float64
	)
	t0 := time.Now()
	for len(reps) == 0 || time.Since(t0).Seconds() < cfg.seconds {
		m, err := s.timedSweep(ctx, ref, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		if model == nil {
			if model, err = s.c.model(m.o); err != nil {
				return nil, fmt.Errorf("model metrics: %w", err)
			}
		}
		// Keep only the figures: records held across sweeps would grow
		// the live heap, and with it the GC's pacing, sweep by sweep.
		m.o = outcome{misses: m.o.misses, elapsed: m.o.elapsed, alloc: m.o.alloc}
		reps = append(reps, m)
	}
	res := &result{Metrics: make(map[string]metric)}
	var sweepS, perSec, allocPer, rss []float64
	for _, m := range reps {
		res.Attempted += m.cells
		res.Failed += m.failed
		for _, d := range m.diffs {
			fmt.Fprintf(w, "mismatch: %s\n", d)
		}
		fmt.Fprintf(w, "sweep %.4f s, %d misses, %d B allocated, RSS mean %.1f MB, peak %.1f MB\n",
			m.o.elapsed.Seconds(), m.o.misses, m.o.alloc, mean(m.rssMB), quantile(m.rssMB, 1))
		sweepS = append(sweepS, m.o.elapsed.Seconds())
		perSec = append(perSec, float64(m.o.misses)/m.o.elapsed.Seconds())
		allocPer = append(allocPer, float64(m.o.alloc)/float64(m.o.misses))
		rss = append(rss, m.rssMB...)
	}
	res.Correct = res.Failed == 0
	values := map[string]float64{
		"setup_s":              quantile(setup, 0.5),
		"sweep_s":              quantile(sweepS, 0.5),
		"misses_per_s":         quantile(perSec, 0.5),
		"alloc_bytes_per_miss": quantile(allocPer, 0.5),
		"mean_rss_mb":          mean(rss),
		"cells_failed_frac":    float64(res.Failed) / float64(res.Attempted),
	}
	for k, v := range model {
		values[k] = v
	}
	fmt.Fprintf(w, "workload %s seed %d: %d timed sweeps, %d records each, %d set-ups\n",
		cfg.workload, cfg.seed, len(reps), reps[0].cells, len(setup))
	printValues(w, values)
	for _, m := range endToEnd {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// tracedRun measures the sweep untraced and traced, then probes each
// layer, and returns the per-layer metrics.
func (s *workspace) tracedRun(ctx context.Context, ref []cell, w io.Writer) (*result, error) {
	// The traced sweep runs between two untraced ones; the overhead is
	// its time minus their mean.
	before, err := s.timedSweep(ctx, ref, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	tr := newTracer()
	id, end := tr.begin(0, "sweep.run", "", 1)
	traced, err := s.timedSweep(ctx, ref, tr, id)
	end()
	if err != nil {
		return nil, fmt.Errorf("traced sweep: %w", err)
	}
	after, err := s.timedSweep(ctx, ref, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	sets, err := s.loadDatasets(tr)
	if err != nil {
		return nil, err
	}
	pid, end := tr.begin(0, "probe.run", "", 1)
	err = s.c.probe(ctx, tr, pid, sets, traced.o)
	end()
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	spans := filepath.Join(s.cfg.out, "spans", fmt.Sprintf("%s-seed%d.jsonl", s.cfg.workload, s.cfg.seed))
	if err := tr.writeJSONL(spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(w, "spans: %s\n", spans)

	res := &result{Metrics: make(map[string]metric)}
	for _, m := range []measured{before, traced, after} {
		res.Attempted += m.cells
		res.Failed += m.failed
		for _, d := range m.diffs {
			fmt.Fprintf(w, "mismatch: %s\n", d)
		}
	}
	res.Correct = res.Failed == 0
	values := layerValues(tr, traced)
	values["trace.sweep_s"] = traced.o.elapsed.Seconds()
	values["trace.overhead_s"] = traced.o.elapsed.Seconds() - (before.o.elapsed.Seconds()+after.o.elapsed.Seconds())/2
	printValues(w, values)
	for _, m := range perLayer {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// loadDatasets resolves the workload's datasets from the shared store
// for the layer probes.
func (s *workspace) loadDatasets(tr *tracer) ([]*dataset.Dataset, error) {
	out := make([]*dataset.Dataset, len(s.sets))
	for i, sd := range s.sets {
		p, err := workload.Preset(sd.Workload.Name, sd.Seed)
		if err != nil {
			return nil, err
		}
		_, end := tr.begin(0, "dataset.get", "", 1)
		out[i], err = dataset.GetShared(p, sd.Warm, sd.Measure)
		end()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// pinReference computes the default seed's reference single-threaded and
// writes it under perfbench/ref.
func pinReference(ctx context.Context, cfg config) error {
	s, err := open(cfg)
	if err != nil {
		return err
	}
	defer s.close()
	if _, err := s.setupAll(ctx, 1, 0); err != nil {
		return err
	}
	ref, err := s.c.reference(ctx)
	if err != nil {
		return err
	}
	return writePinned("perfbench", cfg.workload, cfg.sc, ref)
}

// printValues writes every measured value, sorted by name.
func printValues(w io.Writer, values map[string]float64) {
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-40s %.6g %s\n", k, values[k], unitOf(k))
	}
}
