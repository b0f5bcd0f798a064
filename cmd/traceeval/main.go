// Command traceeval runs the paper's §4 trace-driven predictor
// evaluation: Figure 5 (standout predictors on all workloads) and
// Figure 6 (OLTP sensitivity to indexing and predictor size).
//
// Usage:
//
//	traceeval [-warm N] [-misses N] [-seed S] [-workloads a,b] [-parallel N]
//	          [-fig5] [-fig6a] [-fig6b] [-fig6c] [-json]
//	          [-shard i/n] [-dataset-dir path] [-result-dir path]
//	          [-dataset file.dset ...]
//
// Every figure fans its engine × workload sweep over a worker pool (the
// public destset.Runner); -parallel caps the pool.
//
// -json emits per-cell sweep observations as JSON Lines on stdout
// (decodable with destset.ReadObservations) instead of tables, in plan
// order and byte-identical at any -parallel. With
// -fig5 alone the stream opens with a shard-manifest record naming the
// sweep plan, which is what -shard builds on: -shard i/n runs only
// shard i of n of the Figure 5 cell index space, so independent
// processes split the sweep and cmd/sweepmerge reassembles their JSONL
// outputs into the exact full run. -shard requires -json -fig5.
//
// -dataset-dir points the shared dataset store at a persistent on-disk
// cache: generated traces (with their coherence annotations) spill
// there and cold processes load them back zero-copy instead of
// regenerating.
//
// -result-dir is the output-side mirror of -dataset-dir: completed
// sweep cells spill to a content-addressed result store and reruns
// serve them from it, computing only cells whose specs changed — the
// JSONL output stays byte-identical to a cold run. A summary line on
// stderr reports how many cells were served vs computed.
//
// -dataset (repeatable) adds a pre-built dataset file — typically
// tracegen -import output — to the Figure 5 sweep as an extra workload,
// with its own table panel and its own cells in the -json stream.
// It requires -dataset-dir: the file is installed there under its
// content address, which is how every sweep cell (and every shard or
// distributed worker sharing the directory) resolves it.
//
// With no selection flags, everything is printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"destset"
	"destset/internal/experiments"
)

// repeatedFlag collects every occurrence of a repeatable string flag.
type repeatedFlag []string

func (f *repeatedFlag) String() string     { return strings.Join(*f, ",") }
func (f *repeatedFlag) Set(s string) error { *f = append(*f, s); return nil }

func main() {
	var (
		warm      = flag.Int("warm", 300_000, "warmup misses per workload")
		misses    = flag.Int("misses", 300_000, "measured misses per workload")
		seed      = flag.Uint64("seed", 1, "workload generation seed")
		workloads = flag.String("workloads", "", "comma-separated workload subset for fig5 (default all)")
		parallel  = flag.Int("parallel", 0, "max concurrent sweep cells (0 = all CPUs)")
		fig5      = flag.Bool("fig5", false, "print Figure 5 only")
		fig6a     = flag.Bool("fig6a", false, "print Figure 6(a) only")
		fig6b     = flag.Bool("fig6b", false, "print Figure 6(b) only")
		fig6c     = flag.Bool("fig6c", false, "print Figure 6(c) only")
		hybrids   = flag.Bool("hybrids", false, "print the hybrid-style comparison (extension)")
		oracle    = flag.Bool("oracle", false, "print the oracle prediction limit (extension)")
		ablations = flag.Bool("ablations", false, "print predictor design ablations (extension)")
		jsonOut   = flag.Bool("json", false, "emit per-cell sweep observations as JSON Lines instead of tables")
		shardFlag = flag.String("shard", "", "run only shard i/n of the Figure 5 sweep (requires -json -fig5)")
		dataDir   = flag.String("dataset-dir", "", "persistent on-disk dataset cache shared across processes")
		resultDir = flag.String("result-dir", "", "persistent on-disk result cache: completed cells are served from it, only misses compute")
	)
	var extraDatasets repeatedFlag
	flag.Var(&extraDatasets, "dataset", "pre-built dataset file (e.g. tracegen -import output) swept as an extra workload; repeatable, requires -dataset-dir")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opt := experiments.DefaultOptions()
	opt.Seed = *seed
	opt.WarmMisses = *warm
	opt.Misses = *misses
	opt.Parallelism = *parallel
	if *workloads != "" {
		opt.Workloads = strings.Split(*workloads, ",")
	}
	all := !*fig5 && !*fig6a && !*fig6b && !*fig6c && !*hybrids && !*oracle && !*ablations

	var sink *destset.JSONLObserver
	if *jsonOut {
		sink = destset.NewJSONLObserver(os.Stdout)
		opt.Observer = sink.Observe
		defer sink.Flush()
	}

	fail := func(err error) {
		if sink != nil {
			sink.Flush()
		}
		fmt.Fprintln(os.Stderr, "traceeval:", err)
		os.Exit(1)
	}

	if *dataDir != "" {
		if err := destset.SetDatasetDir(*dataDir); err != nil {
			fail(err)
		}
	}
	if *resultDir != "" {
		if err := destset.SetResultDir(*resultDir); err != nil {
			fail(err)
		}
	}
	if len(extraDatasets) > 0 {
		extra, err := experiments.LoadExtraDatasets(extraDatasets, *dataDir)
		if err != nil {
			fail(err)
		}
		opt.ExtraWorkloads = extra
	}
	// reportResults summarizes the result store's work split on stderr —
	// "0 computed" is the warm-rerun signature CI pins.
	reportResults := func() {
		if *resultDir == "" {
			return
		}
		st := destset.ResultStoreStats()
		fmt.Fprintf(os.Stderr, "traceeval: result store: %d cells cached (mem %d, disk %d), %d computed\n",
			st.MemHits+st.DiskHits, st.MemHits, st.DiskHits, st.Stores)
	}

	// The manifest-bearing JSONL sweep path: -json -fig5 alone. Sharded
	// runs must take it — a shard holds raw cells, not whole panels —
	// and the unsharded -json -fig5 run takes it too, so the full-run
	// file carries the same manifest and merges byte-compare against
	// sharded ones.
	onlyFig5 := *fig5 && !*fig6a && !*fig6b && !*fig6c && !*hybrids && !*oracle && !*ablations
	if *jsonOut && onlyFig5 {
		shard, shards, err := destset.ParseShard(*shardFlag)
		if err != nil {
			fail(err)
		}
		def, err := experiments.FigureDef(opt, 5, *warm, *misses)
		if err != nil {
			fail(err)
		}
		if err := experiments.StreamJSONL(ctx, def, sink, shard, shards, destset.WithParallelism(opt.Parallelism)); err != nil {
			fail(err)
		}
		reportResults()
		return
	}
	if *shardFlag != "" {
		fail(fmt.Errorf("-shard requires -json and -fig5 (alone)"))
	}

	show := func(s string) {
		if !*jsonOut {
			fmt.Println(s)
		}
	}
	if all || *fig5 {
		panels, err := experiments.Figure5(opt)
		if err != nil {
			fail(err)
		}
		show(experiments.FormatTradeoff(
			"Figure 5: standout predictors (8192 entries, 1024B macroblocks)", panels))
	}
	if all || *fig6a {
		pts, err := experiments.Figure6a(opt)
		if err != nil {
			fail(err)
		}
		show(experiments.FormatTradeoffPoints(
			"Figure 6(a): PC vs data-block indexing, unbounded predictors", "oltp", pts))
	}
	if all || *fig6b {
		pts, err := experiments.Figure6b(opt)
		if err != nil {
			fail(err)
		}
		show(experiments.FormatTradeoffPoints(
			"Figure 6(b): macroblock indexing, unbounded predictors", "oltp", pts))
	}
	if all || *fig6c {
		pts, err := experiments.Figure6c(opt)
		if err != nil {
			fail(err)
		}
		show(experiments.FormatTradeoffPoints(
			"Figure 6(c): predictor size and StickySpatial(1) comparison", "oltp", pts))
	}
	if all || *hybrids {
		panels, err := experiments.HybridComparison(opt)
		if err != nil {
			fail(err)
		}
		show(experiments.FormatTradeoff(
			"Extension: multicast snooping vs predictive directory (Acacio-style)", panels))
	}
	if all || *oracle {
		panels, err := experiments.OracleLimit(opt)
		if err != nil {
			fail(err)
		}
		show(experiments.FormatTradeoff(
			"Extension: oracle prediction limit", panels))
	}
	if all || *ablations {
		pts, err := experiments.AblationRollover(opt, []int{4, 16, 32, 128, 1024})
		if err != nil {
			fail(err)
		}
		show(experiments.FormatTradeoffPoints(
			"Ablation: Group rollover (training-down) limit", "oltp", pts))
		pts, err = experiments.AblationAssociativity(opt, []int{1, 2, 4, 8})
		if err != nil {
			fail(err)
		}
		show(experiments.FormatTradeoffPoints(
			"Ablation: predictor table associativity (OwnerGroup, 8192 entries)", "oltp", pts))
		pts, err = experiments.MacroblockSweep(opt, []int{64, 256, 1024, 4096, 16384})
		if err != nil {
			fail(err)
		}
		show(experiments.FormatTradeoffPoints(
			"Ablation: macroblock size sweep (OwnerGroup, unbounded)", "oltp", pts))
	}
	reportResults()
}
