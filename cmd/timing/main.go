// Command timing runs the paper's §5 execution-driven evaluation:
// Figure 7 (simple processor model, all workloads) and Figure 8
// (detailed processor model, Apache/OLTP/SPECjbb).
//
// Usage:
//
//	timing [-warm N] [-misses N] [-seed S] [-workloads a,b] [-parallel N]
//	       [-protocols snooping,multicast+group] [-cpu simple|detailed]
//	       [-fig7] [-fig8] [-sweep] [-runs N] [-json]
//	       [-shard i/n] [-dataset-dir path] [-result-dir path]
//	       [-dataset file.dset ...]
//
// Every simulation rides the SimSpec/TimingRunner sweep: the
// per-protocol cells of each figure run concurrently over the worker
// pool (-parallel caps it), -protocols restricts the six Figure 7/8
// configurations by spec label, and -cpu restricts the processor model
// (simple selects Figure 7, detailed Figure 8).
//
// -json switches the output from formatted tables to JSON Lines on
// stdout, streamed through the observer sink in plan order: one
// TimingObservation per simulated (protocol, workload, seed) cell,
// decodable with destset.ReadTimingObservations, byte-identical at any
// -parallel. When exactly one figure is selected the stream opens with
// a shard-manifest record naming the sweep plan. Ctrl-C cancels the
// sweep promptly; completed cells are already on stdout.
//
// -shard i/n runs only shard i of n of the figure's cell index space,
// so independent processes can split one sweep: give each the same
// flags plus its own -shard, collect the JSONL outputs, and reassemble
// the full run with cmd/sweepmerge. -shard requires -json and exactly
// one of -fig7/-fig8 (the sharded stream is raw cells; panel tables
// need every cell).
//
// -dataset-dir points the shared dataset store at a persistent on-disk
// cache: generated traces (with their coherence annotations) spill
// there and cold processes — each shard of a sweep, say — load them
// back zero-copy instead of regenerating.
//
// -result-dir is the output-side mirror of -dataset-dir: completed
// sweep cells spill to a content-addressed result store and reruns
// serve them from it, computing only cells whose specs changed — the
// JSONL output stays byte-identical to a cold run. A summary line on
// stderr reports how many cells were served vs computed.
//
// -dataset (repeatable) adds a pre-built dataset file — typically
// tracegen -import output — to the selected figure's sweep as an extra
// workload; it requires -dataset-dir, where the file is installed under
// its content address for every cell, shard and worker to resolve.
//
// With no selection flags, both figures are printed.
package main

import (
	"context"
	"errors"
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
		warm      = flag.Int("warm", 100_000, "warmup misses per workload")
		misses    = flag.Int("misses", 100_000, "timed misses per workload")
		seed      = flag.Uint64("seed", 1, "workload generation seed")
		workloads = flag.String("workloads", "", "comma-separated workload subset")
		protocols = flag.String("protocols", "", "comma-separated protocol subset (spec labels: snooping, directory, multicast+group, ...)")
		cpu       = flag.String("cpu", "", "processor model subset: simple (Figure 7) or detailed (Figure 8)")
		parallel  = flag.Int("parallel", 0, "max concurrent simulations (0 = all CPUs)")
		fig7      = flag.Bool("fig7", false, "print Figure 7 only")
		fig8      = flag.Bool("fig8", false, "print Figure 8 only")
		sweepFlag = flag.Bool("sweep", false, "print the link-bandwidth sweep (extension)")
		runs      = flag.Int("runs", 0, "average over N perturbed runs (the paper's §5.2 variability methodology)")
		jsonOut   = flag.Bool("json", false, "emit per-cell timing observations as JSON Lines instead of tables")
		shardFlag = flag.String("shard", "", "run only shard i/n of the selected figure's sweep (requires -json and exactly one of -fig7/-fig8)")
		dataDir   = flag.String("dataset-dir", "", "persistent on-disk dataset cache shared across processes")
		resultDir = flag.String("result-dir", "", "persistent on-disk result cache: completed cells are served from it, only misses compute")
	)
	var extraDatasets repeatedFlag
	flag.Var(&extraDatasets, "dataset", "pre-built dataset file (e.g. tracegen -import output) simulated as an extra workload; repeatable, requires -dataset-dir")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opt := experiments.DefaultOptions()
	opt.Seed = *seed
	opt.TimedWarmMisses = *warm
	opt.TimedMisses = *misses
	opt.Parallelism = *parallel
	if *workloads != "" {
		opt.Workloads = strings.Split(*workloads, ",")
	}
	if *protocols != "" {
		opt.Protocols = strings.Split(*protocols, ",")
	}

	var sink *destset.JSONLObserver
	if *jsonOut {
		sink = destset.NewJSONLObserver(os.Stdout)
		opt.TimingObserver = sink.ObserveTiming
		defer sink.Flush()
	}

	fail := func(err error) {
		if sink != nil {
			sink.Flush()
		}
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "timing: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "timing:", err)
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
		fmt.Fprintf(os.Stderr, "timing: result store: %d cells cached (mem %d, disk %d), %d computed\n",
			st.MemHits+st.DiskHits, st.MemHits, st.DiskHits, st.Stores)
	}

	wantFig7, wantFig8 := *fig7, *fig8
	switch *cpu {
	case "":
	case "simple":
		if *fig8 {
			fail(fmt.Errorf("-cpu simple conflicts with -fig8 (the detailed-model figure)"))
		}
		wantFig7, wantFig8 = true, false
	case "detailed":
		if *fig7 {
			fail(fmt.Errorf("-cpu detailed conflicts with -fig7 (the simple-model figure)"))
		}
		wantFig7, wantFig8 = false, true
	default:
		fail(fmt.Errorf("unknown -cpu %q (want simple or detailed)", *cpu))
	}
	all := !wantFig7 && !wantFig8 && !*sweepFlag && *runs == 0 && *cpu == ""

	// The manifest-bearing JSONL sweep path: exactly one figure selected
	// with -json. Sharded runs must take it — a shard holds raw cells,
	// not whole panels — and unsharded -json single-figure runs take it
	// too, so the full-run file carries the same manifest and merges
	// byte-compare against sharded ones.
	if *jsonOut && wantFig7 != wantFig8 && !*sweepFlag && *runs == 0 {
		shard, shards, err := destset.ParseShard(*shardFlag)
		if err != nil {
			fail(err)
		}
		fig := 7
		if wantFig8 {
			fig = 8
		}
		def, err := experiments.FigureDef(opt, fig, *warm, *misses)
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
		fail(fmt.Errorf("-shard requires -json and exactly one of -fig7/-fig8"))
	}

	if all || wantFig7 {
		panels, err := experiments.Figure7(ctx, opt)
		if err != nil {
			fail(err)
		}
		if !*jsonOut {
			fmt.Println(experiments.FormatTiming(
				"Figure 7: simple processor model (runtime normalized to directory, traffic to snooping)",
				panels))
		}
	}
	if all || wantFig8 {
		panels, err := experiments.Figure8(ctx, opt)
		if err != nil {
			fail(err)
		}
		if !*jsonOut {
			fmt.Println(experiments.FormatTiming(
				"Figure 8: detailed processor model", panels))
		}
	}
	if *runs > 0 {
		name := "oltp"
		if len(opt.Workloads) > 0 {
			name = opt.Workloads[0]
		}
		pts, err := experiments.Figure7Variability(ctx, opt, name, *runs)
		if err != nil {
			fail(err)
		}
		if !*jsonOut {
			fmt.Printf("Variability: %s averaged over %d perturbed runs (§5.2 methodology)\n", name, *runs)
			for _, pt := range pts {
				fmt.Printf("  %-40s %12.1f us  ± %8.1f us  (CV %.3f)  %7.1f B/miss\n",
					pt.Config, pt.MeanRuntimeNs/1000, pt.StddevNs/1000, pt.CoeffVar, pt.MeanBPM)
			}
		}
	}
	if all || *sweepFlag {
		pts, err := experiments.BandwidthSweep(ctx, opt, []float64{0.3, 0.6, 1.25, 2.5, 5, 10, 20})
		if err != nil {
			fail(err)
		}
		if !*jsonOut {
			fmt.Println("Extension: link-bandwidth sweep (runtime in us, lower is better)")
			for _, pt := range pts {
				fmt.Printf("  %6.2f B/ns  %-36s %12.1f\n", pt.BytesPerNs, pt.Config, pt.RuntimeNs/1000)
			}
		}
	}
	if sink != nil {
		if err := sink.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, "timing:", err)
			os.Exit(1)
		}
	}
	reportResults()
}
