package main

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"time"
)

// metricDef names a metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0). Times are host
// time; model.* metrics are simulated and repeat exactly for one seed.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"misses_per_s", "1/s"},
	{"alloc_bytes_per_miss", "B"},
	{"mean_rss_mb", "MB"},
	{"model.dir_indirect_err_pts", "pts"},
	{"model.group_indirect_pct", "%"},
	{"model.group_traffic_vs_snoop", "ratio"},
}

// layerNames are the layers the traced run reports, by package.
var layerNames = []string{
	"workload", "coherence", "dataset", "predictor", "protocol", "cache", "sim",
	"event", "interconnect", "sweep", "jsonl", "mergestream", "results", "distrib",
}

// perLayer are the metrics of a traced run (--trace 1). A layer the
// workload's sweep does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"workload.next_ns_per_miss", "ns"},
		{"coherence.apply_ns_per_miss", "ns"},
		{"coherence.apply_alloc_b_per_miss", "B"},
		{"dataset.generate_ns_per_miss", "ns"},
		{"dataset.spill_mb_per_s", "MB/s"},
		{"dataset.load_ms", "ms"},
		{"dataset.replay_ns_per_miss", "ns"},
		{"dataset.store_hit_ratio", "ratio"},
	}
	for _, p := range policies {
		defs = append(defs, metricDef{"predictor.predict_ns." + p.suffix, "ns"}, metricDef{"predictor.train_ns." + p.suffix, "ns"})
	}
	for _, e := range engineSuffixes() {
		defs = append(defs, metricDef{"protocol.process_ns_per_miss." + e, "ns"})
	}
	defs = append(defs,
		metricDef{"cache.new_us", "us"},
		metricDef{"cache.new_alloc_kb", "kB"},
		metricDef{"sim.cell_ms_p50.simple", "ms"},
		metricDef{"sim.cell_ms_p90.simple", "ms"},
		metricDef{"sim.cell_ms_p50.detailed", "ms"},
		metricDef{"sim.cell_ms_p90.detailed", "ms"},
		metricDef{"sim.alloc_mb_per_cell", "MB"},
		metricDef{"sim.ns_per_timed_miss", "ns"},
		metricDef{"event.at_step_ns", "ns"},
		metricDef{"interconnect.send_ns", "ns"},
		metricDef{"sweep.cell_ms_p50", "ms"},
		metricDef{"sweep.cell_ms_p90", "ms"},
		metricDef{"jsonl.observe_ns_per_record", "ns"},
		metricDef{"mergestream.ns_per_record", "ns"},
		metricDef{"results.lookup_us", "us"},
		metricDef{"results.store_us", "us"},
		metricDef{"results.hit_ratio", "ratio"},
		metricDef{"distrib.lease_rtt_us_p50", "us"},
		metricDef{"distrib.lease_rtt_us_p90", "us"},
		metricDef{"distrib.complete_rtt_us_p50", "us"},
		metricDef{"distrib.complete_rtt_us_p90", "us"},
		metricDef{"distrib.write_merged_ms", "ms"},
		metricDef{"distrib.lease_grant_ratio", "ratio"},
		metricDef{"distrib.fetch_us_per_mb", "us"},
	)
	for _, l := range layerNames {
		defs = append(defs, metricDef{l + ".self_ms", "ms"}, metricDef{l + ".calls", "count"})
	}
	return append(defs, metricDef{"trace.sweep_s", "s"}, metricDef{"trace.overhead_s", "s"})
}()

// engineSuffixes are the Figure 5 engines, by metric suffix.
func engineSuffixes() []string {
	out := []string{"snooping", "directory"}
	for _, p := range policies {
		out = append(out, p.suffix)
	}
	return out
}

// unitOf returns a metric's unit for the human-readable listing.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.name == name {
				return m.unit
			}
		}
	}
	switch name {
	case "cells_failed_frac", "model.group_runtime_vs_dir":
		return "ratio"
	case "model.group_req_msgs_per_miss":
		return "msgs"
	}
	return ""
}

// layerValues derives the per-layer metrics from the traced run's spans
// and counts. Each per-call figure is a span duration divided by the
// calls the span covers, which <layer>.calls reports.
func layerValues(tr *tracer, traced measured) map[string]float64 {
	v := make(map[string]float64)
	lt := tr.layers()
	for _, l := range layerNames {
		v[l+".self_ms"] = float64(lt[l].selfNs) / 1e6
		v[l+".calls"] = float64(lt[l].calls)
	}
	perCall := func(name, attr string) float64 {
		var ns, n int64
		for _, s := range tr.named(name, attr) {
			ns += s.End - s.Start
			n += s.N
		}
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	durations := func(name, attr string, unit float64) []float64 {
		var out []float64
		for _, s := range tr.named(name, attr) {
			out = append(out, float64(s.End-s.Start)/unit)
		}
		return out
	}
	total := func(name string) float64 {
		var ns int64
		for _, s := range tr.named(name, "*") {
			ns += s.End - s.Start
		}
		return float64(ns)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	v["workload.next_ns_per_miss"] = perCall("workload.next", "")
	v["coherence.apply_ns_per_miss"] = perCall("coherence.apply", "")
	v["coherence.apply_alloc_b_per_miss"] = tr.count("coherence.apply_alloc_b")
	v["dataset.generate_ns_per_miss"] = ratio(total("dataset.generate"), tr.count("dataset.generate_misses"))
	v["dataset.spill_mb_per_s"] = ratio(tr.count("dataset.spill_bytes")/1e6, total("dataset.spill")/1e9)
	v["dataset.load_ms"] = perCall("dataset.load", "") / 1e6
	v["dataset.replay_ns_per_miss"] = perCall("dataset.replay", "")
	st := traced.cacheSt
	v["dataset.store_hit_ratio"] = ratio(float64(st.MemHits), float64(st.MemHits+st.MemMisses))
	for _, p := range policies {
		v["predictor.predict_ns."+p.suffix] = perCall("predictor.predict", p.suffix)
		v["predictor.train_ns."+p.suffix] = perCall("predictor.train", p.suffix)
	}
	for _, e := range engineSuffixes() {
		v["protocol.process_ns_per_miss."+e] = perCall("protocol.process", e)
	}
	v["cache.new_us"] = perCall("cache.new", "") / 1e3
	v["cache.new_alloc_kb"] = tr.count("cache.new_alloc_b") / 1024
	for _, cpu := range []string{"simple", "detailed"} {
		ms := durations("sim.simulate", cpu, 1e6)
		v["sim.cell_ms_p50."+cpu] = quantile(ms, 0.5)
		v["sim.cell_ms_p90."+cpu] = quantile(ms, 0.9)
	}
	v["sim.alloc_mb_per_cell"] = ratio(float64(traced.o.alloc)/1e6, float64(len(tr.named("sim.simulate", "*"))))
	v["sim.ns_per_timed_miss"] = ratio(total("sim.simulate"), tr.count("sim.timed_misses"))
	v["event.at_step_ns"] = perCall("event.at_step", "")
	v["interconnect.send_ns"] = perCall("interconnect.send", "")
	cellMs := durations("sweep.cell", "*", 1e6)
	v["sweep.cell_ms_p50"] = quantile(cellMs, 0.5)
	v["sweep.cell_ms_p90"] = quantile(cellMs, 0.9)
	v["jsonl.observe_ns_per_record"] = perCall("jsonl.observe", "")
	v["mergestream.ns_per_record"] = perCall("mergestream.merge", "")
	v["results.lookup_us"] = perCall("results.lookup", "") / 1e3
	v["results.store_us"] = perCall("results.store", "") / 1e3
	v["results.hit_ratio"] = tr.count("results.hit_ratio")
	lease := durations("distrib.lease", "", 1e3)
	complete := durations("distrib.complete", "", 1e3)
	v["distrib.lease_rtt_us_p50"] = quantile(lease, 0.5)
	v["distrib.lease_rtt_us_p90"] = quantile(lease, 0.9)
	v["distrib.complete_rtt_us_p50"] = quantile(complete, 0.5)
	v["distrib.complete_rtt_us_p90"] = quantile(complete, 0.9)
	v["distrib.write_merged_ms"] = total("distrib.write_merged") / 1e6
	v["distrib.lease_grant_ratio"] = ratio(float64(len(complete)), float64(len(lease)))
	v["distrib.fetch_us_per_mb"] = ratio(total("distrib.fetch")/1e3, tr.count("distrib.fetch_bytes")/1e6)
	return v
}

// resetPeakRSS resets the kernel's peak resident set size record for this
// process, so the next reading covers what follows. It does nothing where
// the kernel offers no reset.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	f.WriteString("5")
	f.Close()
}

// peakRSSMB returns the process's peak resident set size in MB (VmHWM),
// or 0 where the kernel does not report it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// rssWindow is the length of the windows rssSampler cuts a sweep into.
const rssWindow = 100 * time.Millisecond

// rssSampler records the process's peak resident set size in each
// rssWindow of a sweep; their mean is the sweep's resident memory over
// time. A sweep's overall peak is not reported as a metric: it hangs on
// whether a garbage collection started while the seed's two heaviest
// cells overlapped, so it spreads over runs far more than the mean
// (perfbench/README.md has the figures).
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // MB, one per window
}

// startRSSSampler resets the kernel's peak-RSS record and starts the
// first window.
func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	resetPeakRSS()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssWindow)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.peaks = append(s.peaks, peakRSSMB())
				resetPeakRSS()
			case <-s.stop:
				s.peaks = append(s.peaks, peakRSSMB())
				return
			}
		}
	}()
	return s
}

// finish ends the last window, waits for the sampler to stop, and returns
// the window peaks.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	<-s.done
	return s.peaks
}
