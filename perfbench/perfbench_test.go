package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"destset"
)

// Small-scale self-test of the benchmark: every metric BENCHMARK.json
// names is emitted for every workload with its unit, a corrupted record
// is counted as a failed cell, and the seed reaches generation.

// tiny shrinks each workload so the whole suite runs in well under a
// minute. A seed other than defaultSeed makes every run compute its
// reference, since the pinned references are for the full scale.
var tiny = map[string]scale{
	"fig5-tradeoff": {seeds: 2, warm: 2_000, measure: 2_000},
	"fig78-timing":  {seeds: 1, warm: 1_000, measure: 1_000},
}

const testSeed = 7

func tinyConfig(t *testing.T, workload string, seed uint64, traced bool) config {
	return config{workload: workload, seed: seed, seconds: 0, traced: traced, sc: tiny[workload], out: t.TempDir()}
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, code runs %s", got, want)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], code %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], code %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestEveryMetricEmitted(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := bench(context.Background(), tinyConfig(t, w, testSeed, traced), &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, name, m, unit)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w, name)
				}
			}
		}
	}
}

// runOnce sets up a tiny workload and returns one checked sweep and its
// reference.
func runOnce(t *testing.T, workload string, seed uint64) (outcome, []cell) {
	t.Helper()
	s, err := open(tinyConfig(t, workload, seed, false))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.close)
	ctx := context.Background()
	if _, err := s.setupAll(ctx, 1, 0); err != nil {
		t.Fatal(err)
	}
	ref, err := s.reference(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.timedSweep(ctx, ref, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.failed != 0 {
		t.Fatalf("%s: uncorrupted sweep failed %d cells: %v", workload, m.failed, m.diffs)
	}
	return m.o, ref
}

func TestCorruptedRecordCounts(t *testing.T) {
	o, ref := runOnce(t, "fig5-tradeoff", testSeed)
	// The records a coordinator would merge for this sweep.
	obs := make([]destset.Observation, len(o.trace))
	for i, r := range o.trace {
		obs[i] = destset.Observation{Engine: r.Engine, Workload: r.Workload, Seed: r.Seed, Totals: r.Totals, Cumulative: r.Totals}
	}
	if err := checkTotals(obs, o.trace); err != nil {
		t.Fatal(err)
	}
	o.trace[3].Totals.Misses++
	cells, err := traceCells(o.trace)
	if err != nil {
		t.Fatal(err)
	}
	if failed, _ := compare(ref, cells); failed != 1 {
		t.Errorf("trace sweep with one corrupted record: %d failed cells, want 1", failed)
	}
	if failed, _ := compare(ref, cells[:len(cells)-1]); failed == 0 {
		t.Error("trace sweep missing a record passed the check")
	}
	if err := checkTotals(obs, o.trace); err == nil {
		t.Error("merged records with one corrupted total passed the check")
	}

	o, ref = runOnce(t, "fig78-timing", testSeed)
	o.timing[2].Result.RuntimeNs++
	if cells, err = timingCells(o.timing); err != nil {
		t.Fatal(err)
	}
	if failed, _ := compare(ref, cells); failed != 1 {
		t.Errorf("timing sweep with one corrupted record: %d failed cells, want 1", failed)
	}
}

func TestSeedReachesGeneration(t *testing.T) {
	keys := func(seed uint64) map[string]bool {
		c, err := newCase(tinyConfig(t, "fig78-timing", seed, false), t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		sets, err := c.datasets()
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, sd := range sets {
			k, err := sd.ContentKey()
			if err != nil {
				t.Fatal(err)
			}
			out[k] = true
		}
		return out
	}
	a, b := keys(testSeed), keys(testSeed+1)
	for k := range a {
		if b[k] {
			t.Errorf("seeds %d and %d share dataset %s", testSeed, testSeed+1, k)
		}
	}
	_, refA := runOnce(t, "fig5-tradeoff", testSeed)
	_, refB := runOnce(t, "fig5-tradeoff", testSeed+1)
	same := 0
	for i := range refA {
		if refA[i].digest == refB[i].digest {
			same++
		}
	}
	if same == len(refA) {
		t.Error("two seeds produced identical sweep output")
	}
}
