package destset_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"destset"
	"destset/internal/experiments"
	"destset/internal/results"
)

// Golden digests of the two output formats other processes and later
// runs depend on: the JSONL observation stream (manifest + records) a
// figure sweep writes with -json, and the .rslt result-store record of
// one cell. A warm result directory written by an earlier build keeps
// serving only while the .rslt bytes stay put; shard files, sweepd
// spills and sweepapi bodies merge only while the JSONL bytes stay put.
// A change to either digest is a format change, not a refactor.
const (
	goldenFig5JSONL  = "a8407c45dd2663acb2470bc1794078fd9e772c0051e2f86f9de1e2a35d22449c"
	goldenFig7JSONL  = "fba397b22efd67b94f4c8f078aaf86e89087af62efd4b4da011d966e7631b7b6"
	goldenTraceRslt  = "ea4d85f5c970bd42f1ebc9617e2e251bad856aa39a73ab92cd5e6dbfc90dfa35"
	goldenTimingRslt = "8e5068f849a1092441576305f335845c09e78be771e8d0a26d8c27eb47699b19"
)

// goldenOptions is a small Figure 5/7-shaped sweep: two paper workloads
// at a few thousand misses, so the pinned streams cover every engine and
// timing configuration of the figures in well under a second.
func goldenOptions() experiments.Options {
	opt := experiments.QuickOptions()
	opt.Workloads = []string{"oltp", "ocean"}
	opt.WarmMisses, opt.Misses = 3000, 3000
	opt.TimedWarmMisses, opt.TimedMisses = 2000, 2000
	return opt
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenStream runs def at parallelism 1 into a JSONL file headed by the
// plan's manifest — what cmd/traceeval and cmd/timing write under -json
// — attached to a result store rooted at dir.
func goldenStream(t *testing.T, def destset.SweepDef, dir string) ([]byte, *destset.SweepPlan) {
	t.Helper()
	plan, err := def.Plan()
	if err != nil {
		t.Fatal(err)
	}
	store := destset.NewResultStore()
	if err := store.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := destset.NewJSONLObserver(&buf)
	if err := sink.WriteManifest(plan.Manifest(0, 1)); err != nil {
		t.Fatal(err)
	}
	opts := []destset.RunnerOption{destset.WithParallelism(1), destset.WithResultStore(store)}
	switch def.Kind {
	case destset.PlanKindTrace:
		r, err := def.Runner(append(opts, destset.WithObserver(sink.Observe))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	default:
		r, err := def.TimingRunner(append(opts, destset.WithTimingObserver(sink.ObserveTiming))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), plan
}

// TestGoldenOutputFormats pins the JSONL stream of a Figure 5-shaped
// trace sweep and a Figure 7 timing sweep, and the stored .rslt record
// of one cell of each.
func TestGoldenOutputFormats(t *testing.T) {
	opt := goldenOptions()
	fig5, err := experiments.TradeoffSweepDef(opt)
	if err != nil {
		t.Fatal(err)
	}
	fig7, err := experiments.TimingSweepDef(opt, destset.SimpleCPU)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name       string
		def        destset.SweepDef
		jsonl, rec string
	}{
		{"fig5-trace", fig5, goldenFig5JSONL, goldenTraceRslt},
		{"fig7-timing", fig7, goldenFig7JSONL, goldenTimingRslt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			stream, plan := goldenStream(t, tc.def, dir)
			if got := sha(stream); got != tc.jsonl {
				t.Errorf("JSONL stream sha256 %s, want %s", got, tc.jsonl)
			}
			// The last cell: oltp's or ocean's final spec, seed 1.
			fp := plan.Cell(plan.Len() - 1).Fingerprint
			raw, err := os.ReadFile(results.Path(dir, fp))
			if err != nil {
				t.Fatal(err)
			}
			if got := sha(raw); got != tc.rec {
				t.Errorf(".rslt record sha256 %s, want %s", got, tc.rec)
			}
		})
	}
}
