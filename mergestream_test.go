package destset_test

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"destset"
)

// streamPlan builds the plan the stream-merge tests share.
func streamPlan(t *testing.T, engines []destset.EngineSpec, workloads []destset.WorkloadSpec, opts ...destset.RunnerOption) *destset.SweepPlan {
	t.Helper()
	plan, err := destset.NewRunner(engines, workloads, opts...).Plan()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestMergeStreamsMatchesMergeObservations is the external-merge
// equivalence pin: round-robin shard files are plan-ordered streams, so
// MergeStreams over them must produce byte-identical output to
// MergeObservations — and so to the unsharded parallelism-1 run.
func TestMergeStreamsMatchesMergeObservations(t *testing.T) {
	engines := []destset.EngineSpec{
		{Protocol: destset.ProtocolSnooping},
		{Protocol: destset.ProtocolDirectory},
		destset.SpecForPolicy(destset.Owner),
	}
	workloads := []destset.WorkloadSpec{
		{Name: "oltp", Warm: 300, Measure: 300},
		{Name: "ocean", Warm: 300, Measure: 300},
	}
	seeds := destset.WithSeeds(3, 4)

	full := shardJSONL(t, engines, workloads, 0, 1, seeds, destset.WithParallelism(1))
	s0 := shardJSONL(t, engines, workloads, 0, 3, seeds)
	s1 := shardJSONL(t, engines, workloads, 1, 3, seeds)
	s2 := shardJSONL(t, engines, workloads, 2, 3, seeds)
	plan := streamPlan(t, engines, workloads, seeds)

	var inMemory bytes.Buffer
	if err := destset.MergeObservations(&inMemory,
		bytes.NewReader(s0.Bytes()), bytes.NewReader(s1.Bytes()), bytes.NewReader(s2.Bytes())); err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	if err := plan.MergeStreams(&streamed,
		bytes.NewReader(s0.Bytes()), bytes.NewReader(s1.Bytes()), bytes.NewReader(s2.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed.Bytes(), inMemory.Bytes()) {
		t.Errorf("MergeStreams output differs from MergeObservations:\n%s\nvs\n%s", streamed.Bytes(), inMemory.Bytes())
	}
	if !bytes.Equal(streamed.Bytes(), full.Bytes()) {
		t.Error("MergeStreams output differs from the unsharded parallelism-1 stream")
	}

	// A single concatenated plan-ordered stream merges identically — the
	// degenerate 1-way merge the coordinator uses for huge range counts.
	var one bytes.Buffer
	if err := plan.MergeStreams(&one, io.MultiReader(
		bytes.NewReader(full.Bytes()))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), full.Bytes()) {
		t.Error("1-way MergeStreams is not the identity")
	}
}

// TestMergeStreamsRefusals pins the streaming validation: out-of-order
// streams, cells spanning two streams, holes, and foreign records are
// errors, never silent mixes.
func TestMergeStreamsRefusals(t *testing.T) {
	engines := []destset.EngineSpec{{Protocol: destset.ProtocolSnooping}, {Protocol: destset.ProtocolDirectory}}
	workloads := []destset.WorkloadSpec{{Name: "oltp", Warm: 200, Measure: 200}}
	full := shardJSONL(t, engines, workloads, 0, 1, destset.WithParallelism(1))
	plan := streamPlan(t, engines, workloads)

	// Split the full stream's records (manifest line dropped) per line.
	lines := strings.Split(strings.TrimSpace(full.String()), "\n")[1:]
	if len(lines) != plan.Len() {
		t.Fatalf("test sweep has %d records, want one per cell (%d)", len(lines), plan.Len())
	}

	var out bytes.Buffer
	check := func(name, wantSub string, parts ...string) {
		t.Helper()
		readers := make([]io.Reader, len(parts))
		for i, p := range parts {
			readers[i] = strings.NewReader(p)
		}
		out.Reset()
		err := plan.MergeStreams(&out, readers...)
		if err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: err = %v, want %q", name, err, wantSub)
		}
	}

	check("no streams", "no streams")
	check("out-of-order stream", "not in plan order", lines[0]+"\n"+lines[1]+"\n"+lines[0]+"\n")
	check("duplicate cell across streams", "span streams", lines[0]+"\n"+lines[1]+"\n", lines[0]+"\n")
	check("hole", "no records", lines[1]+"\n")
	check("trailing hole", "no records", lines[0]+"\n")
	check("foreign record", "not in the plan",
		lines[0]+"\n{\"Engine\":\"snooping\",\"Workload\":\"zzz\",\"Seed\":9}\n")
	check("garbage line", "invalid character", "{not json}\n")
}

// FuzzMergeStreams feeds arbitrary bytes as one to three input streams
// against a small plan. The merge must never panic, and any output it
// accepts must be the plan's merged manifest followed by records that
// cover every plan cell in plan order.
func FuzzMergeStreams(f *testing.F) {
	engines := []destset.EngineSpec{{Protocol: destset.ProtocolSnooping}, {Protocol: destset.ProtocolDirectory}}
	workloads := []destset.WorkloadSpec{{Name: "oltp", Warm: 200, Measure: 200}}
	plan, err := destset.NewRunner(engines, workloads).Plan()
	if err != nil {
		f.Fatal(err)
	}
	cellOf, err := plan.Attribution()
	if err != nil {
		f.Fatal(err)
	}
	manifest, err := json.Marshal(plan.Manifest(0, 1))
	if err != nil {
		f.Fatal(err)
	}

	// Seed corpus: the refusal cases of TestMergeStreamsRefusals and
	// TestMergeObservationsRefusals, plus the accepted splits.
	full := shardJSONL(f, engines, workloads, 0, 1).String()
	s0 := shardJSONL(f, engines, workloads, 0, 2).String()
	s1 := shardJSONL(f, engines, workloads, 1, 2).String()
	other := shardJSONL(f, engines, []destset.WorkloadSpec{{Name: "oltp", Warm: 100, Measure: 100}}, 1, 2).String()
	finer := shardJSONL(f, engines, workloads, 1, 2, destset.WithInterval(50)).String()
	lines := strings.Split(strings.TrimSpace(full), "\n")[1:]
	head := strings.SplitN(s0, "\n", 2)[0] + "\n"
	foreign := "{\"Engine\":\"snooping\",\"Workload\":\"zzz\",\"Seed\":1}\n"
	for _, in := range [][3]string{
		{full},
		{s0, s1},
		{s1, s0},
		{lines[0] + "\n" + lines[1] + "\n" + lines[0] + "\n"},
		{lines[0] + "\n" + lines[1] + "\n", lines[0] + "\n"},
		{lines[1] + "\n"},
		{lines[0] + "\n"},
		{lines[0] + "\n{\"Engine\":\"snooping\",\"Workload\":\"zzz\",\"Seed\":9}\n"},
		{"{not json}\n"},
		{s0, other},
		{s0, s0},
		{foreign},
		{head + foreign, s1},
		{head, s1},
		{s0, finer},
		{s0, s1, "\n\r\n"},
	} {
		n := 0
		for n < 3 && (n == 0 || in[n] != "") {
			n++
		}
		f.Add([]byte(in[0]), []byte(in[1]), []byte(in[2]), uint8(n-1))
	}

	f.Fuzz(func(t *testing.T, a, b, c []byte, n uint8) {
		streams := [][]byte{a, b, c}[:1+int(n)%3]
		readers := make([]io.Reader, len(streams))
		for i, s := range streams {
			readers[i] = bytes.NewReader(s)
		}
		var out bytes.Buffer
		if plan.MergeStreams(&out, readers...) != nil {
			return
		}
		got := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
		if got[0] != string(manifest) {
			t.Fatalf("accepted output starts with %q, want the merged manifest", got[0])
		}
		next := 0 // the lowest cell the next record may name
		for _, line := range got[1:] {
			ci, err := cellOf([]byte(line))
			if err != nil {
				t.Fatalf("accepted output carries unattributable record %q: %v", line, err)
			}
			if ci < next-1 || ci > next {
				t.Fatalf("accepted output names cell %d after cell %d: not plan order", ci, next-1)
			}
			next = ci + 1
		}
		if next != plan.Len() {
			t.Fatalf("accepted output covers cells up to %d of %d", next, plan.Len())
		}
	})
}
