package destset_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"destset"
)

// allPolicySpecs is the paper's full policy set: the eight built-in
// prediction policies, routed the way EvaluatePolicy routes them.
func allPolicySpecs() []destset.EngineSpec {
	policies := []destset.Policy{
		destset.Owner, destset.BroadcastIfShared, destset.Group, destset.OwnerGroup,
		destset.StickySpatial, destset.Minimal, destset.Broadcast, destset.Oracle,
	}
	specs := make([]destset.EngineSpec, len(policies))
	for i, p := range policies {
		specs[i] = destset.SpecForPolicy(p)
	}
	return specs
}

func workloadSpecs(warm, measure int) []destset.WorkloadSpec {
	names := []string{"apache", "barnes-hut", "ocean", "oltp", "slashcode", "specjbb"}
	out := make([]destset.WorkloadSpec, len(names))
	for i, n := range names {
		out[i] = destset.WorkloadSpec{Name: n, Warm: warm, Measure: measure}
	}
	return out
}

// TestRunnerFullSweepDeterministic is the acceptance sweep: all eight
// predictor policies across the six paper workloads through a single
// Run call, byte-identical at parallelism 1 and parallelism 4.
func TestRunnerFullSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full cross-product sweep")
	}
	engines := allPolicySpecs()
	workloads := workloadSpecs(1500, 1500)

	run := func(parallelism int) []byte {
		t.Helper()
		res, err := destset.NewRunner(engines, workloads,
			destset.WithSeeds(1),
			destset.WithParallelism(parallelism),
		).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if want := len(engines) * len(workloads); len(res) != want {
			t.Fatalf("got %d results, want %d", len(res), want)
		}
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	serial := run(1)
	parallel := run(4)
	if !bytes.Equal(serial, parallel) {
		t.Errorf("results differ between parallelism 1 and 4:\n%s\nvs\n%s", serial, parallel)
	}
}

// TestEvaluatePolicyMatchesSeedMethodology re-derives the seed
// implementation's numbers by hand — same generator stream, same
// engine, serial — and requires EvaluatePolicy (now a Runner wrapper)
// to reproduce them exactly.
func TestEvaluatePolicyMatchesSeedMethodology(t *testing.T) {
	const (
		name    = "oltp"
		seed    = 7
		warm    = 10_000
		measure = 10_000
	)
	for _, policy := range []destset.Policy{destset.Owner, destset.Broadcast, destset.Minimal} {
		params, err := destset.NewWorkload(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		g, err := destset.NewGenerator(params)
		if err != nil {
			t.Fatal(err)
		}
		var eng destset.Engine
		switch policy {
		case destset.Broadcast:
			eng = destset.NewSnoopingEngine(params.Nodes)
		case destset.Minimal:
			eng = destset.NewDirectoryEngine()
		default:
			eng = destset.NewMulticastEngine(
				destset.NewPredictorBank(destset.DefaultPredictorConfig(policy, params.Nodes)))
		}
		for i := 0; i < warm; i++ {
			rec, mi := g.Next()
			eng.Process(rec, mi)
		}
		var tot destset.Totals
		for i := 0; i < measure; i++ {
			rec, mi := g.Next()
			tot.Add(eng.Process(rec, mi))
		}
		want := destset.TradeoffResult{
			Config:             eng.Name(),
			RequestMsgsPerMiss: tot.RequestMsgsPerMiss(),
			IndirectionPercent: tot.IndirectionPercent(),
			BytesPerMiss:       tot.BytesPerMiss(),
		}
		got, err := destset.EvaluatePolicy(name, policy, seed, warm, measure)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%v: EvaluatePolicy = %+v, want seed-equivalent %+v", policy, got, want)
		}
	}
}

func TestRunnerCancellationReturnsPartialResults(t *testing.T) {
	engines := allPolicySpecs()
	workloads := workloadSpecs(100_000, 200_000)
	ctx, cancel := context.WithCancel(context.Background())
	type outcome struct {
		res []destset.RunResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := destset.NewRunner(engines, workloads,
			destset.WithParallelism(2)).Run(ctx)
		done <- outcome{res, err}
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case o := <-done:
		if !errors.Is(o.err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", o.err)
		}
		if len(o.res) >= len(engines)*len(workloads) {
			t.Errorf("expected partial results, got all %d", len(o.res))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return promptly after cancellation")
	}
}

func TestRunnerStreamsObservations(t *testing.T) {
	var obs []destset.Observation
	_, err := destset.NewRunner(
		[]destset.EngineSpec{destset.SpecForPolicy(destset.Owner)},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 1000, Measure: 5000}},
		destset.WithInterval(2000),
		destset.WithObserver(func(o destset.Observation) { obs = append(obs, o) }),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 3 {
		t.Fatalf("got %d observations, want 3 (2000+2000+1000)", len(obs))
	}
	var misses uint64
	for _, o := range obs {
		if o.Workload != "oltp" {
			t.Errorf("observation workload %q", o.Workload)
		}
		misses += o.Totals.Misses
	}
	if misses != 5000 {
		t.Errorf("observations cover %d misses, want 5000", misses)
	}
}

// builds returns a NewPredictor factory that ignores its configuration
// and builds policy p at the paper's standout configuration.
func builds(p destset.Policy) destset.PolicyFactory {
	return func(cfg destset.PredictorConfig) destset.Predictor {
		return destset.NewPredictor(destset.DefaultPredictorConfig(p, cfg.Nodes))
	}
}

// TestNewPredictorMatchesBuiltin: a spec-carried factory that builds
// Owner reproduces the built-in Owner spec exactly, through the trace
// Runner and the TimingRunner.
func TestNewPredictorMatchesBuiltin(t *testing.T) {
	ctx := context.Background()
	wl := destset.WorkloadSpec{Name: "oltp", Warm: 3000, Measure: 3000}
	custom := destset.EngineSpec{PolicyName: "owner", NewPredictor: builds(destset.Owner)}
	got, err := destset.NewRunner([]destset.EngineSpec{custom}, []destset.WorkloadSpec{wl}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := destset.NewRunner([]destset.EngineSpec{destset.SpecForPolicy(destset.Owner)},
		[]destset.WorkloadSpec{wl}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != want[0] {
		t.Errorf("NewPredictor Owner diverges from SpecForPolicy(Owner):\n got:  %+v\n want: %+v", got, want)
	}

	simCustom := destset.SimSpec{PolicyName: "owner", NewPredictor: builds(destset.Owner)}
	simWant := destset.SimSpec{Protocol: destset.ProtocolMulticast, Policy: destset.Owner, UsePolicy: true}
	tgot, err := destset.NewTimingRunner([]destset.SimSpec{simCustom}, []destset.WorkloadSpec{wl}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	twant, err := destset.NewTimingRunner([]destset.SimSpec{simWant}, []destset.WorkloadSpec{wl}).Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tgot[0].Sim != "multicast+owner" || tgot[0].Sim != twant[0].Sim {
		t.Errorf("sim labels %q vs %q", tgot[0].Sim, twant[0].Sim)
	}
	if tgot[0].Result != twant[0].Result {
		t.Errorf("NewPredictor Owner timing diverges:\n got:  %+v\n want: %+v", tgot[0].Result, twant[0].Result)
	}
}

// TestNewPredictorSpecErrors: a factory needs a label, and a SweepDef
// refuses factory-carrying specs by label — a function cannot cross a
// process boundary.
func TestNewPredictorSpecErrors(t *testing.T) {
	wl := []destset.WorkloadSpec{{Name: "oltp", Warm: 10, Measure: 10}}
	_, err := destset.NewRunner([]destset.EngineSpec{{NewPredictor: builds(destset.Owner)}}, wl).
		Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "PolicyName") {
		t.Errorf("unlabeled factory: err = %v", err)
	}
	// Any label goes: it need not be a built-in policy name.
	custom := destset.EngineSpec{PolicyName: "my-pairs", NewPredictor: builds(destset.Group)}
	if _, err := destset.NewRunner([]destset.EngineSpec{custom}, wl).Run(context.Background()); err != nil {
		t.Errorf("custom label: %v", err)
	}
	for _, def := range []destset.SweepDef{
		destset.NewTraceSweepDef([]destset.EngineSpec{custom}, wl),
		destset.NewTimingSweepDef([]destset.SimSpec{{PolicyName: "my-pairs", NewPredictor: builds(destset.Group)}}, wl),
	} {
		err := def.Validate()
		if err == nil || !strings.Contains(err.Error(), `"multicast+mypairs"`) ||
			!strings.Contains(err.Error(), "NewPredictor") {
			t.Errorf("%s def with NewPredictor: Validate = %v, want refusal by label", def.Kind, err)
		}
	}
}

// TestNewPredictorBypassesResultStore: two runs sharing one result
// store, with the same PolicyName but different factories, compute
// different results — the store neither serves nor stores such cells,
// since their fingerprint cannot see the factory.
func TestNewPredictorBypassesResultStore(t *testing.T) {
	store := destset.NewResultStore()
	wl := []destset.WorkloadSpec{{Name: "oltp", Warm: 3000, Measure: 3000}}
	run := func(f destset.PolicyFactory) destset.RunResult {
		t.Helper()
		res, err := destset.NewRunner([]destset.EngineSpec{{PolicyName: "mine", NewPredictor: f}}, wl,
			destset.WithResultStore(store)).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res[0]
	}
	owner, group := run(builds(destset.Owner)), run(builds(destset.Group))
	if owner.Engine != group.Engine {
		t.Fatalf("labels differ: %q vs %q", owner.Engine, group.Engine)
	}
	if owner.Totals == group.Totals {
		t.Error("different factories under one label share a result")
	}
	if st := store.Stats(); st.Stores != 0 || st.Records != 0 {
		t.Errorf("NewPredictor cells reached the store: %+v", st)
	}
}

func TestRunnerUnknownNamesError(t *testing.T) {
	_, err := destset.NewRunner(
		[]destset.EngineSpec{{PolicyName: "no-such-policy"}},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 10, Measure: 10}},
	).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("unknown policy: err = %v", err)
	}
	_, err = destset.NewRunner(
		[]destset.EngineSpec{{Protocol: "no-such-engine"}},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 10, Measure: 10}},
	).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("unknown engine: err = %v", err)
	}
	_, err = destset.NewRunner(
		[]destset.EngineSpec{destset.SpecForPolicy(destset.Owner)},
		[]destset.WorkloadSpec{{Name: "no-such-workload"}},
	).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "unknown preset") {
		t.Errorf("unknown workload: err = %v", err)
	}
	// A multicast engine without any policy is a spec error.
	_, err = destset.NewRunner(
		[]destset.EngineSpec{{Protocol: destset.ProtocolMulticast}},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 10, Measure: 10}},
	).Run(context.Background())
	if err == nil {
		t.Error("multicast without a policy should fail")
	}
}

// TestParamsWorkloadSweep: a custom workload travels in the spec as
// explicit parameters and sweeps like a preset.
func TestParamsWorkloadSweep(t *testing.T) {
	params, err := destset.NewWorkload("barnes-hut", 1)
	if err != nil {
		t.Fatal(err)
	}
	params.Name = "tiny-barnes"
	params.SharedUnits = 64
	params.StreamBlocksPerNode = 2048
	res, err := destset.NewRunner(
		[]destset.EngineSpec{destset.SpecForPolicy(destset.Owner)},
		[]destset.WorkloadSpec{{Params: &params, Warm: 500, Measure: 500}},
		destset.WithSeeds(1, 2),
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	for _, r := range res {
		if r.Workload != "tiny-barnes" || r.Totals.Misses != 500 {
			t.Errorf("sweep over Params workload: %+v", r)
		}
	}
	if res[0].Totals == res[1].Totals {
		t.Error("the cell seed should reach the Params workload")
	}
}

func TestEngineResetCloneLifecycle(t *testing.T) {
	spec := destset.SpecForPolicy(destset.Group)
	eng, err := spec.NewEngine(16)
	if err != nil {
		t.Fatal(err)
	}
	run := func(e destset.Engine) destset.Totals {
		t.Helper()
		g, err := destset.NewWorkloadGenerator(destset.WorkloadSpec{Name: "slashcode"}, 5)
		if err != nil {
			t.Fatal(err)
		}
		var tot destset.Totals
		for i := 0; i < 5000; i++ {
			rec, mi := g.Next()
			tot.Add(e.Process(rec, mi))
		}
		return tot
	}
	first := run(eng)
	trained := run(eng) // second pass on a trained engine differs
	if first == trained {
		t.Fatal("expected trained second pass to differ from cold first pass")
	}
	eng.Reset()
	if again := run(eng); again != first {
		t.Errorf("Reset engine differs from fresh: %+v vs %+v", again, first)
	}
	clone := eng.Clone()
	if cloned := run(clone); cloned != first {
		t.Errorf("Clone differs from fresh: %+v vs %+v", cloned, first)
	}
	// The clone's training must not leak back into the original.
	eng.Reset()
	if again := run(eng); again != first {
		t.Errorf("original polluted by clone: %+v vs %+v", again, first)
	}
}

func TestEvaluateReachesPredictiveDirectory(t *testing.T) {
	res, err := destset.Evaluate(context.Background(),
		destset.EngineSpec{Protocol: destset.ProtocolPredictiveDirectory, PolicyName: "owner"},
		destset.WorkloadSpec{Name: "oltp", Warm: 20_000, Measure: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Config, "PredictiveDirectory+Owner") {
		t.Errorf("config = %q", res.Config)
	}
	dir, err := destset.EvaluatePolicy("oltp", destset.Minimal, 1, 20_000, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.IndirectionPercent >= dir.IndirectionPercent {
		t.Errorf("hybrid indirections %.1f%% should beat directory %.1f%%",
			res.IndirectionPercent, dir.IndirectionPercent)
	}
}
