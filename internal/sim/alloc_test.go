package sim

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"destset/internal/coherence"
	"destset/internal/trace"
	"destset/internal/workload"
)

// simStreams generates a warm/timed source pair for the allocation
// budgets from a real workload, so the measured loop exercises every
// protocol path (retries, forwards, invalidations, writebacks).
func simStreams(t *testing.T, warmN, timedN int) (warm, timed Source) {
	t.Helper()
	p, err := workload.Preset("oltp", 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := workload.New(p)
	if err != nil {
		t.Fatal(err)
	}
	warmTr, _ := g.Generate(warmN)
	timedTr, _ := g.Generate(timedN)
	return TraceSource(warmTr), TraceSource(timedTr)
}

// TestSimLoopAllocFree is the timing-simulator allocation budget: once a
// run reaches steady state (transaction slab loaded, message and
// delivery pools grown to peak concurrency), the per-simulated-miss path
// — issue, ordering, delivery, retry, data response, completion — must
// not allocate. The first half of the run primes the pools; the second
// half is measured and must stay at 0 allocs per miss (a tiny amortized
// tolerance covers geometric growth of the coherence block table and the
// event queue's backing array).
func TestSimLoopAllocFree(t *testing.T) {
	warm, timed := simStreams(t, 8_000, 16_000)
	for _, proto := range []Protocol{Snooping, Directory, Multicast} {
		for _, cpu := range []CPUModel{SimpleCPU, DetailedCPU} {
			t.Run(proto.String()+"/"+cpu.String(), func(t *testing.T) {
				cfg := DefaultConfig(proto)
				cfg.CPU = cpu
				s := newSim(cfg)
				if err := s.warmUp(context.Background(), warm); err != nil {
					t.Fatal(err)
				}
				s.loadStreams(timed)
				for _, n := range s.nodes {
					s.tryIssue(n)
				}
				// Prime: run the first half of the misses.
				half := s.total / 2
				for s.completed < half && s.loop.Step() {
				}

				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				s.loop.Run()
				runtime.ReadMemStats(&after)

				if s.completed != s.total {
					t.Fatalf("deadlock: %d/%d misses completed", s.completed, s.total)
				}
				measured := s.completed - half
				allocs := after.Mallocs - before.Mallocs
				if perMiss := float64(allocs) / float64(measured); perMiss > 0.01 {
					t.Errorf("steady-state sim loop allocates %.4f/miss (%d allocs over %d misses), want 0",
						perMiss, allocs, measured)
				}
			})
		}
	}
}

// TestSimulateMemoryFollowsTouchedBlocks pins the timing model's memory
// to what a run touches: a 16-node run whose blocks spread over 2^40
// block addresses must allocate no more than its L2s (16-byte lines)
// plus a few MB (the multicast predictor bank takes most of them), so
// no structure sized by the highest address can come back unnoticed.
func TestSimulateMemoryFollowsTouchedBlocks(t *testing.T) {
	const nodes, regions, span = 16, 32, 256
	rng := rand.New(rand.NewSource(1))
	var bases [regions]trace.Addr
	for i := range bases {
		bases[i] = trace.Addr(rng.Int63n(1<<40 - span))
	}
	bases[0] = 1<<40 - span // reach the top of the span
	gen := func(n int) *trace.Trace {
		tr := &trace.Trace{Nodes: nodes}
		for i := 0; i < n; i++ {
			kind := trace.GetShared
			if rng.Intn(3) == 0 {
				kind = trace.GetExclusive
			}
			tr.Append(trace.Record{
				Addr:      bases[rng.Intn(regions)] + trace.Addr(rng.Intn(span)),
				PC:        trace.PC(0x400000 + 4*rng.Intn(64)),
				Requester: uint8(rng.Intn(nodes)),
				Kind:      kind,
				Gap:       100,
			})
		}
		return tr
	}
	warm, timed := gen(4000), gen(4000)
	l2 := coherence.DefaultConfig().L2
	budget := uint64(nodes*(l2.SizeBytes/l2.BlockBytes)*16 + 10<<20)
	for _, proto := range []Protocol{Snooping, Directory, Multicast} {
		t.Run(proto.String(), func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(DefaultConfig(proto), warm, timed); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got > budget {
				t.Errorf("run allocated %.1f MB, budget %.1f MB", float64(got)/(1<<20), float64(budget)/(1<<20))
			} else {
				t.Logf("run allocated %.1f MB of %.1f MB", float64(got)/(1<<20), float64(budget)/(1<<20))
			}
		})
	}
}
