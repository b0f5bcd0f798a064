// Custompolicy: plug a new destination-set prediction policy into an
// EngineSpec and sweep it through the same high-level Runner as the
// paper's policies — no internal package is touched.
//
// The custom "PairSet" policy remembers the last two distinct nodes seen
// touching each macroblock and predicts both — a middle ground between
// Owner (one node) and Group (a counter per node) that needs only ~5
// bytes per entry.
//
// Run with:
//
//	go run ./examples/custompolicy
package main

import (
	"context"
	"fmt"
	"log"

	"destset"
)

// pairSet predicts the last two distinct nodes observed per macroblock.
type pairSet struct {
	nodes   int
	entries map[uint64][2]entry
}

type entry struct {
	node  destset.NodeID
	valid bool
}

func newPairSet(nodes int) *pairSet {
	return &pairSet{nodes: nodes, entries: make(map[uint64][2]entry)}
}

func (p *pairSet) key(a destset.Addr) uint64 { return uint64(a) / 16 } // 1KB macroblocks

func (p *pairSet) observe(a destset.Addr, n destset.NodeID) {
	k := p.key(a)
	e := p.entries[k]
	if e[0].valid && e[0].node == n {
		return
	}
	e[1] = e[0]
	e[0] = entry{node: n, valid: true}
	p.entries[k] = e
}

// Predict implements destset.Predictor.
func (p *pairSet) Predict(q destset.Query) destset.Set {
	s := q.MinimalSet()
	for _, e := range p.entries[p.key(q.Addr)] {
		if e.valid {
			s = s.Add(e.node)
		}
	}
	return s
}

// TrainResponse implements destset.Predictor.
func (p *pairSet) TrainResponse(ev destset.Response) {
	if ev.FromMemory {
		delete(p.entries, p.key(ev.Addr))
		return
	}
	p.observe(ev.Addr, ev.Responder)
}

// TrainRequest implements destset.Predictor.
func (p *pairSet) TrainRequest(ev destset.External) { p.observe(ev.Addr, ev.Requester) }

// TrainRetry implements destset.Predictor.
func (p *pairSet) TrainRetry(destset.Retry) {}

// Name implements destset.Predictor.
func (p *pairSet) Name() string { return "PairSet[1024B]" }

func main() {
	// The spec carries the policy: NewPredictor builds each node's
	// predictor and PolicyName labels it, so the Runner sweeps it like
	// any built-in policy.
	engines := []destset.EngineSpec{
		destset.SpecForPolicy(destset.Owner),
		{PolicyName: "pairset", NewPredictor: func(cfg destset.PredictorConfig) destset.Predictor {
			return newPairSet(cfg.Nodes)
		}},
		destset.SpecForPolicy(destset.Group),
	}
	results, err := destset.NewRunner(engines,
		[]destset.WorkloadSpec{{Name: "apache"}},
		destset.WithWarmup(100_000),
		destset.WithMeasure(100_000),
	).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Apache: custom PairSet policy vs the paper's Owner and Group")
	fmt.Printf("\n%-42s %14s %14s\n", "configuration", "req msgs/miss", "indirections")
	for _, res := range results {
		fmt.Printf("%-42s %14.2f %13.1f%%\n",
			res.Tradeoff.Config, res.Tradeoff.RequestMsgsPerMiss, res.Tradeoff.IndirectionPercent)
	}
	fmt.Println("\nPairSet should land between Owner (cheaper, more retries) and")
	fmt.Println("Group (more traffic, fewer retries) on the tradeoff curve.")
}
