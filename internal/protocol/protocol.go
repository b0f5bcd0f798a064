// Package protocol implements the three coherence protocols the paper
// compares, as trace-driven accounting engines over the coherence oracle:
//
//   - Broadcast snooping: every request goes to all nodes on the totally-
//     ordered interconnect; no indirections ever, maximal request traffic.
//   - Directory (AlphaServer GS320-style, §4.2): requests go to the home
//     node; the directory forwards to the owner and sends invalidations to
//     sharers. Misses serviced by a remote cache take a 3-hop indirection.
//     The totally-ordered network eliminates acknowledgment messages.
//   - Multicast snooping (§4.1): requests multicast to a predicted
//     destination set; the home directory checks sufficiency and reissues
//     insufficient requests with the exact owner/sharer set (Sorin et al.
//     optimization), which costs a 3-hop-like retry.
//
// Each engine consumes (record, MissInfo) pairs in interconnect order and
// produces per-miss accounting: request messages (requests + forwards +
// invalidations + retries), data messages and whether the miss required an
// indirection. The multicast engine also drives predictor training with
// exactly the events each node would observe (§3.2).
package protocol

import (
	"fmt"
	"slices"
	"strings"

	"destset/internal/coherence"
	"destset/internal/nodeset"
	"destset/internal/predictor"
	"destset/internal/trace"
)

// Message sizes from the paper (§5.1): requests, forwards and retries are
// 8-byte control messages; data responses carry 64 bytes plus an 8-byte
// header.
const (
	ControlBytes = 8
	DataBytes    = 72
)

// Result is the accounting outcome of one miss.
type Result struct {
	// RequestMsgs counts request, forward, invalidation and retry control
	// messages (the paper's "request bandwidth per miss").
	RequestMsgs int
	// DataMsgs counts data response messages (0 for an upgrade by the
	// owner, 1 otherwise).
	DataMsgs int
	// Indirect reports whether the miss could not complete directly: a
	// 3-hop forward in the directory protocol or a directory reissue in
	// multicast snooping. Broadcast snooping never indirects.
	Indirect bool
	// Retries counts multicast snooping reissues (0 for other protocols).
	Retries int
	// InitialSet is the destination set of the initial request (the
	// predicted set for multicast snooping).
	InitialSet nodeset.Set
}

// Bytes returns the traffic of this miss in bytes.
func (r Result) Bytes() int { return r.RequestMsgs*ControlBytes + r.DataMsgs*DataBytes }

// Engine processes misses in interconnect order.
type Engine interface {
	// Process accounts one miss. mi must be the coherence oracle's
	// annotation for rec.
	Process(rec trace.Record, mi coherence.MissInfo) Result
	// Name identifies the protocol (and predictor, if any) in reports.
	Name() string
	// Reset restores the engine to its freshly-constructed state so it
	// can be reused for another run. Engines wrapping a caller-owned
	// predictor bank (NewMulticast, NewPredictiveDirectory) rebuild the
	// bank fresh when every member implements predictor.Cloner — all
	// built-in policies do; otherwise they clear accounting counters
	// but keep the bank's training. The *WithFactory constructors (and
	// NewByName) always reset with full fidelity.
	Reset()
	// Clone returns an engine with the same configuration and no
	// accumulated accounting state. Factory-built engines clone with a
	// fresh, untrained predictor bank, as do bank-wrapping engines whose
	// members all implement predictor.Cloner; only banks with
	// non-cloneable custom predictors are shared with clones.
	Clone() Engine
}

// dataMsgs returns how many data responses a miss produces: none when the
// requester already owns the block (an upgrade), one otherwise.
func dataMsgs(mi coherence.MissInfo, req nodeset.NodeID) int {
	if _, _, none := mi.Responder(req); none {
		return 0
	}
	return 1
}

// ---------------------------------------------------------------------
// Broadcast snooping

// Snooping is the broadcast snooping engine: requests reach every node.
type Snooping struct {
	nodes int
}

// NewSnooping returns a broadcast snooping engine for an n-node system.
func NewSnooping(n int) *Snooping { return &Snooping{nodes: n} }

// Name implements Engine.
func (s *Snooping) Name() string { return "Broadcast Snooping" }

// Reset implements Engine; broadcast snooping is stateless.
func (s *Snooping) Reset() {}

// Clone implements Engine.
func (s *Snooping) Clone() Engine { return NewSnooping(s.nodes) }

// Process implements Engine. A broadcast is always sufficient: the owner
// and all sharers observe every request, so no miss ever indirects.
func (s *Snooping) Process(rec trace.Record, mi coherence.MissInfo) Result {
	req := nodeset.NodeID(rec.Requester)
	return Result{
		RequestMsgs: s.nodes - 1,
		DataMsgs:    dataMsgs(mi, req),
		InitialSet:  nodeset.All(s.nodes),
	}
}

// ---------------------------------------------------------------------
// Directory

// Directory is the GS320-style directory engine.
type Directory struct{}

// NewDirectory returns a directory protocol engine.
func NewDirectory() *Directory { return &Directory{} }

// Name implements Engine.
func (d *Directory) Name() string { return "Directory" }

// Reset implements Engine; the directory engine is stateless (directory
// state lives in the coherence oracle's annotations).
func (d *Directory) Reset() {}

// Clone implements Engine.
func (d *Directory) Clone() Engine { return NewDirectory() }

// Process implements Engine. The request goes to the home; the directory
// forwards to a remote owner (the indirection) and invalidates remote
// sharers for write requests. No acknowledgments are needed on the
// totally-ordered interconnect.
func (d *Directory) Process(rec trace.Record, mi coherence.MissInfo) Result {
	req := nodeset.NodeID(rec.Requester)
	msgs := 1 // request to home
	if mi.CacheToCache(req) {
		msgs++ // forward to the remote owner
	}
	if rec.Kind == trace.GetExclusive {
		// Invalidations to remote sharers (the owner already sees the
		// forward; the requester upgrades in place).
		msgs += mi.Sharers.Remove(req).Remove(mi.Owner).Count()
	}
	return Result{
		RequestMsgs: msgs,
		DataMsgs:    dataMsgs(mi, req),
		Indirect:    mi.DirIndirection(req),
		InitialSet:  coherence.MinimalSet(req, mi.Home),
	}
}

// ---------------------------------------------------------------------
// Multicast snooping

// Multicast is the multicast snooping engine with per-node destination-set
// predictors.
type Multicast struct {
	nodes int
	preds []predictor.Predictor
	// newBank rebuilds the predictor bank for Reset/Clone; nil when the
	// engine wraps a caller-owned bank.
	newBank func() []predictor.Predictor
	stats   MulticastStats
}

// MulticastStats aggregates predictor-level accuracy counters.
type MulticastStats struct {
	// Sufficient counts initial predictions that covered the needed set.
	Sufficient uint64
	// Insufficient counts initial predictions that required a reissue.
	Insufficient uint64
	// PredictedNodes sums initial destination-set sizes.
	PredictedNodes uint64
	// NeededNodes sums needed destination-set sizes.
	NeededNodes uint64
}

// NewMulticast returns a multicast snooping engine over one predictor per
// node. The bank must have one entry per node.
func NewMulticast(preds []predictor.Predictor) *Multicast {
	if len(preds) == 0 {
		panic("protocol: multicast engine needs at least one predictor")
	}
	return &Multicast{nodes: len(preds), preds: preds}
}

// NewMulticastWithFactory builds a multicast snooping engine whose
// predictor bank comes from newBank, enabling full-fidelity Reset and
// independent Clone: every call must return a fresh, untrained bank of
// the same shape.
func NewMulticastWithFactory(newBank func() []predictor.Predictor) *Multicast {
	if newBank == nil {
		panic("protocol: nil predictor bank factory")
	}
	m := NewMulticast(newBank())
	m.newBank = newBank
	return m
}

// Name implements Engine.
func (m *Multicast) Name() string { return "Multicast+" + m.preds[0].Name() }

// Reset implements Engine: accuracy counters clear and the predictor
// bank is replaced with a fresh, untrained one — via the factory when
// one was provided, via predictor.Cloner otherwise. Only caller-owned
// banks with non-cloneable members keep their training.
func (m *Multicast) Reset() {
	m.stats = MulticastStats{}
	if m.newBank != nil {
		m.preds = m.newBank()
	} else if fresh, ok := predictor.CloneBank(m.preds); ok {
		m.preds = fresh
	}
}

// Clone implements Engine. Factory-built and cloneable banks yield an
// independent fresh bank; only non-cloneable caller-owned banks are
// shared with the clone.
func (m *Multicast) Clone() Engine {
	if m.newBank != nil {
		return NewMulticastWithFactory(m.newBank)
	}
	if fresh, ok := predictor.CloneBank(m.preds); ok {
		return NewMulticast(fresh)
	}
	return NewMulticast(m.preds)
}

// Stats returns the accumulated prediction-accuracy counters.
func (m *Multicast) Stats() MulticastStats { return m.stats }

// Process implements Engine: predict, multicast, check sufficiency at the
// home directory, reissue if insufficient, and deliver training events.
func (m *Multicast) Process(rec trace.Record, mi coherence.MissInfo) Result {
	req := nodeset.NodeID(rec.Requester)
	q := predictor.Query{
		Addr:      rec.Addr,
		PC:        rec.PC,
		Requester: req,
		Home:      mi.Home,
		Kind:      rec.Kind,
	}
	needed := mi.Needed(req, rec.Kind)
	if o, ok := m.preds[req].(predictor.OracleSetter); ok {
		o.SetOracle(needed)
	}
	mask := m.preds[req].Predict(q).Union(q.MinimalSet())

	res := Result{
		RequestMsgs: mask.Remove(req).Count(),
		DataMsgs:    dataMsgs(mi, req),
		InitialSet:  mask,
	}
	sufficient := mask.Superset(needed)
	observers := mask
	if sufficient {
		m.stats.Sufficient++
	} else {
		// The home directory reissues the request to the exact set of
		// nodes that must act, like a directory forward (§4.1). In trace
		// order there are no races, so one reissue always succeeds.
		m.stats.Insufficient++
		res.Indirect = true
		res.Retries = 1
		reissue := needed.Minus(mask).Remove(mi.Home)
		res.RequestMsgs += reissue.Count()
		observers = observers.Union(needed)
		m.preds[req].TrainRetry(predictor.Retry{Addr: rec.Addr, PC: rec.PC, Needed: needed})
	}
	m.stats.PredictedNodes += uint64(mask.Count())
	m.stats.NeededNodes += uint64(needed.Count())

	// Training: every node that received the request observes it; the
	// requester observes the data response. The explicit bit loop (rather
	// than Set.ForEach with a closure) keeps this path free of per-miss
	// call overhead — it runs up to nodes-1 times per miss.
	ext := predictor.External{Addr: rec.Addr, PC: rec.PC, Requester: req, Kind: rec.Kind}
	for rem := observers.Remove(req); !rem.Empty(); {
		n := rem.First()
		rem = rem.Remove(n)
		m.preds[n].TrainRequest(ext)
	}
	if responder, fromMemory, none := mi.Responder(req); !none {
		m.preds[req].TrainResponse(predictor.Response{
			Addr:       rec.Addr,
			PC:         rec.PC,
			Responder:  responder,
			FromMemory: fromMemory,
		})
	}
	return res
}

// ---------------------------------------------------------------------
// Aggregation

// Totals accumulates per-miss results into the trace-driven metrics of §4:
// indirections as a percent of misses and request messages per miss.
type Totals struct {
	Misses      uint64
	RequestMsgs uint64
	DataMsgs    uint64
	Indirect    uint64
	Retries     uint64
}

// Add accumulates one miss.
func (t *Totals) Add(r Result) {
	t.Misses++
	t.RequestMsgs += uint64(r.RequestMsgs)
	t.DataMsgs += uint64(r.DataMsgs)
	if r.Indirect {
		t.Indirect++
	}
	t.Retries += uint64(r.Retries)
}

// IndirectionPercent returns the percent of misses requiring indirection
// (the y-axis of Figures 5 and 6).
func (t *Totals) IndirectionPercent() float64 {
	if t.Misses == 0 {
		return 0
	}
	return 100 * float64(t.Indirect) / float64(t.Misses)
}

// RequestMsgsPerMiss returns request messages per miss (the x-axis of
// Figures 5 and 6).
func (t *Totals) RequestMsgsPerMiss() float64 {
	if t.Misses == 0 {
		return 0
	}
	return float64(t.RequestMsgs) / float64(t.Misses)
}

// BytesPerMiss returns total traffic per miss in bytes.
func (t *Totals) BytesPerMiss() float64 {
	if t.Misses == 0 {
		return 0
	}
	return float64(t.RequestMsgs*ControlBytes+t.DataMsgs*DataBytes) / float64(t.Misses)
}

// String summarizes the totals.
func (t *Totals) String() string {
	return fmt.Sprintf("misses=%d req/miss=%.2f indirections=%.1f%% bytes/miss=%.1f",
		t.Misses, t.RequestMsgsPerMiss(), t.IndirectionPercent(), t.BytesPerMiss())
}

// Built-in protocol names.
const (
	SnoopingName            = "snooping"
	DirectoryName           = "directory"
	MulticastName           = "multicast"
	PredictiveDirectoryName = "predictive-directory"
)

// engineNames lists the built-in protocol names, sorted, for error
// messages.
var engineNames = []string{DirectoryName, MulticastName, PredictiveDirectoryName, SnoopingName}

// Spec carries what NewByName needs to build one engine instance.
type Spec struct {
	// Nodes is the system size of the workload being evaluated.
	Nodes int
	// NewBank returns a fresh, untrained predictor bank (one predictor
	// per node). It is nil when the caller configured no prediction
	// policy; predictor-based engines must reject that.
	NewBank func() []predictor.Predictor
}

// EngineNames returns the built-in protocol names, sorted.
func EngineNames() []string { return append([]string(nil), engineNames...) }

// HasEngine reports whether name is a built-in protocol name.
func HasEngine(name string) bool { return slices.Contains(engineNames, engineKey(name)) }

// engineKey normalizes a protocol name: names match case-insensitively.
func engineKey(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// NewByName builds a fresh engine from a built-in protocol name.
func NewByName(name string, s Spec) (Engine, error) {
	switch engineKey(name) {
	case SnoopingName:
		if s.Nodes <= 0 {
			return nil, fmt.Errorf("protocol: snooping engine needs a node count")
		}
		return NewSnooping(s.Nodes), nil
	case DirectoryName:
		return NewDirectory(), nil
	case MulticastName:
		if s.NewBank == nil {
			return nil, fmt.Errorf("protocol: multicast engine needs a prediction policy")
		}
		return NewMulticastWithFactory(s.NewBank), nil
	case PredictiveDirectoryName:
		if s.NewBank == nil {
			return nil, fmt.Errorf("protocol: predictive-directory engine needs a prediction policy")
		}
		return NewPredictiveDirectoryWithFactory(s.NewBank), nil
	}
	return nil, fmt.Errorf("protocol: unknown engine %q (have %v)", name, engineNames)
}
