// Package predictor implements destination-set predictors: the paper's
// primary contribution (§3).
//
// A destination-set predictor sits next to each L2 cache controller. On a
// miss it guesses which processors must observe the coherence request; the
// multicast snooping protocol then sends the request directly to that set.
// Predicting too many nodes wastes bandwidth, predicting too few costs a
// retry (latency). The policies here target different points on that
// latency/bandwidth curve, exactly as specified in the paper's Table 3:
//
//   - Owner: remember the last node that invalidated or supplied the block
//     (bandwidth-biased).
//   - BroadcastIfShared: a 2-bit counter chooses between broadcast and the
//     minimal set (latency-biased).
//   - Group: per-node 2-bit counters with a 5-bit rollover decay counter
//     (balanced).
//   - OwnerGroup: Group for writes, Owner for reads (stable sharing,
//     less bandwidth than Group).
//   - StickySpatial(1): the original multicast snooping predictor of Bilir
//     et al., reimplemented as the prior-work baseline.
//
// Predictors are tagged and set-associative, indexed by data block address,
// macroblock address, or program counter (§3.4), and allocate entries only
// when the minimal destination set proved insufficient (§3.1).
package predictor

import (
	"fmt"

	"destset/internal/nodeset"
	"destset/internal/trace"
)

// Query is the context available to a predictor when its node misses.
type Query struct {
	Addr      trace.Addr
	PC        trace.PC
	Requester nodeset.NodeID
	Home      nodeset.NodeID
	Kind      trace.Kind
}

// MinimalSet returns the floor of every prediction: requester plus home.
func (q Query) MinimalSet() nodeset.Set { return nodeset.Of(q.Requester, q.Home) }

// Response is the training event delivered when the data response for a
// node's own miss arrives (§3.2): data-response messages carry the
// sender's identity.
type Response struct {
	Addr       trace.Addr
	PC         trace.PC
	Responder  nodeset.NodeID
	FromMemory bool
}

// External is the training event delivered when another node's coherence
// request arrives at this node.
type External struct {
	Addr      trace.Addr
	PC        trace.PC // requester's miss PC (carried in the request, §3.4)
	Requester nodeset.NodeID
	Kind      trace.Kind
}

// Retry is delivered to the requester when its prediction was insufficient
// and the directory reissued the request to the needed set. Only
// StickySpatial trains on it (that is how the original predictor learned);
// the Table 3 policies ignore it.
type Retry struct {
	Addr   trace.Addr
	PC     trace.PC
	Needed nodeset.Set
}

// Predictor is one node's destination-set predictor.
type Predictor interface {
	// Predict returns the destination set for a request. It always
	// includes the minimal set {requester, home}.
	Predict(q Query) nodeset.Set
	// TrainResponse observes the data response for this node's own miss.
	TrainResponse(ev Response)
	// TrainRequest observes an external coherence request delivered to
	// this node.
	TrainRequest(ev External)
	// TrainRetry observes that this node's prediction was insufficient.
	TrainRetry(ev Retry)
	// Name describes the policy and configuration.
	Name() string
}

// Cloner is an optional Predictor extension: CloneFresh returns a new
// predictor with the same configuration and no training state. Protocol
// engines wrapping caller-owned predictor banks use it to give Reset and
// Clone full lifecycle fidelity — without it they can only clear
// accounting, not training. Every built-in policy implements it;
// custom predictors may.
type Cloner interface {
	CloneFresh() Predictor
}

// CloneBank returns a fresh, untrained copy of a predictor bank, or
// false if any member does not implement Cloner.
func CloneBank(preds []Predictor) ([]Predictor, bool) {
	out := make([]Predictor, len(preds))
	for i, p := range preds {
		c, ok := p.(Cloner)
		if !ok {
			return nil, false
		}
		out[i] = c.CloneFresh()
	}
	return out, true
}

// Policy selects a prediction policy.
type Policy uint8

const (
	// Owner predicts the last known owner (Table 3 column 1).
	Owner Policy = iota
	// BroadcastIfShared predicts broadcast for shared-looking blocks
	// (Table 3 column 2).
	BroadcastIfShared
	// Group predicts the set of recently active processors (Table 3
	// column 3).
	Group
	// OwnerGroup uses Group for GetExclusive and Owner for GetShared
	// (§3.3 hybrid).
	OwnerGroup
	// StickySpatial is the Bilir et al. baseline with one neighbor
	// aggregated on each side (§3.5).
	StickySpatial
	// Minimal always predicts the minimal set; with multicast snooping
	// this behaves like a directory protocol's first hop.
	Minimal
	// Broadcast always predicts all nodes; multicast snooping degenerates
	// to broadcast snooping.
	Broadcast
	// Oracle predicts exactly the needed destination set of each miss. It
	// requires the harness to supply the needed set via SetOracle and is
	// used for limit studies.
	Oracle
)

// String returns the policy name used in reports and figures.
func (p Policy) String() string {
	switch p {
	case Owner:
		return "Owner"
	case BroadcastIfShared:
		return "BroadcastIfShared"
	case Group:
		return "Group"
	case OwnerGroup:
		return "OwnerGroup"
	case StickySpatial:
		return "StickySpatial(1)"
	case Minimal:
		return "Minimal"
	case Broadcast:
		return "Broadcast"
	case Oracle:
		return "Oracle"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Config describes a predictor instance.
type Config struct {
	Policy Policy
	// Nodes is the system size (16 in the paper).
	Nodes int
	// Entries is the table capacity; 0 means unbounded.
	Entries int
	// Ways is the set associativity of finite tables (default 4).
	// StickySpatial is always direct-mapped, as in the original design.
	Ways int
	// GroupRollover overrides the Group policy's rollover counter limit
	// (default 32, the paper's 5-bit counter). Smaller values train down
	// faster; the ablation benchmarks sweep it.
	GroupRollover int
	// Indexing selects block, macroblock or PC indexing.
	Indexing Indexing
}

// DefaultConfig returns the paper's standout configuration: 8192 entries,
// 4-way, 1024-byte macroblock indexing (§4.3).
func DefaultConfig(policy Policy, nodes int) Config {
	return Config{
		Policy:   policy,
		Nodes:    nodes,
		Entries:  8192,
		Ways:     4,
		Indexing: Indexing{Mode: ByBlock, MacroblockBytes: trace.MacroblockBytes},
	}
}

// Name renders the configuration, e.g. "Group[1024B,8192e]".
func (c Config) Name() string {
	size := "unbounded"
	if c.Entries > 0 {
		size = fmt.Sprintf("%de", c.Entries)
	}
	return fmt.Sprintf("%s[%s,%s]", c.Policy, c.Indexing, size)
}

// EntryBytes returns the approximate per-entry storage of the policy,
// including tag, following the paper's Table 3 estimates (Owner and
// BroadcastIfShared ≈ 4 bytes, Group ≈ 8 bytes).
func (c Config) EntryBytes() int {
	switch c.Policy {
	case Owner, BroadcastIfShared:
		return 4
	case Group, StickySpatial:
		return 8
	case OwnerGroup:
		return 12
	default:
		return 0
	}
}

// StorageBytes returns the approximate total predictor storage; the
// paper's standout predictors are 32–64 kB, under 2% of the 4 MB L2.
func (c Config) StorageBytes() int { return c.EntryBytes() * c.Entries }

// New builds a predictor for one node from the configuration.
func New(cfg Config) Predictor {
	if cfg.Nodes <= 0 || cfg.Nodes > nodeset.MaxNodes {
		panic(fmt.Sprintf("predictor: bad node count %d", cfg.Nodes))
	}
	if cfg.Ways <= 0 {
		cfg.Ways = 4
	}
	if cfg.Indexing.MacroblockBytes == 0 {
		cfg.Indexing.MacroblockBytes = trace.BlockBytes
	}
	if cfg.GroupRollover <= 0 {
		cfg.GroupRollover = defaultRolloverLimit
	}
	switch cfg.Policy {
	case Owner:
		return newOwner(cfg)
	case BroadcastIfShared:
		return newBIS(cfg)
	case Group:
		return newGroup(cfg)
	case OwnerGroup:
		return newOwnerGroup(cfg)
	case StickySpatial:
		return newStickySpatial(cfg)
	case Minimal:
		return minimalPredictor{}
	case Broadcast:
		return broadcastPredictor{nodes: cfg.Nodes}
	case Oracle:
		return &oraclePredictor{}
	default:
		panic(fmt.Sprintf("predictor: unknown policy %v", cfg.Policy))
	}
}

// NewBank builds one predictor per node, all with the same configuration.
func NewBank(cfg Config) []Predictor {
	bank := make([]Predictor, cfg.Nodes)
	for i := range bank {
		bank[i] = New(cfg)
	}
	return bank
}
