package destset

import (
	"fmt"

	"destset/internal/predictor"
	"destset/internal/protocol"
	"destset/internal/sweep"
	"destset/internal/workload"
)

// Protocol engine names understood by EngineSpec.Protocol.
const (
	ProtocolSnooping            = protocol.SnoopingName
	ProtocolDirectory           = protocol.DirectoryName
	ProtocolMulticast           = protocol.MulticastName
	ProtocolPredictiveDirectory = protocol.PredictiveDirectoryName
)

// EngineSpec is a value description of one protocol engine: which
// protocol to account under and, for prediction-based protocols, which
// policy and predictor configuration to use. Specs are inert data — the
// Runner builds a fresh engine from the spec for every sweep cell, so
// the same spec can appear in many concurrent runs.
type EngineSpec struct {
	// Protocol is a built-in engine name (see ProtocolSnooping and
	// friends). Empty selects ProtocolMulticast when a policy is
	// configured and is an error otherwise.
	Protocol string
	// PolicyName is a built-in prediction policy name ("owner",
	// "group", ...), matched case-insensitively, or the label of a
	// NewPredictor policy.
	PolicyName string
	// NewPredictor, when set, builds each node's predictor instead of a
	// built-in policy; PolicyName must label it. A factory is code, not
	// data: specs carrying one do not serialize into a SweepDef and
	// their cells are never served from or stored to a result store.
	NewPredictor PolicyFactory `json:"-"`
	// Policy selects a built-in policy by value; it is consulted only
	// when PolicyName is empty and Predictor is nil.
	Policy Policy
	// UsePolicy marks the Policy field as intentionally set (the zero
	// Policy is Owner, so a flag is needed to distinguish "unset").
	UsePolicy bool
	// Predictor overrides the predictor configuration. Nil uses the
	// paper's standout configuration (DefaultPredictorConfig) for the
	// selected policy. The Nodes field may be left 0 to inherit the
	// workload's node count.
	Predictor *PredictorConfig
	// Nodes overrides the system size; 0 inherits the workload's.
	Nodes int
	// Label overrides the engine's display label in results and
	// observations; empty derives one from the protocol and policy.
	Label string
}

// SpecForPolicy returns the EngineSpec EvaluatePolicy uses for a
// built-in policy: broadcast snooping for Broadcast, the directory
// protocol for Minimal, and multicast snooping with the paper's
// standout predictor configuration for everything else.
func SpecForPolicy(p Policy) EngineSpec {
	switch p {
	case Broadcast:
		return EngineSpec{Protocol: ProtocolSnooping}
	case Minimal:
		return EngineSpec{Protocol: ProtocolDirectory}
	default:
		return EngineSpec{Protocol: ProtocolMulticast, Policy: p, UsePolicy: true}
	}
}

// PolicyFactory builds one node's predictor from a configuration.
// Custom factories may ignore the configuration's Policy field and use
// only the capacity/indexing fields.
type PolicyFactory func(cfg PredictorConfig) Predictor

// policySelection is the policy choice EngineSpec and SimSpec share:
// their PolicyName, Policy, UsePolicy, Predictor and NewPredictor fields.
type policySelection struct {
	name   string
	policy Policy
	use    bool
	cfg    *PredictorConfig
	custom PolicyFactory
}

func (p policySelection) set() bool {
	return p.name != "" || p.use || p.cfg != nil || p.custom != nil
}

// suffix is the "+policy" part of a display label, empty when no policy
// is selected.
func (p policySelection) suffix() string {
	switch {
	case p.name != "":
		return "+" + predictor.CanonicalName(p.name)
	case p.use:
		return "+" + predictor.CanonicalName(p.policy.String())
	case p.cfg != nil:
		return "+" + predictor.CanonicalName(p.cfg.Policy.String())
	default:
		return ""
	}
}

func (p policySelection) validate() error {
	if p.custom != nil {
		if p.name == "" {
			return fmt.Errorf("destset: a NewPredictor policy needs a PolicyName label")
		}
		return nil
	}
	if p.name != "" {
		if _, ok := predictor.ByName(p.name); !ok {
			return fmt.Errorf("destset: unknown policy %q (have %v)", p.name, predictor.Names())
		}
	}
	return nil
}

// bank resolves the selection for a system of the given node count: the
// predictor configuration and a constructor of fresh, untrained banks
// (one predictor per node). An explicit Predictor config is used
// verbatim aside from filling Nodes; otherwise the selected policy gets
// the paper's standout configuration. A built-in PolicyName overrides
// the configuration's policy; a NewPredictor factory receives the
// configuration as is. The constructor is nil when no policy is
// selected.
func (p policySelection) bank(nodes int) (PredictorConfig, func() []predictor.Predictor, error) {
	if !p.set() {
		return PredictorConfig{}, nil, nil
	}
	cfg := predictor.DefaultConfig(p.policy, nodes)
	if p.cfg != nil {
		cfg = *p.cfg
		if cfg.Nodes == 0 {
			cfg.Nodes = nodes
		}
	}
	if err := p.validate(); err != nil {
		return cfg, nil, err
	}
	factory := p.custom
	if factory == nil {
		if p.name != "" {
			cfg.Policy, _ = predictor.ByName(p.name)
		}
		factory = predictor.New
	}
	return cfg, func() []predictor.Predictor {
		bank := make([]predictor.Predictor, cfg.Nodes)
		for i := range bank {
			bank[i] = factory(cfg)
		}
		return bank
	}, nil
}

// protocolName resolves the engine name, defaulting predictor-equipped
// specs to multicast snooping.
func (s EngineSpec) protocolName() string {
	if s.Protocol != "" {
		return s.Protocol
	}
	if s.hasPolicy() {
		return ProtocolMulticast
	}
	return ""
}

// policy returns the spec's policy selection.
func (s EngineSpec) policy() policySelection {
	return policySelection{s.PolicyName, s.Policy, s.UsePolicy, s.Predictor, s.NewPredictor}
}

func (s EngineSpec) hasPolicy() bool { return s.policy().set() }

// DisplayLabel returns the label used for this spec in results and
// observations.
func (s EngineSpec) DisplayLabel() string {
	if s.Label != "" {
		return s.Label
	}
	name := s.protocolName()
	if name == "" {
		name = "engine"
	}
	return name + s.policy().suffix()
}

// validate resolves the spec's names eagerly, so that a typo'd policy
// or protocol fails before any sweep work starts (the Runner calls it
// for every engine spec up front).
func (s EngineSpec) validate() error {
	name := s.protocolName()
	if name == "" {
		return fmt.Errorf("destset: engine spec needs a protocol or a policy")
	}
	if !protocol.HasEngine(name) {
		return fmt.Errorf("destset: unknown engine %q (have %v)", name, protocol.EngineNames())
	}
	return s.policy().validate()
}

// NewEngine builds one fresh engine from the spec for a system of the
// given node count (0 uses the spec's own Nodes, which must then be
// set). Engines built this way have full Reset/Clone fidelity.
func (s EngineSpec) NewEngine(nodes int) (Engine, error) {
	if s.Nodes > 0 {
		nodes = s.Nodes
	}
	if nodes <= 0 {
		return nil, fmt.Errorf("destset: engine spec %q needs a node count", s.DisplayLabel())
	}
	name := s.protocolName()
	if name == "" {
		return nil, fmt.Errorf("destset: engine spec needs a protocol or a policy")
	}
	_, newBank, err := s.policy().bank(nodes)
	if err != nil {
		return nil, err
	}
	return protocol.NewByName(name, protocol.Spec{Nodes: nodes, NewBank: newBank})
}

// sweepEngine adapts the spec for the sweep runner.
func (s EngineSpec) sweepEngine() sweep.Engine {
	return sweep.Engine{
		Label: s.DisplayLabel(),
		New: func(nodes int) (protocol.Engine, error) {
			return s.NewEngine(nodes)
		},
	}
}

// Stream produces a workload's miss stream: one coherence request plus
// its oracle annotation per call. *Generator implements Stream, and so
// can replayers over recorded traces.
type Stream = sweep.Stream

// WorkloadSpec is a value description of one workload and its
// measurement scale. Exactly one of three sources applies, in priority
// order: Open (a custom stream source), Params (explicit parameters),
// or Name (a built-in preset, see Workloads).
type WorkloadSpec struct {
	// Name is a built-in workload preset name; it also labels the
	// workload in results when Params or Open is used.
	Name string
	// Params overrides the preset lookup with explicit parameters. The
	// Seed field is replaced by the sweep cell's seed.
	Params *WorkloadParams
	// Open overrides generation entirely with a custom stream source —
	// for example a replayer over a recorded trace. Each call must
	// return a fresh stream positioned at the beginning; Nodes must be
	// set when Open is used.
	Open func(seed uint64) (Stream, error)
	// Nodes is the system size; required with Open, otherwise derived
	// from the preset or Params.
	Nodes int
	// Warm misses train caches and predictors without being measured;
	// 0 inherits the Runner's default.
	Warm int
	// Measure misses are accounted; 0 inherits the Runner's default.
	Measure int
}

// label names the workload in results.
func (w WorkloadSpec) label() string {
	if w.Name != "" {
		return w.Name
	}
	if w.Params != nil && w.Params.Name != "" {
		return w.Params.Name
	}
	return "workload"
}

// NewWorkloadGenerator resolves a WorkloadSpec into a generator seeded
// for one run — the same parameters the runners replay per sweep cell.
// It fails for specs with a custom Open source (call Open directly).
func NewWorkloadGenerator(spec WorkloadSpec, seed uint64) (*Generator, error) {
	p, err := spec.params(seed)
	if err != nil {
		return nil, err
	}
	return workload.New(p)
}
