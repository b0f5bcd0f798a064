package destset

import (
	"fmt"

	"destset/internal/event"
	"destset/internal/predictor"
	"destset/internal/sim"
)

// SimSpec is a value description of one execution-driven timing
// configuration: which coherence protocol to simulate, which prediction
// policy drives multicast destination sets, which processor model issues
// the misses, and any Table-4 knob overrides (link bandwidth, latencies,
// MSHRs, ...). Specs are inert data — the TimingRunner resolves a fresh
// sim.Config from the spec for every sweep cell, so the same spec can
// appear in many concurrent runs.
//
// SimSpec mirrors EngineSpec: the same protocol names, the same ways to
// pick a policy (a built-in PolicyName, Policy by value, an explicit
// Predictor configuration, or a custom NewPredictor factory), the same
// defaulting to the paper's standout predictor. The timing model
// simulates the three paper protocols (snooping, directory, multicast
// snooping): it needs the message semantics of a protocol, not just its
// accounting.
type SimSpec struct {
	// Protocol is ProtocolSnooping, ProtocolDirectory or
	// ProtocolMulticast. Empty selects ProtocolMulticast when a policy is
	// configured and is an error otherwise.
	Protocol string
	// PolicyName is a built-in prediction policy name ("owner",
	// "group", ...), matched case-insensitively, or the label of a
	// NewPredictor policy.
	PolicyName string
	// NewPredictor, when set, builds each node's predictor instead of a
	// built-in policy; PolicyName must label it. As for EngineSpec, specs
	// carrying one neither serialize nor use a result store.
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
	// CPU selects the processor model (§5.2): SimpleCPU (the zero value)
	// or DetailedCPU.
	CPU CPUModel
	// Nodes overrides the system size; 0 inherits the workload's.
	Nodes int

	// Table-4 knob overrides. Zero values keep the paper's target system
	// (10 B/ns links, 50 ns traversal, 12 ns L2, 80 ns memory, 64-entry
	// ROB, 8 MSHRs, 4 attempts).
	//
	// LinkBytesPerNs is the per-link bandwidth in bytes per nanosecond.
	LinkBytesPerNs float64
	// TraversalNs is the unloaded node-to-node interconnect latency.
	TraversalNs float64
	// L2LatencyNs is the owner's cache lookup before responding.
	L2LatencyNs float64
	// MemLatencyNs is the DRAM/directory access latency at the home.
	MemLatencyNs float64
	// MSHRs bounds outstanding misses per node (detailed model).
	MSHRs int
	// ROBWindow is the detailed model's reorder-buffer size.
	ROBWindow int
	// MaxAttempts bounds multicast retries (the last attempt broadcasts).
	MaxAttempts int

	// Label overrides the spec's display label in results and
	// observations; empty derives one from the protocol and policy.
	Label string
}

// simProtocol maps the protocol name onto the timing model's
// protocol enum.
func (s SimSpec) simProtocol() (sim.Protocol, error) {
	name := s.Protocol
	if name == "" {
		if s.hasPolicy() {
			return sim.Multicast, nil
		}
		return 0, fmt.Errorf("destset: sim spec needs a protocol or a policy")
	}
	switch name {
	case ProtocolSnooping:
		return sim.Snooping, nil
	case ProtocolDirectory:
		return sim.Directory, nil
	case ProtocolMulticast:
		return sim.Multicast, nil
	default:
		return 0, fmt.Errorf("destset: timing model cannot simulate engine %q (supported: %s, %s, %s)",
			name, ProtocolSnooping, ProtocolDirectory, ProtocolMulticast)
	}
}

// policy returns the spec's policy selection.
func (s SimSpec) policy() policySelection {
	return policySelection{s.PolicyName, s.Policy, s.UsePolicy, s.Predictor, s.NewPredictor}
}

func (s SimSpec) hasPolicy() bool { return s.policy().set() }

// DisplayLabel returns the label used for this spec in results and
// observations.
func (s SimSpec) DisplayLabel() string {
	if s.Label != "" {
		return s.Label
	}
	name := s.Protocol
	if name == "" && s.hasPolicy() {
		name = ProtocolMulticast
	}
	if name == "" {
		name = "sim"
	}
	return name + s.policy().suffix()
}

// validate resolves the spec's names eagerly, so that a typo'd policy or
// protocol fails before any sweep work starts (the TimingRunner calls it
// for every sim spec up front).
func (s SimSpec) validate() error {
	if _, err := s.simProtocol(); err != nil {
		return err
	}
	if err := s.policy().validate(); err != nil {
		return err
	}
	if s.LinkBytesPerNs < 0 || s.TraversalNs < 0 || s.L2LatencyNs < 0 || s.MemLatencyNs < 0 ||
		s.MSHRs < 0 || s.ROBWindow < 0 || s.MaxAttempts < 0 {
		return fmt.Errorf("destset: sim spec %q has a negative knob override", s.DisplayLabel())
	}
	return nil
}

// nsTime converts a float nanosecond knob to simulator time.
func nsTime(ns float64) event.Time {
	return event.Time(ns * float64(event.Nanosecond))
}

// Resolve turns the spec into a concrete sim.Config for a system of the
// given node count (0 uses the spec's own Nodes, which must then be
// set). The result starts from the paper's Table 4 target
// (DefaultSimConfig) and applies the spec's overrides.
func (s SimSpec) Resolve(nodes int) (SimConfig, error) {
	if s.Nodes > 0 {
		nodes = s.Nodes
	}
	if nodes <= 0 {
		return SimConfig{}, fmt.Errorf("destset: sim spec %q needs a node count", s.DisplayLabel())
	}
	proto, err := s.simProtocol()
	if err != nil {
		return SimConfig{}, err
	}
	cfg := sim.DefaultConfig(proto)
	cfg.Nodes = nodes
	cfg.Interconnect.Nodes = nodes
	cfg.Coherence.Nodes = nodes
	cfg.CPU = sim.CPUModel(s.CPU)
	// A multicast spec without an explicit policy keeps DefaultConfig's
	// predictor (the paper's standout Group configuration).
	if proto == sim.Multicast && s.hasPolicy() {
		pc, newBank, err := s.policy().bank(nodes)
		if err != nil {
			return SimConfig{}, err
		}
		cfg.Predictor = pc
		// A named policy reaches the simulator as a bank constructor,
		// labeled by its name.
		if s.PolicyName != "" {
			cfg.NewBank = newBank
			cfg.Label = "Multicast+" + predictor.CanonicalName(s.PolicyName)
		}
	}
	if s.LinkBytesPerNs > 0 {
		cfg.Interconnect.BytesPerNs = s.LinkBytesPerNs
	}
	if s.TraversalNs > 0 {
		cfg.Interconnect.Traversal = nsTime(s.TraversalNs)
	}
	if s.L2LatencyNs > 0 {
		cfg.L2Latency = nsTime(s.L2LatencyNs)
	}
	if s.MemLatencyNs > 0 {
		cfg.MemLatency = nsTime(s.MemLatencyNs)
	}
	if s.MSHRs > 0 {
		cfg.MSHRs = s.MSHRs
	}
	if s.ROBWindow > 0 {
		cfg.ROBWindow = s.ROBWindow
	}
	if s.MaxAttempts > 0 {
		cfg.MaxAttempts = s.MaxAttempts
	}
	if s.Label != "" {
		cfg.Label = s.Label
	}
	return cfg, nil
}
