// Workload source kinds beyond plain generation: imported external
// traces, phased sequences, multi-tenant mixes and bandwidth-regulated
// variants. All of them are described entirely by Params — value fields
// only, so the dataset store's %#v fingerprint and the sweep plan
// fingerprints cover them with no new machinery — and all of them open
// through Open, which dispatches on the source kind.
package workload

import (
	"fmt"
	"math"

	"destset/internal/coherence"
	"destset/internal/nodeset"
	"destset/internal/trace"
)

// SourceKind classifies how a workload's miss stream comes to exist.
type SourceKind string

const (
	// KindGenerated is a plain synthetic pattern-mixture workload.
	KindGenerated SourceKind = "generated"
	// KindImported marks a trace ingested from an external file; it can
	// only be replayed from its recorded dataset, never regenerated.
	KindImported SourceKind = "imported"
	// KindPhased cycles through sub-workloads with per-phase miss budgets.
	KindPhased SourceKind = "phased"
	// KindTenantMix interleaves K independent sub-workload instances on
	// one coherence protocol with per-tenant address-space offsets.
	KindTenantMix SourceKind = "tenant-mix"
)

// Kind reports the workload's source kind. Regulation is orthogonal: a
// regulated workload keeps the kind of its base.
func (p Params) Kind() SourceKind {
	switch {
	case p.Import.Enabled():
		return KindImported
	case len(p.Phases) > 0:
		return KindPhased
	case len(p.Tenants) > 0:
		return KindTenantMix
	default:
		return KindGenerated
	}
}

// Import identifies an externally ingested trace. The zero value means
// "not imported". The fields pin the imported content — format, a
// SHA-256 of the raw input bytes, and the record count — so two imports
// of different files can never share a dataset key.
type Import struct {
	// Format is the source text format ("csv" or "text").
	Format string
	// SHA256 is the hex digest of the raw imported bytes.
	SHA256 string
	// Records is the number of imported misses.
	Records int
}

// Enabled reports whether these parameters describe an imported trace.
func (im Import) Enabled() bool { return im != Import{} }

// Phase is one segment of a phased workload: a sub-workload and how many
// misses it emits before the next phase takes over. Phases cycle.
type Phase struct {
	// Misses is the phase's per-cycle miss budget.
	Misses int
	// Params is the phase's sub-workload; it must be a plain generated
	// workload with the parent's node count.
	Params Params
}

// Regulation is an LMS-style adaptive bandwidth-regulation knob: each
// CPU keeps a trailing estimate of its interconnect bytes per 1000
// instructions and, when the estimate exceeds the target, stretches its
// instruction gaps (throttles its issue rate) proportionally. The zero
// value disables regulation.
type Regulation struct {
	// TargetBytesPer1K is the per-CPU bandwidth budget in interconnect
	// bytes per 1000 instructions.
	TargetBytesPer1K float64
	// Mu is the LMS adaptation step in (0, 1]: the trailing estimate
	// moves Mu of the way toward each observation.
	Mu float64
	// MaxThrottle caps the gap stretch factor (>= 1).
	MaxThrottle float64
}

// Enabled reports whether regulation is configured.
func (r Regulation) Enabled() bool { return r != Regulation{} }

func (r Regulation) validate(name string) error {
	switch {
	case r.TargetBytesPer1K <= 0:
		return fmt.Errorf("workload %q: regulation needs a positive bandwidth target", name)
	case r.Mu <= 0 || r.Mu > 1:
		return fmt.Errorf("workload %q: regulation step %v outside (0, 1]", name, r.Mu)
	case r.MaxThrottle < 1:
		return fmt.Errorf("workload %q: regulation throttle cap %v below 1", name, r.MaxThrottle)
	}
	return nil
}

// Source produces a workload's miss stream: one coherence request plus
// its oracle annotation per Next call, with the oracle exposed for
// block-statistics snapshots. *Generator implements Source; so do the
// composed sources Open builds.
type Source interface {
	Next() (trace.Record, coherence.MissInfo)
	System() *coherence.System
}

// Open builds the workload's miss-stream source, dispatching on the
// source kind: a plain generator, a phased sequence, or a tenant mix —
// each optionally wrapped in the bandwidth regulator. Imported workloads
// refuse: their stream exists only as a recorded dataset.
func Open(p Params) (Source, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var src Source
	var err error
	switch p.Kind() {
	case KindImported:
		return nil, fmt.Errorf("workload %q: imported traces cannot be regenerated; load the dataset written by tracegen -import from a dataset directory", p.Name)
	case KindPhased:
		src, err = openPhased(p)
	case KindTenantMix:
		src, err = openTenantMix(p)
	default:
		src, err = newGenerator(p, nil)
	}
	if err != nil {
		return nil, err
	}
	if p.Regulate.Enabled() {
		src = &regulatedSource{
			src:    src,
			target: p.Regulate.TargetBytesPer1K,
			mu:     p.Regulate.Mu,
			maxT:   p.Regulate.MaxThrottle,
			est:    make([]float64, p.Nodes),
		}
	}
	return src, nil
}

// subSeed derives the i-th sub-workload's seed from the composed
// workload's top-level seed (a splitmix64 step), so sub-Params carry
// Seed 0 in the fingerprint and per-cell seed sweeps still decorrelate
// every component.
func subSeed(seed uint64, i int) uint64 {
	z := seed + 0x9E3779B97F4A7C15*uint64(i+1)
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ z>>31
}

// openSub builds one component generator on the shared oracle, filling
// the fields composition owns: the parent's node count and a derived
// seed.
func openSub(parent Params, sub Params, i int, sys *coherence.System) (*Generator, error) {
	sub.Nodes = parent.Nodes
	sub.Seed = subSeed(parent.Seed, i)
	return newGenerator(sub, sys)
}

// phasedSource cycles through component generators, each emitting its
// per-cycle miss budget before yielding. All phases share one coherence
// oracle and one address layout, so a phase change retrains predictors
// against state the previous phase left behind.
type phasedSource struct {
	gens    []*Generator
	budgets []int
	cur     int
	left    int
}

func openPhased(p Params) (*phasedSource, error) {
	sys := systemFor(p)
	s := &phasedSource{
		gens:    make([]*Generator, len(p.Phases)),
		budgets: make([]int, len(p.Phases)),
	}
	for i, ph := range p.Phases {
		g, err := openSub(p, ph.Params, i, sys)
		if err != nil {
			return nil, fmt.Errorf("workload %q: phase %d: %w", p.Name, i, err)
		}
		s.gens[i] = g
		s.budgets[i] = ph.Misses
	}
	s.left = s.budgets[0]
	return s, nil
}

// System returns the shared oracle (every phase runs on the same one).
func (s *phasedSource) System() *coherence.System { return s.gens[0].System() }

// Next emits the current phase's next miss, advancing to the next phase
// when the budget runs out.
func (s *phasedSource) Next() (trace.Record, coherence.MissInfo) {
	for s.left == 0 {
		s.cur = (s.cur + 1) % len(s.gens)
		s.left = s.budgets[s.cur]
	}
	s.left--
	return s.gens[s.cur].Next()
}

// tenantSource interleaves K independent sub-workload instances
// round-robin, one miss each, on one shared protocol. Tenants occupy
// disjoint address ranges (AddrOffsetMacroblocks) but contend for the
// same caches and predictors — the multi-tenant traffic case.
type tenantSource struct {
	gens []*Generator
	next int
}

func openTenantMix(p Params) (*tenantSource, error) {
	sys := systemFor(p)
	s := &tenantSource{gens: make([]*Generator, len(p.Tenants))}
	for i, t := range p.Tenants {
		g, err := openSub(p, t, i, sys)
		if err != nil {
			return nil, fmt.Errorf("workload %q: tenant %d: %w", p.Name, i, err)
		}
		s.gens[i] = g
	}
	return s, nil
}

// System returns the shared oracle.
func (s *tenantSource) System() *coherence.System { return s.gens[0].System() }

// Next emits the next tenant's next miss, strictly round-robin so the
// interleave is deterministic.
func (s *tenantSource) Next() (trace.Record, coherence.MissInfo) {
	g := s.gens[s.next]
	s.next = (s.next + 1) % len(s.gens)
	return g.Next()
}

// Interconnect byte proxies the regulator charges per miss: one control
// message per destination plus one data transfer.
const (
	regControlBytes = 8
	regDataBytes    = 64
)

// regulatedSource throttles per-CPU issue rate from a trailing bandwidth
// estimate: when a CPU's estimated bytes per 1000 instructions exceeds
// the target, its instruction gaps stretch by est/target (capped), which
// feeds back into the estimate — a closed LMS loop in deterministic
// float64 arithmetic.
type regulatedSource struct {
	src    Source
	target float64
	mu     float64
	maxT   float64
	est    []float64 // per-CPU trailing bytes per 1000 instructions
}

// System returns the base source's oracle.
func (s *regulatedSource) System() *coherence.System { return s.src.System() }

// Next returns the base stream's next miss with its gap stretched when
// the requester is over budget, then folds the (throttled) observation
// into the requester's trailing estimate.
func (s *regulatedSource) Next() (trace.Record, coherence.MissInfo) {
	rec, mi := s.src.Next()
	req := int(rec.Requester)
	if est := s.est[req]; est > s.target {
		f := est / s.target
		if f > s.maxT {
			f = s.maxT
		}
		g := float64(rec.Gap) * f
		if g > math.MaxUint32 {
			g = math.MaxUint32
		}
		rec.Gap = uint32(g)
	}
	need := mi.Needed(nodeset.NodeID(rec.Requester), rec.Kind)
	obs := 1000 * float64(regControlBytes*need.Count()+regDataBytes) / float64(rec.Gap)
	s.est[req] += s.mu * (obs - s.est[req])
	return rec, mi
}

// Phased composes sub-workloads into a phase sequence cycling with the
// given per-phase miss budgets. Sub-workload Nodes and Seed fields are
// normalized (composition owns both); the top-level miss rate is the
// budget-weighted harmonic combination of the phases', so gap rescaling
// matches the blended stream.
func Phased(name string, nodes int, phases ...Phase) (Params, error) {
	p := Params{Name: name, Nodes: nodes, Phases: make([]Phase, len(phases))}
	var instr, misses float64
	for i, ph := range phases {
		sp := ph.Params
		sp.Nodes = nodes
		sp.Seed = 0
		p.Phases[i] = Phase{Misses: ph.Misses, Params: sp}
		if sp.MissesPer1000Instr > 0 {
			instr += float64(ph.Misses) * 1000 / sp.MissesPer1000Instr
			misses += float64(ph.Misses)
		}
	}
	if instr > 0 {
		p.MissesPer1000Instr = misses * 1000 / instr
	}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// TenantMix composes k independent instances of base interleaved on one
// protocol. Each tenant's address layout is offset by the base span so
// tenants never share blocks, only caches and predictors.
func TenantMix(name string, base Params, k int) (Params, error) {
	if k < 2 {
		return Params{}, fmt.Errorf("workload %q: a tenant mix needs at least 2 tenants, got %d", name, k)
	}
	stride := base.SpanMacroblocks()
	tenants := make([]Params, k)
	for i := range tenants {
		t := base
		t.Seed = 0
		t.AddrOffsetMacroblocks = base.AddrOffsetMacroblocks + i*stride
		tenants[i] = t
	}
	p := Params{
		Name:               name,
		Nodes:              base.Nodes,
		Tenants:            tenants,
		MissesPer1000Instr: base.MissesPer1000Instr,
	}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// Regulated returns base with the bandwidth-regulation knob attached.
// The base may be generated, phased or a tenant mix — regulation wraps
// whatever stream it produces.
func Regulated(base Params, reg Regulation) (Params, error) {
	p := base
	p.Regulate = reg
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// SpanMacroblocks returns the macroblock span of a generated workload's
// address layout — shared units then per-node streaming regions — from
// the parameters alone. TenantMix uses it as the per-tenant address
// stride.
func (p Params) SpanMacroblocks() int {
	shares := []float64{p.Mix.Migratory, p.Mix.ProducerConsumer, p.Mix.WidelyShared}
	total := shares[0] + shares[1] + shares[2]
	units := 0
	if total > 0 {
		for _, s := range shares {
			c := int(float64(p.SharedUnits) * s / total)
			if s > 0 && c == 0 {
				c = 1
			}
			units += c
		}
	}
	streamBlocks := p.Nodes * p.StreamBlocksPerNode
	streamMB := (streamBlocks + trace.BlocksPerMacroblock - 1) / trace.BlocksPerMacroblock
	return units*p.MacroblocksPerUnit + streamMB
}

// PaperNames returns the paper's six benchmark names — the calibrated
// presets behind Tables 1–2, as opposed to the composition presets.
func PaperNames() []string {
	return []string{"apache", "barnes-hut", "ocean", "oltp", "slashcode", "specjbb"}
}

// composeBase is the small synthetic base the composition presets
// build on: modest footprint (so K offset instances stay cheap)
// with the usual pattern mixture knobs.
func composeBase(name string, mix Mix) Params {
	return Params{
		Name:  name,
		Nodes: 16,
		Mix:   mix,

		SharedUnits:        800,
		BlocksPerUnit:      8,
		MacroblocksPerUnit: 1,
		UnitZipfTheta:      0.95,

		GroupSizeWeights:       []float64{0, 0, 3, 2, 1, 0, 0, 0, 1},
		HotUnitsGetLargeGroups: true,
		MigratoryReadFirst:     0.6,
		WidelyWriteFraction:    0.2,

		StreamBlocksPerNode: 8 << 10,
		StreamWriteFraction: 0.3,

		MissesPer1000Instr: 4,
		StaticPCs:          4096,
		PCZipfTheta:        0.9,
	}
}

// PhasedPreset is the "phased" workload: a migratory-dominated
// phase alternating with a producer-consumer phase on one oracle, so
// prediction value shifts every 12k misses.
func PhasedPreset(seed uint64) Params {
	mig := composeBase("phase-migratory",
		Mix{Migratory: 0.85, ProducerConsumer: 0.05, WidelyShared: 0.05, Streaming: 0.05})
	pc := composeBase("phase-producer-consumer",
		Mix{Migratory: 0.05, ProducerConsumer: 0.80, WidelyShared: 0.05, Streaming: 0.10})
	p, err := Phased("phased", 16,
		Phase{Misses: 12_000, Params: mig},
		Phase{Misses: 12_000, Params: pc})
	if err != nil {
		panic(err)
	}
	p.Seed = seed
	return p
}

// TenantMixPreset is the "tenant-mix" workload: three
// independent OLTP-like instances interleaved on one protocol at
// disjoint address offsets.
func TenantMixPreset(seed uint64) Params {
	base := composeBase("tenant-oltp",
		Mix{Migratory: 0.5, ProducerConsumer: 0.12, WidelyShared: 0.12, Streaming: 0.26})
	p, err := TenantMix("tenant-mix", base, 3)
	if err != nil {
		panic(err)
	}
	p.Seed = seed
	return p
}

// RegulatedPreset is the "regulated" workload: an
// Apache-like mix under the LMS bandwidth regulator, tuned so busy CPUs
// actually hit the budget and throttle.
func RegulatedPreset(seed uint64) Params {
	base := composeBase("regulated-base",
		Mix{Migratory: 0.6, ProducerConsumer: 0.15, WidelyShared: 0.15, Streaming: 0.10})
	p, err := Regulated(base, Regulation{TargetBytesPer1K: 250, Mu: 0.05, MaxThrottle: 8})
	if err != nil {
		panic(err)
	}
	p.Name = "regulated"
	p.Seed = seed
	return p
}
