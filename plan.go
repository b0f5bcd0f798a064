package destset

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"destset/internal/sweep"
)

// Sweep plans. A Runner's or TimingRunner's cells have always run in one
// deterministic order; SweepPlan names that order: every cell gets a
// stable CellID (a fingerprint of spec × workload × seed plus the
// measurement scale) and the plan is fingerprinted over its cells. Two
// processes that build the same runner — same specs, seeds, scale — in
// any order of events compute byte-identical plans, which is what makes
// sharded execution safe: shard processes agree on the cell index space
// up front, and merge tools reject outputs whose plan fingerprints
// differ instead of silently combining different experiments.

// PlanCell is the stable identity of one sweep cell.
type PlanCell = sweep.CellID

// Plan kinds, naming which runner a plan (and a shard manifest) belongs
// to.
const (
	PlanKindTrace  = "trace"  // trace-driven Runner cells
	PlanKindTiming = "timing" // execution-driven TimingRunner cells
)

// SweepPlan is a runner's full cell list in execution order
// (workload-major: for each workload, for each engine/sim spec, for each
// seed), with a stable fingerprint over the whole.
type SweepPlan struct {
	kind string
	plan *sweep.Plan
}

// Kind returns PlanKindTrace or PlanKindTiming.
func (p *SweepPlan) Kind() string { return p.kind }

// Len returns the number of cells.
func (p *SweepPlan) Len() int { return p.plan.Len() }

// Cell returns cell i in execution order.
func (p *SweepPlan) Cell(i int) PlanCell { return p.plan.Cell(i) }

// Cells returns every cell in execution order. The returned slice is
// shared; do not mutate.
func (p *SweepPlan) Cells() []PlanCell { return p.plan.Cells() }

// Fingerprint returns the plan's stable fingerprint: a pure function of
// the runner's kind, specs, workloads, scale and seeds, identical across
// processes.
func (p *SweepPlan) Fingerprint() string { return p.plan.Fingerprint() }

// ShardIndices returns the global cell indices shard shard of shards
// executes (see WithShard).
func (p *SweepPlan) ShardIndices(shard, shards int) ([]int, error) {
	return p.plan.Shard(shard, shards)
}

// Manifest returns the shard-manifest record describing shard shard of
// shards of this plan, as written at the head of a shard's JSONL
// observation file.
func (p *SweepPlan) Manifest(shard, shards int) ShardManifest {
	if shards <= 1 {
		shard, shards = 0, 1
	}
	return ShardManifest{
		Format:  ManifestFormat,
		Version: ManifestVersion,
		Kind:    p.kind,
		Plan:    p.Fingerprint(),
		Shard:   shard,
		Shards:  shards,
		Cells:   p.Cells(),
	}
}

// Attribution returns the function that attributes one JSONL
// observation record to the plan index of the cell it belongs to — the
// one decoder behind MergeStreams, MergeObservations and the distributed
// coordinator's upload check. Records name their cell by (label,
// workload, seed): trace records by Engine, timing records by Sim. A
// plan whose cells are not uniquely labeled cannot attribute records and
// is refused up front.
func (p *SweepPlan) Attribution() (func(record []byte) (int, error), error) {
	type cellKey struct {
		label, workload string
		seed            uint64
	}
	index := make(map[cellKey]int, p.Len())
	for i, c := range p.Cells() {
		key := cellKey{c.Engine, c.Workload, c.Seed}
		if _, dup := index[key]; dup {
			return nil, fmt.Errorf("destset: plan has two cells labeled (%s, %s, seed %d); records cannot be attributed — give the specs distinct labels",
				c.Engine, c.Workload, c.Seed)
		}
		index[key] = i
	}
	timing := p.kind == PlanKindTiming
	return func(record []byte) (int, error) {
		var probe struct {
			Engine, Sim, Workload string
			Seed                  uint64
		}
		if err := json.Unmarshal(record, &probe); err != nil {
			return 0, err
		}
		key := cellKey{probe.Engine, probe.Workload, probe.Seed}
		if timing {
			key.label = probe.Sim
		}
		i, ok := index[key]
		if !ok {
			return 0, fmt.Errorf("record names cell (%s, %s, seed %d) not in the plan", key.label, key.workload, key.seed)
		}
		return i, nil
	}, nil
}

// ParseShard parses the "i/n" shard selector the cmds accept as their
// -shard flag — the textual form of WithShard(i, n). "" means
// unsharded (0, 0); anything else must be exactly two integers with
// 0 <= i < n.
func ParseShard(s string) (shard, shards int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	left, right, ok := strings.Cut(s, "/")
	if ok {
		var errI, errN error
		shard, errI = strconv.Atoi(left)
		shards, errN = strconv.Atoi(right)
		ok = errI == nil && errN == nil && shards >= 1 && shard >= 0 && shard < shards
	}
	if !ok {
		return 0, 0, fmt.Errorf("destset: invalid shard %q (want i/n with 0 <= i < n)", s)
	}
	return shard, shards, nil
}

// scaleOf applies the runner's default measurement scale to a spec's
// own: 0 inherits the default, negative means "explicitly none".
func scaleOf(specWarm, specMeasure, defWarm, defMeasure int) (warm, measure int) {
	warm, measure = specWarm, specMeasure
	if warm == 0 {
		warm = defWarm
	}
	if measure == 0 {
		measure = defMeasure
	}
	if warm < 0 {
		warm = 0
	}
	if measure < 0 {
		measure = 0
	}
	return warm, measure
}

// fingerprintEngineSpec renders an EngineSpec canonically: every field
// that affects the built engine, with pointer fields dereferenced so the
// rendering is stable across processes.
func fingerprintEngineSpec(s EngineSpec) string {
	pred := ""
	if s.Predictor != nil {
		pred = fmt.Sprintf("%#v", *s.Predictor)
	}
	return fmt.Sprintf("engine|protocol=%s|policyName=%s|policy=%d|usePolicy=%t|predictor=%s|nodes=%d|label=%s",
		s.Protocol, s.PolicyName, int(s.Policy), s.UsePolicy, pred, s.Nodes, s.Label)
}

// fingerprintSimSpec renders a SimSpec canonically, including every
// Table-4 knob override.
func fingerprintSimSpec(s SimSpec) string {
	pred := ""
	if s.Predictor != nil {
		pred = fmt.Sprintf("%#v", *s.Predictor)
	}
	return fmt.Sprintf("sim|protocol=%s|policyName=%s|policy=%d|usePolicy=%t|predictor=%s|cpu=%d|nodes=%d|link=%g|traversal=%g|l2=%g|mem=%g|mshrs=%d|rob=%d|attempts=%d|label=%s",
		s.Protocol, s.PolicyName, int(s.Policy), s.UsePolicy, pred, int(s.CPU), s.Nodes,
		s.LinkBytesPerNs, s.TraversalNs, s.L2LatencyNs, s.MemLatencyNs, s.MSHRs, s.ROBWindow, s.MaxAttempts, s.Label)
}

// fingerprintWorkloadSpec renders a WorkloadSpec canonically at its
// resolved scale. Name- and Params-based specs fingerprint their full
// generation identity; a custom Open source contributes only its label
// and shape — processes sharding a sweep over custom sources are
// responsible for supplying the same stream on every shard.
func fingerprintWorkloadSpec(s WorkloadSpec, defWarm, defMeasure int) string {
	warm, measure := scaleOf(s.Warm, s.Measure, defWarm, defMeasure)
	src := ""
	switch {
	case s.Open != nil:
		src = "open:" + s.label()
	case s.Params != nil:
		src = "params:" + fmt.Sprintf("%#v", *s.Params)
	default:
		src = "name:" + s.Name
	}
	return fmt.Sprintf("workload|%s|nodes=%d|warm=%d|measure=%d", src, s.Nodes, warm, measure)
}
