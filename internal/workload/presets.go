package workload

import (
	"fmt"
	"sort"
	"strings"
)

// The six benchmark presets below model the workloads of the paper's
// Table 1, calibrated against the paper's own characterization:
//
//   - Table 2: misses per 1000 instructions, static instruction counts,
//     64B/1024B footprint density (BlocksPerUnit over the macroblock
//     span), and the percent of misses that indirect under a directory
//     protocol (the pattern mixture).
//   - Figure 2: instantaneous sharing (mostly 0-1 other processors).
//   - Figure 3: degree of sharing (most blocks private; most misses to
//     widely-touched blocks — except Ocean's pairwise column-block
//     neighbours).
//   - Figure 4: Zipf-skewed temporal and spatial locality of
//     cache-to-cache misses.
//
// Mixture weights are per-step; the realized per-miss fractions emerge
// from unit geometry and are validated in calibration_test.go.

// Apache: static web serving. High miss rate, very high cache-to-cache
// fraction (89%), migratory-dominated (worker pools hand request state
// around), with widely-shared metadata.
func Apache(seed uint64) Params {
	return Params{
		Name:  "apache",
		Nodes: 16,
		Seed:  seed,
		Mix:   Mix{Migratory: 0.62, ProducerConsumer: 0.15, WidelyShared: 0.16, Streaming: 0.07},

		SharedUnits:        4000,
		BlocksPerUnit:      10,
		MacroblocksPerUnit: 1,
		UnitZipfTheta:      1.0,

		GroupSizeWeights:       []float64{0, 0, 4, 3, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0.5},
		HotUnitsGetLargeGroups: true,
		MigratoryReadFirst:     0.5,
		WidelyWriteFraction:    0.30,

		StreamBlocksPerNode: 96 << 10,
		StreamWriteFraction: 0.30,

		MissesPer1000Instr: 5.9,
		StaticPCs:          18745,
		PCZipfTheta:        0.95,
	}
}

// BarnesHut: SPLASH-2 n-body. Tiny footprint, low miss rate, nearly all
// misses are sharing misses (96%): bodies are read-modify-written as the
// tree is traversed.
func BarnesHut(seed uint64) Params {
	return Params{
		Name:  "barnes-hut",
		Nodes: 16,
		Seed:  seed,
		Mix:   Mix{Migratory: 0.73, ProducerConsumer: 0.12, WidelyShared: 0.12, Streaming: 0.03},

		SharedUnits:        700,
		BlocksPerUnit:      13,
		MacroblocksPerUnit: 1,
		UnitZipfTheta:      0.85,

		GroupSizeWeights:       []float64{0, 0, 3, 2, 2, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0.3},
		HotUnitsGetLargeGroups: true,
		MigratoryReadFirst:     0.8,
		WidelyWriteFraction:    0.15,

		StreamBlocksPerNode: 96 << 10,
		StreamWriteFraction: 0.25,

		MissesPer1000Instr: 0.4,
		StaticPCs:          7912,
		PCZipfTheta:        0.9,
	}
}

// Ocean: SPLASH-2 stencil. Column-blocked layout makes sharing pairwise
// between grid neighbours (Figure 3b's exception), with a substantial
// streaming component (58% indirections only).
func Ocean(seed uint64) Params {
	return Params{
		Name:  "ocean",
		Nodes: 16,
		Seed:  seed,
		Mix:   Mix{Migratory: 0.41, ProducerConsumer: 0.42, WidelyShared: 0.02, Streaming: 0.15},

		SharedUnits:        2500,
		BlocksPerUnit:      14,
		MacroblocksPerUnit: 1,
		UnitZipfTheta:      0.6,

		GroupSizeWeights:       []float64{0, 0, 1}, // strictly pairwise
		HotUnitsGetLargeGroups: false,
		MigratoryReadFirst:     0.3,
		WidelyWriteFraction:    0.10,

		StreamBlocksPerNode: 96 << 10,
		StreamWriteFraction: 0.40,

		MissesPer1000Instr: 0.5,
		StaticPCs:          11384,
		PCZipfTheta:        0.8,
	}
}

// OLTP: DB2 running TPC-C-like transactions. Highest miss rate, 73%
// indirections, migratory read-modify-write of rows and index pages plus
// hot widely-shared lock/latch metadata.
func OLTP(seed uint64) Params {
	return Params{
		Name:  "oltp",
		Nodes: 16,
		Seed:  seed,
		Mix:   Mix{Migratory: 0.51, ProducerConsumer: 0.11, WidelyShared: 0.11, Streaming: 0.27},

		SharedUnits:        5000,
		BlocksPerUnit:      7,
		MacroblocksPerUnit: 1,
		UnitZipfTheta:      1.05,

		GroupSizeWeights:       []float64{0, 0, 4, 3, 2, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0.8},
		HotUnitsGetLargeGroups: true,
		MigratoryReadFirst:     0.7,
		WidelyWriteFraction:    0.30,

		StreamBlocksPerNode: 96 << 10,
		StreamWriteFraction: 0.35,

		MissesPer1000Instr: 7.0,
		StaticPCs:          21921,
		PCZipfTheta:        0.95,
	}
}

// Slashcode: dynamic web serving over MySQL. Largest streaming component
// (only 35% indirections), big footprint, modest locality.
func Slashcode(seed uint64) Params {
	return Params{
		Name:  "slashcode",
		Nodes: 16,
		Seed:  seed,
		Mix:   Mix{Migratory: 0.23, ProducerConsumer: 0.06, WidelyShared: 0.06, Streaming: 0.65},

		SharedUnits:        6000,
		BlocksPerUnit:      9,
		MacroblocksPerUnit: 1,
		UnitZipfTheta:      0.9,

		GroupSizeWeights:       []float64{0, 0, 4, 2, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0.4},
		HotUnitsGetLargeGroups: true,
		MigratoryReadFirst:     0.5,
		WidelyWriteFraction:    0.15,

		StreamBlocksPerNode: 128 << 10,
		StreamWriteFraction: 0.30,

		MissesPer1000Instr: 1.0,
		StaticPCs:          42770,
		PCZipfTheta:        0.9,
	}
}

// SPECjbb: server-side Java middleware. Warehouses partition most data
// (41% indirections) but the hottest shared blocks are extremely
// concentrated (Figure 4a: 1000 blocks cover 80% of sharing misses).
func SPECjbb(seed uint64) Params {
	return Params{
		Name:  "specjbb",
		Nodes: 16,
		Seed:  seed,
		Mix:   Mix{Migratory: 0.26, ProducerConsumer: 0.055, WidelyShared: 0.055, Streaming: 0.63},

		SharedUnits:        6000,
		BlocksPerUnit:      10,
		MacroblocksPerUnit: 1,
		UnitZipfTheta:      1.15,

		GroupSizeWeights:       []float64{0, 0, 3, 2, 2, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0.6},
		HotUnitsGetLargeGroups: true,
		MigratoryReadFirst:     0.6,
		WidelyWriteFraction:    0.18,

		StreamBlocksPerNode: 128 << 10,
		StreamWriteFraction: 0.30,

		MissesPer1000Instr: 3.3,
		StaticPCs:          24023,
		PCZipfTheta:        1.0,
	}
}

// presets maps workload names to their constructors: the six paper
// benchmarks plus the three composition presets (see compose.go).
var presets = map[string]func(seed uint64) Params{
	"apache":     Apache,
	"barnes-hut": BarnesHut,
	"ocean":      Ocean,
	"oltp":       OLTP,
	"slashcode":  Slashcode,
	"specjbb":    SPECjbb,
	"phased":     PhasedPreset,
	"tenant-mix": TenantMixPreset,
	"regulated":  RegulatedPreset,
}

// Names returns the preset workload names, sorted.
func Names() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Preset returns the named workload's parameters with the given seed.
// Names match case-insensitively.
func Preset(name string, seed uint64) (Params, error) {
	fn, ok := presets[strings.ToLower(strings.TrimSpace(name))]
	if !ok {
		return Params{}, fmt.Errorf("workload: unknown preset %q (have %v)", name, Names())
	}
	return fn(seed), nil
}

// All returns every preset workload with the given seed, in Names order.
func All(seed uint64) []Params {
	out := make([]Params, 0, len(presets))
	for _, n := range Names() {
		out = append(out, presets[n](seed))
	}
	return out
}

// PaperIndirections records the paper's Table 2 "directory indirections"
// column: the fraction of misses that indirect under a directory protocol.
// Calibration tests check the generators land near these.
var PaperIndirections = map[string]float64{
	"apache":     89,
	"barnes-hut": 96,
	"ocean":      58,
	"oltp":       73,
	"slashcode":  35,
	"specjbb":    41,
}
