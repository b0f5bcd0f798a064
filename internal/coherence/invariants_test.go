package coherence_test

import (
	"testing"

	"destset/internal/coherence"
	"destset/internal/ingest"
	"destset/internal/trace"
	"destset/internal/workload"
)

// replayChecked applies recs to a fresh system under cfg and checks the
// directory/cache invariants every 1024 records and at the end.
func replayChecked(t *testing.T, cfg coherence.Config, recs []trace.Record) {
	t.Helper()
	s := coherence.NewSystem(cfg)
	for i, r := range recs {
		s.Apply(r)
		if (i+1)%1024 == 0 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("exclusive=%v, after %d records: %v", cfg.Exclusive, i+1, err)
			}
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("exclusive=%v, after %d records: %v", cfg.Exclusive, len(recs), err)
	}
}

// TestInvariantsOnPaperWorkloads replays 20k warm + 20k measured misses
// of each paper workload through the production oracle with the
// invariants checked along the way, under MOSI (the paper's protocol,
// which generated the traces) and MOESI.
func TestInvariantsOnPaperWorkloads(t *testing.T) {
	for _, name := range workload.PaperNames() {
		t.Run(name, func(t *testing.T) {
			p, err := workload.Preset(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			g, err := workload.New(p)
			if err != nil {
				t.Fatal(err)
			}
			warm, _ := g.Generate(20_000)
			measured, _ := g.Generate(20_000)
			if err := g.System().CheckInvariants(); err != nil {
				t.Fatalf("generator oracle: %v", err)
			}
			recs := append(warm.Records, measured.Records...)
			cfg := g.System().Config()
			replayChecked(t, cfg, recs)
			cfg.Exclusive = true
			replayChecked(t, cfg, recs)
		})
	}
}

// TestInvariantsOnImportedTrace does the same for the checked-in
// imported trace fixture, under the MOSI oracle that annotated it. (Every
// imported line is a miss by definition; under MOESI some of the
// fixture's reads come from a node holding the block Exclusive, which is
// a hit that Apply does not model.)
func TestInvariantsOnImportedTrace(t *testing.T) {
	ds, err := ingest.ImportFile("../../testdata/ingest/sample_1k.csv", ingest.FormatCSV, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := coherence.DefaultConfig()
	cfg.Nodes = ds.Params().Nodes
	recs := make([]trace.Record, ds.Len())
	for i := range recs {
		recs[i] = ds.RecordAt(i)
	}
	replayChecked(t, cfg, recs)
}
