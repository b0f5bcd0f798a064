package experiments

import (
	"reflect"
	"testing"

	"destset"
	"destset/internal/workload"
)

// TestFigureDef pins the one figure-selection mapping: each figure's
// scale lands on that figure's Options fields, 0 keeps the figure's
// default, and malformed selections are refused.
func TestFigureDef(t *testing.T) {
	planFingerprint := func(def destset.SweepDef, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		plan, err := def.Plan()
		if err != nil {
			t.Fatal(err)
		}
		return plan.Fingerprint()
	}
	base := DefaultOptions()
	base.Workloads = []string{"oltp", "ocean"}
	scaled := base
	scaled.WarmMisses, scaled.Misses = 1000, 2000
	scaled.TimedWarmMisses, scaled.TimedMisses = 1000, 2000
	for _, tc := range []struct {
		fig int
		def func(Options) (destset.SweepDef, error)
	}{
		{5, TradeoffSweepDef},
		{7, func(o Options) (destset.SweepDef, error) { return TimingSweepDef(o, destset.SimpleCPU) }},
		{8, func(o Options) (destset.SweepDef, error) { return TimingSweepDef(o, destset.DetailedCPU) }},
	} {
		want := planFingerprint(tc.def(scaled))
		if got := planFingerprint(FigureDef(base, tc.fig, 1000, 2000)); got != want {
			t.Errorf("figure %d at 1000/2000: plan %s, want %s", tc.fig, got, want)
		}
		want = planFingerprint(tc.def(base))
		if got := planFingerprint(FigureDef(base, tc.fig, 0, 0)); got != want {
			t.Errorf("figure %d at 0/0: plan %s, want the default-scale plan %s", tc.fig, got, want)
		}
	}

	filtered := base
	filtered.Protocols = []string{"owner"}
	if _, err := FigureDef(filtered, 7, 0, 0); err != nil {
		t.Errorf("figure 7 refused a protocol filter: %v", err)
	}
	unknown := base
	unknown.Workloads = []string{"nosuch"}
	for _, tc := range []struct {
		name              string
		opt               Options
		fig, warm, misses int
	}{
		{"figure 6", base, 6, 0, 0},
		{"figure 0", base, 0, 0, 0},
		{"negative warm", base, 7, -1, 0},
		{"negative misses", base, 5, 0, -1},
		{"protocol filter on figure 5", filtered, 5, 0, 0},
		{"unknown workload", unknown, 5, 0, 0},
	} {
		if _, err := FigureDef(tc.opt, tc.fig, tc.warm, tc.misses); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestFigure5IncludesExtraWorkloads checks that an ExtraWorkloads spec
// gets its own Figure 5 panel, with the same points as the preset it
// was built from.
func TestFigure5IncludesExtraWorkloads(t *testing.T) {
	opt := quick(t)
	opt.WarmMisses, opt.Misses = 2000, 2000
	opt.Workloads = []string{"tenant-mix"}
	named, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}

	p, err := workload.Preset("tenant-mix", opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workloads = []string{"oltp"}
	opt.ExtraWorkloads = []destset.WorkloadSpec{{Name: "extra-tenants", Params: &p, Warm: 2000, Measure: 2000}}
	panels, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(panels) != 2 || panels[0].Workload != "oltp" || panels[1].Workload != "extra-tenants" {
		t.Fatalf("Figure 5 panels %+v, want oltp then extra-tenants", panels)
	}
	if !reflect.DeepEqual(panels[1].Points, named[0].Points) {
		t.Errorf("extra panel points %+v, want the tenant-mix preset's %+v", panels[1].Points, named[0].Points)
	}
}
