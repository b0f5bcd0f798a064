package experiments

import (
	"destset"
	"destset/internal/predictor"
	"destset/internal/trace"
)

// TradeoffPoint is one point on the latency/bandwidth plane of Figures 5
// and 6: request messages per miss (x) versus percent of misses that
// indirect (y).
type TradeoffPoint struct {
	Config         string
	MsgsPerMiss    float64
	IndirectionPct float64
	BytesPerMiss   float64
}

// WorkloadTradeoff is one workload's Figure 5 panel.
type WorkloadTradeoff struct {
	Workload string
	Points   []TradeoffPoint
}

// Figure5 reproduces the standout predictor comparison: snooping,
// directory and the four policies at 8192 entries with 1024-byte
// macroblock indexing, for every workload (§4.3) plus one panel per
// extra workload. It runs TradeoffSweepDef.
func Figure5(opt Options) ([]WorkloadTradeoff, error) {
	def, err := TradeoffSweepDef(opt)
	if err != nil {
		return nil, err
	}
	return opt.tradeoffPanels(def)
}

// policies under sensitivity study, in the paper's legend order.
var sensitivityPolicies = []predictor.Policy{
	predictor.Owner,
	predictor.BroadcastIfShared,
	predictor.Group,
	predictor.OwnerGroup,
}

// predictorSpec wraps an explicit predictor configuration as a multicast
// engine spec.
func predictorSpec(cfg predictor.Config) destset.EngineSpec {
	c := cfg
	return destset.EngineSpec{Predictor: &c}
}

// sensitivityPoints sweeps the specs over the Figure 6 workload (OLTP
// in the paper).
func sensitivityPoints(opt Options, specs []destset.EngineSpec) ([]TradeoffPoint, error) {
	panels, err := opt.runTradeoff(specs, opt.traceWorkloads("oltp"))
	if err != nil {
		return nil, err
	}
	return panels[0].Points, nil
}

// Figure6a compares data-block (64B) and PC indexing with unbounded
// predictors on OLTP (§4.4).
func Figure6a(opt Options) ([]TradeoffPoint, error) {
	specs := baselineSpecs()
	for _, pol := range sensitivityPolicies {
		for _, ix := range []predictor.Indexing{
			{Mode: predictor.ByBlock, MacroblockBytes: trace.BlockBytes},
			{Mode: predictor.ByPC},
		} {
			specs = append(specs, predictorSpec(predictor.Config{Policy: pol, Entries: 0, Indexing: ix}))
		}
	}
	return sensitivityPoints(opt, specs)
}

// Figure6b compares 64B, 256B and 1024B macroblock indexing with
// unbounded predictors on OLTP (§4.4).
func Figure6b(opt Options) ([]TradeoffPoint, error) {
	specs := baselineSpecs()
	for _, pol := range sensitivityPolicies {
		for _, mb := range []int{64, 256, 1024} {
			specs = append(specs, predictorSpec(predictor.Config{
				Policy:   pol,
				Entries:  0,
				Indexing: predictor.Indexing{Mode: predictor.ByBlock, MacroblockBytes: mb},
			}))
		}
	}
	return sensitivityPoints(opt, specs)
}

// Figure6c compares unbounded, 32768-entry and 8192-entry predictors
// (1024B macroblocks) and the prior-work StickySpatial(1) baseline across
// sizes, on OLTP (§4.4).
func Figure6c(opt Options) ([]TradeoffPoint, error) {
	specs := baselineSpecs()
	for _, pol := range sensitivityPolicies {
		for _, entries := range []int{0, 32768, 8192} {
			specs = append(specs, predictorSpec(predictor.Config{
				Policy:   pol,
				Entries:  entries,
				Ways:     4,
				Indexing: predictor.Indexing{Mode: predictor.ByBlock, MacroblockBytes: trace.MacroblockBytes},
			}))
		}
	}
	for _, entries := range []int{4096, 8192, 32768} {
		specs = append(specs, predictorSpec(predictor.Config{
			Policy:   predictor.StickySpatial,
			Entries:  entries,
			Indexing: predictor.Indexing{Mode: predictor.ByBlock, MacroblockBytes: trace.BlockBytes},
		}))
	}
	return sensitivityPoints(opt, specs)
}
