package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"

	"destset"
	"destset/internal/cache"
	"destset/internal/coherence"
	"destset/internal/dataset"
	"destset/internal/event"
	"destset/internal/interconnect"
	"destset/internal/nodeset"
	"destset/internal/predictor"
	"destset/internal/protocol"
	"destset/internal/trace"
	"destset/internal/workload"
)

// Layer probes of the traced run. Each drives one layer's public
// functions with the workload's own dataset records — the records its
// sweep replays — inside a span named after the layer, so per-call costs
// come from the same address streams and sharing patterns the sweep sees.

// probeRecords caps the records one probe pass takes from each dataset,
// bounding the traced run's length on the paper-scale datasets.
const probeRecords = 100_000

// policies are the paper's four prediction policies, by metric suffix.
var policies = []struct {
	suffix string
	policy predictor.Policy
}{
	{"owner", predictor.Owner},
	{"bis", predictor.BroadcastIfShared},
	{"group", predictor.Group},
	{"owner_group", predictor.OwnerGroup},
}

// engineSuffix names an engine spec in protocol metric names.
func engineSuffix(spec destset.EngineSpec) string {
	switch spec.Protocol {
	case destset.ProtocolSnooping:
		return "snooping"
	case destset.ProtocolDirectory:
		return "directory"
	}
	for _, p := range policies {
		if spec.UsePolicy && spec.Policy == p.policy {
			return p.suffix
		}
	}
	return spec.DisplayLabel()
}

// records returns up to probeRecords records of d, with their annotations.
func records(d *dataset.Dataset) ([]trace.Record, []coherence.MissInfo) {
	n := min(d.Len(), probeRecords)
	recs := make([]trace.Record, n)
	infos := make([]coherence.MissInfo, n)
	for i := range n {
		recs[i], infos[i] = d.At(i)
	}
	return recs, infos
}

// probeDataset times generation, spill, a cold load and a full replay of
// the workload's first dataset, and replays every other one.
func probeDataset(tr *tracer, parent int64, work string, sets []*dataset.Dataset) error {
	first := sets[0]
	p, warm, measure := first.Params(), first.Warm(), first.Measure()
	_, end := tr.begin(parent, "dataset.generate", "", 1)
	gen, err := dataset.Generate(p, warm, measure)
	end()
	tr.addCount("dataset.generate_misses", float64(warm+measure))
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "probe-dataset-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	key := dataset.KeyOf(p, warm, measure)
	_, end = tr.begin(parent, "dataset.spill", "", 1)
	err = dataset.WriteFile(key.Path(dir), gen)
	end()
	tr.addCount("dataset.spill_bytes", float64(gen.Bytes()))
	if err != nil {
		return err
	}
	cold := dataset.NewStore()
	if err := cold.SetDir(dir); err != nil {
		return err
	}
	_, end = tr.begin(parent, "dataset.load", "", 1)
	loaded, err := cold.Get(key, func() (*dataset.Dataset, error) {
		return nil, fmt.Errorf("dataset %s missing from the probe directory", key.Addr())
	})
	end()
	if err != nil {
		return err
	}
	for _, d := range append([]*dataset.Dataset{loaded}, sets[1:]...) {
		r := d.Replay()
		_, end := tr.begin(parent, "dataset.replay", "", int64(d.Len()))
		for r.Remaining() > 0 {
			r.Next()
		}
		end()
	}
	return nil
}

// probeWorkload times the generator and the coherence oracle on the
// workload's own parameters and recorded streams.
func probeWorkload(tr *tracer, parent int64, sets []*dataset.Dataset) error {
	g, err := workload.New(sets[0].Params())
	if err != nil {
		return err
	}
	_, end := tr.begin(parent, "workload.next", "", probeRecords)
	for range probeRecords {
		g.Next()
	}
	end()

	var before, after runtime.MemStats
	var applied, alloc uint64
	for _, d := range sets {
		recs, _ := records(d)
		cfg := coherence.DefaultConfig()
		cfg.Nodes = d.Nodes()
		sys := coherence.NewSystem(cfg)
		runtime.ReadMemStats(&before)
		_, end := tr.begin(parent, "coherence.apply", "", int64(len(recs)))
		for _, rec := range recs {
			sys.Apply(rec)
		}
		end()
		runtime.ReadMemStats(&after)
		applied += uint64(len(recs))
		alloc += after.TotalAlloc - before.TotalAlloc
	}
	tr.setCount("coherence.apply_alloc_b", float64(alloc)/float64(applied))
	return nil
}

// probePredictors trains each policy's predictor bank on the recorded
// requests (every request reaches its home node) and then predicts the
// destination set of each recorded miss.
func probePredictors(tr *tracer, parent int64, sets []*dataset.Dataset) {
	for _, pol := range policies {
		for _, d := range sets {
			recs, infos := records(d)
			bank := predictor.NewBank(predictor.DefaultConfig(pol.policy, d.Nodes()))
			_, end := tr.begin(parent, "predictor.train", pol.suffix, int64(len(recs)))
			for i, rec := range recs {
				bank[infos[i].Home].TrainRequest(predictor.External{
					Addr: rec.Addr, PC: rec.PC, Requester: nodeset.NodeID(rec.Requester), Kind: rec.Kind,
				})
			}
			end()
			_, end = tr.begin(parent, "predictor.predict", pol.suffix, int64(len(recs)))
			for i, rec := range recs {
				bank[rec.Requester].Predict(predictor.Query{
					Addr: rec.Addr, PC: rec.PC, Requester: nodeset.NodeID(rec.Requester),
					Home: infos[i].Home, Kind: rec.Kind,
				})
			}
			end()
		}
	}
}

// probeProtocols runs each engine of the sweep over the recorded misses.
func probeProtocols(tr *tracer, parent int64, specs []destset.EngineSpec, sets []*dataset.Dataset) error {
	for _, spec := range specs {
		for _, d := range sets {
			recs, infos := records(d)
			eng, err := spec.NewEngine(d.Nodes())
			if err != nil {
				return err
			}
			_, end := tr.begin(parent, "protocol.process", engineSuffix(spec), int64(len(recs)))
			for i, rec := range recs {
				eng.Process(rec, infos[i])
			}
			end()
		}
	}
	return nil
}

// probeTimingParts times the simulator's building blocks: building the
// per-node L2 caches, scheduling and stepping events at the recorded
// misses' issue times, and sending each miss's needed set through the
// crossbar.
func probeTimingParts(tr *tracer, parent int64, sets []*dataset.Dataset) {
	l2 := coherence.DefaultConfig().L2
	var before, after runtime.MemStats
	nodes := sets[0].Nodes()
	runtime.ReadMemStats(&before)
	_, end := tr.begin(parent, "cache.new", "", int64(nodes))
	caches := make([]*cache.Cache, nodes)
	for i := range caches {
		caches[i] = cache.New(l2)
	}
	end()
	runtime.ReadMemStats(&after)
	tr.setCount("cache.new_alloc_b", float64(after.TotalAlloc-before.TotalAlloc)/float64(nodes))
	runtime.KeepAlive(caches)

	const batch = 64
	for _, d := range sets {
		recs, infos := records(d)
		var loop event.Loop
		var at event.Time
		_, end := tr.begin(parent, "event.at_step", "", int64(len(recs)))
		for lo := 0; lo < len(recs); lo += batch {
			for _, rec := range recs[lo:min(lo+batch, len(recs))] {
				at += event.Time(rec.Gap) * event.Nanosecond / 4
				loop.At(at, noopHandler)
			}
			loop.Run()
		}
		end()

		var xloop event.Loop
		x := interconnect.New(interconnect.DefaultConfig(d.Nodes()), &xloop)
		msgs := make([]interconnect.Message, batch)
		_, end = tr.begin(parent, "interconnect.send", "", int64(len(recs)))
		for lo := 0; lo < len(recs); lo += batch {
			for i, rec := range recs[lo:min(lo+batch, len(recs))] {
				req := nodeset.NodeID(rec.Requester)
				msgs[i] = interconnect.Message{From: req, To: infos[lo+i].Needed(req, rec.Kind), Bytes: protocol.ControlBytes}
				x.Send(&msgs[i])
			}
			xloop.Run()
		}
		end()
	}
}

func noopHandler(event.Time) {}

// probeFetch times the dataset fetch path a mountless worker takes: GET
// /v1/dataset/{key} from the coordinator and SweepDataset.InstallTo with
// full receipt validation.
func probeFetch(tr *tracer, parent int64, work string, f *fleetServer, sets []destset.SweepDataset) error {
	dir, err := os.MkdirTemp(work, "probe-fetch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for i, sd := range sets {
		key, err := sd.ContentKey()
		if err != nil {
			return err
		}
		_, end := tr.begin(parent, "distrib.fetch", "", 1)
		resp, err := f.client.Get("http://coordinator/v1/dataset/" + key)
		if err != nil {
			end()
			return err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			end()
			return fmt.Errorf("fetching dataset %s: status %s", key, resp.Status)
		}
		n, err := sd.InstallTo(filepath.Join(dir, fmt.Sprint(i)), resp.Body)
		resp.Body.Close()
		end()
		if err != nil {
			return err
		}
		tr.addCount("distrib.fetch_bytes", float64(n))
	}
	return nil
}
