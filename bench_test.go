// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus micro-benchmarks of the performance-critical
// components. Each macro-benchmark runs its experiment harness at
// reduced scale per iteration and reports the experiment's headline
// metric alongside time and allocations:
//
//	go test -bench=. -benchmem
//
// For paper-scale numbers use the CLI tools (cmd/sharing, cmd/traceeval,
// cmd/timing) instead; EXPERIMENTS.md records those results.
package destset_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"destset"
	"destset/internal/dataset"
	"destset/internal/distrib"
	"destset/internal/experiments"
	"destset/internal/ingest"
	"destset/internal/nodeset"
	"destset/internal/predictor"
	"destset/internal/protocol"
	"destset/internal/trace"
	"destset/internal/workload"
)

// benchOptions is the per-iteration experiment scale.
func benchOptions() experiments.Options {
	return experiments.Options{
		Seed:            1,
		WarmMisses:      20_000,
		Misses:          20_000,
		TimedWarmMisses: 8_000,
		TimedMisses:     8_000,
	}
}

func BenchmarkTable2(b *testing.B) {
	opt := benchOptions()
	var last []experiments.Characterization
	for i := 0; i < b.N; i++ {
		cs, err := experiments.Characterize(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = cs
	}
	for _, c := range last {
		if c.Workload == "oltp" {
			b.ReportMetric(c.DirIndirectPc, "oltp-dir-indirect-%")
			b.ReportMetric(c.MPKI, "oltp-mpki")
		}
	}
}

func BenchmarkFigure2(b *testing.B) {
	opt := benchOptions()
	opt.Workloads = []string{"apache", "oltp"}
	var last []experiments.Characterization
	for i := 0; i < b.N; i++ {
		cs, err := experiments.Characterize(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = cs
	}
	b.ReportMetric(last[0].ReadsMustSee[1], "apache-reads-see1-%")
}

func BenchmarkFigure3(b *testing.B) {
	opt := benchOptions()
	opt.Workloads = []string{"ocean", "specjbb"}
	var last []experiments.Characterization
	for i := 0; i < b.N; i++ {
		cs, err := experiments.Characterize(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = cs
	}
	b.ReportMetric(last[0].BlocksTouchedBy[2], "ocean-pairwise-blocks-%")
}

func BenchmarkFigure4(b *testing.B) {
	opt := benchOptions()
	opt.Workloads = []string{"specjbb"}
	var last []experiments.Characterization
	for i := 0; i < b.N; i++ {
		cs, err := experiments.Characterize(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = cs
	}
	// Cumulative c2c coverage of the hottest 1000 blocks (paper: ~80%).
	b.ReportMetric(last[0].C2CByHotBlocks[4], "jbb-hot1k-blocks-%")
}

func BenchmarkFigure5(b *testing.B) {
	opt := benchOptions()
	var last []experiments.WorkloadTradeoff
	for i := 0; i < b.N; i++ {
		panels, err := experiments.Figure5(opt)
		if err != nil {
			b.Fatal(err)
		}
		last = panels
	}
	for _, p := range last {
		if p.Workload != "oltp" {
			continue
		}
		for _, pt := range p.Points {
			if pt.Config == "Multicast+Group[1024B,8192e]" {
				b.ReportMetric(pt.IndirectionPct, "oltp-group-indirect-%")
				b.ReportMetric(pt.MsgsPerMiss, "oltp-group-msgs/miss")
			}
		}
	}
}

func BenchmarkFigure6a(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6a(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6b(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6b(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6c(b *testing.B) {
	opt := benchOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6c(opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7(b *testing.B) {
	opt := benchOptions()
	opt.Workloads = []string{"oltp"}
	var last []experiments.WorkloadTiming
	for i := 0; i < b.N; i++ {
		panels, err := experiments.Figure7(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		last = panels
	}
	for _, pt := range last[0].Points {
		if pt.Config == "snooping" {
			b.ReportMetric(pt.NormRuntime, "oltp-snoop-norm-runtime")
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	opt := benchOptions()
	opt.Workloads = []string{"oltp"}
	var last []experiments.WorkloadTiming
	for i := 0; i < b.N; i++ {
		panels, err := experiments.Figure8(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		last = panels
	}
	for _, pt := range last[0].Points {
		if pt.Config == "snooping" {
			b.ReportMetric(pt.NormRuntime, "oltp-snoop-norm-runtime")
		}
	}
}

// BenchmarkDatasetColdStart measures a cold process start against a
// warm on-disk dataset tier: per iteration a fresh store (no memory
// residents, as after exec) resolves the oltp dataset from the
// content-addressed cache. This pins the *copy* path (mmap off) — the
// read-whole-file baseline BenchmarkDatasetColdStartMmap's zero-copy
// mapping is measured against; both are the price a shard process pays
// instead of a full regeneration through the coherence oracle (compare
// BenchmarkWorkloadGenerate × 40k misses).
func BenchmarkDatasetColdStart(b *testing.B) {
	benchDatasetColdStart(b, false)
}

// BenchmarkDatasetColdStartMmap is BenchmarkDatasetColdStart over the
// mmap tier: the same cold-store load served by a page-cache mapping
// that the columns alias zero-copy, so B/op stays constant while the
// copy path's scales with the file.
func BenchmarkDatasetColdStartMmap(b *testing.B) {
	benchDatasetColdStart(b, true)
}

func benchDatasetColdStart(b *testing.B, mmap bool) {
	dir := b.TempDir()
	p, err := workload.Preset("oltp", 1)
	if err != nil {
		b.Fatal(err)
	}
	const warm, measure = 20_000, 20_000
	key := dataset.KeyOf(p, warm, measure)
	gen := func() (*dataset.Dataset, error) { return dataset.Generate(p, warm, measure) }
	seed := dataset.NewStore()
	if err := seed.SetDir(dir); err != nil {
		b.Fatal(err)
	}
	if _, err := seed.Get(key, gen); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold := dataset.NewStore()
		cold.SetMmap(mmap)
		if err := cold.SetDir(dir); err != nil {
			b.Fatal(err)
		}
		ds, err := cold.Get(key, gen)
		if err != nil {
			b.Fatal(err)
		}
		st := cold.Stats()
		if st.Generations != 0 || st.DiskHits != 1 {
			b.Fatalf("cold start did not load from disk: %+v", st)
		}
		if mmap && st.MapHits != 1 {
			b.Fatalf("cold start did not come from the mmap tier: %+v", st)
		}
		if ds.Len() != warm+measure {
			b.Fatal("short dataset")
		}
	}
	b.ReportMetric(float64(warm+measure), "misses")
}

// BenchmarkDatasetFetch measures the dataset fabric's wire path: per
// iteration one content-addressed fetch from the coordinator's
// GET /v1/dataset/{key} endpoint — file stream over in-memory HTTP,
// full receipt validation (header, CRC, key identity) and atomic
// install — the one-time cost a mountless worker pays per dataset
// before mmap loads take over.
func BenchmarkDatasetFetch(b *testing.B) {
	def := destset.NewTimingSweepDef(
		[]destset.SimSpec{{Protocol: destset.ProtocolSnooping}},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 20_000, Measure: 20_000}},
		destset.WithSeeds(1),
	)
	datasets, err := def.Datasets()
	if err != nil {
		b.Fatal(err)
	}
	sd := datasets[0]
	key, err := sd.ContentKey()
	if err != nil {
		b.Fatal(err)
	}
	serveDir := b.TempDir()
	if _, err := sd.SpillTo(serveDir); err != nil { // materialize once; GETs stream the file
		b.Fatal(err)
	}
	coord, err := distrib.NewCoordinator(distrib.Config{Def: def, LeaseTTL: time.Minute, DatasetDir: serveDir})
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	l := distrib.NewMemListener()
	srv := &http.Server{Handler: distrib.NewHandler(coord)}
	go srv.Serve(l)
	defer srv.Close()
	client := l.Client()
	installDir := b.TempDir()
	url := "http://coordinator/v1/dataset/" + key

	b.ResetTimer()
	var bytesFetched int64
	for i := 0; i < b.N; i++ {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("fetch status %d", resp.StatusCode)
		}
		n, err := sd.InstallTo(installDir, resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		bytesFetched = n
	}
	b.ReportMetric(float64(bytesFetched), "bytes")
}

// BenchmarkDatasetFetchP2P measures the peer fabric's fan-out: per
// iteration eight simulated workers resolve the same ~1.6MB dataset —
// each asks /v1/holders first, pulls from the hinted peer when one
// exists and from the coordinator otherwise, installs with full receipt
// validation, then serves and announces its own copy. The coordinator
// uplink streams the bytes roughly once; the other seven transfers ride
// peers. coord_B/op vs peer_B/op is the uplink relief the fabric buys —
// compare BenchmarkDatasetFetch, where every transfer is the uplink.
func BenchmarkDatasetFetchP2P(b *testing.B) {
	def := destset.NewTimingSweepDef(
		[]destset.SimSpec{{Protocol: destset.ProtocolSnooping}},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 20_000, Measure: 20_000}},
		destset.WithSeeds(1),
	)
	datasets, err := def.Datasets()
	if err != nil {
		b.Fatal(err)
	}
	sd := datasets[0]
	key, err := sd.ContentKey()
	if err != nil {
		b.Fatal(err)
	}
	plan, err := def.Plan()
	if err != nil {
		b.Fatal(err)
	}
	planFP := plan.Fingerprint()
	serveDir := b.TempDir()
	if _, err := sd.SpillTo(serveDir); err != nil { // materialize once; GETs stream the file
		b.Fatal(err)
	}
	const workers = 8

	b.ResetTimer()
	var coordBytes, peerBytes int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		net := distrib.NewMemNet()
		coord, err := distrib.NewCoordinator(distrib.Config{Def: def, LeaseTTL: time.Minute, DatasetDir: serveDir})
		if err != nil {
			b.Fatal(err)
		}
		coordSrv := &http.Server{Handler: distrib.NewHandler(coord)}
		go coordSrv.Serve(net.Listen("coordinator"))
		client := net.Client()
		dirs := make([]string, workers)
		for wi := range dirs {
			dirs[wi] = b.TempDir()
		}
		peerSrvs := make([]*http.Server, 0, workers)
		b.StartTimer()

		for wi := 0; wi < workers; wi++ {
			// Hint first, exactly like the worker fetch path.
			src := "http://coordinator"
			fromPeer := false
			if resp, err := client.Get("http://coordinator/v1/holders/" + key); err == nil {
				var reply distrib.HoldersReply
				if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&reply) == nil && len(reply.Holders) > 0 {
					src = reply.Holders[0]
					fromPeer = true
				}
				resp.Body.Close()
			}
			resp, err := client.Get(src + "/v1/dataset/" + key)
			if err != nil {
				b.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("fetch from %s: status %d", src, resp.StatusCode)
			}
			n, err := sd.InstallTo(dirs[wi], resp.Body)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			if fromPeer {
				peerBytes += n
			}
			// Become a holder: serve the installed file and announce it.
			path, err := sd.PathIn(dirs[wi])
			if err != nil {
				b.Fatal(err)
			}
			host := fmt.Sprintf("w%d", wi)
			mux := http.NewServeMux()
			mux.HandleFunc("GET /v1/dataset/{key}", func(w http.ResponseWriter, r *http.Request) {
				http.ServeFile(w, r, path)
			})
			srv := &http.Server{Handler: mux}
			go srv.Serve(net.Listen(host))
			peerSrvs = append(peerSrvs, srv)
			body, _ := json.Marshal(map[string]any{
				"worker": host, "plan": planFP, "peer": "http://" + host, "holds": []string{key},
			})
			aresp, err := client.Post("http://coordinator/v1/announce", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			aresp.Body.Close()
		}

		b.StopTimer()
		coordBytes += coord.Progress().DatasetBytesServed
		for _, srv := range peerSrvs {
			srv.Close()
		}
		coordSrv.Close()
		coord.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(coordBytes)/float64(b.N), "coord_B/op")
	b.ReportMetric(float64(peerBytes)/float64(b.N), "peer_B/op")
}

// BenchmarkResultStoreLookup measures a cold process start against a
// warm on-disk result tier: per iteration a fresh store (no memory
// residents, as after exec) resolves every cell of a small timing plan
// from the content-addressed result cache — the runner-side lookup an
// incremental rerun pays per cell instead of simulating it (compare
// BenchmarkFigure7, which is the computation a hit skips).
func BenchmarkResultStoreLookup(b *testing.B) {
	dir := b.TempDir()
	def := destset.NewTimingSweepDef(
		[]destset.SimSpec{
			{Protocol: destset.ProtocolSnooping},
			{Protocol: destset.ProtocolDirectory},
		},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 4_000, Measure: 4_000}},
		destset.WithSeeds(1, 2),
	)
	plan, err := def.Plan()
	if err != nil {
		b.Fatal(err)
	}
	seed := destset.NewResultStore()
	if err := seed.SetDir(dir); err != nil {
		b.Fatal(err)
	}
	r, err := def.TimingRunner(destset.WithResultStore(seed))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := r.Run(context.Background()); err != nil {
		b.Fatal(err)
	}
	cells := plan.Cells()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold := destset.NewResultStore()
		if err := cold.SetDir(dir); err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if !cold.HasCell(plan.Kind(), c.Fingerprint) {
				b.Fatalf("cell %s not served from the warm result dir", c.Fingerprint)
			}
		}
		if st := cold.Stats(); st.DiskHits != uint64(len(cells)) {
			b.Fatalf("cold lookup stats: %+v", st)
		}
	}
	b.ReportMetric(float64(len(cells)), "cells")
}

// --- component micro-benchmarks ---

func BenchmarkPredictorPredict(b *testing.B) {
	for _, pol := range []predictor.Policy{predictor.Owner, predictor.Group, predictor.OwnerGroup} {
		b.Run(pol.String(), func(b *testing.B) {
			p := predictor.New(predictor.DefaultConfig(pol, 16))
			for i := 0; i < 1000; i++ {
				p.TrainRequest(predictor.External{
					Addr:      trace.Addr(i * 7 % 4096),
					Requester: nodeset.NodeID(i % 16),
					Kind:      trace.GetExclusive,
				})
			}
			q := predictor.Query{Addr: 42, Requester: 3, Home: 10, Kind: trace.GetExclusive}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.Addr = trace.Addr(i % 4096)
				_ = p.Predict(q)
			}
		})
	}
}

func BenchmarkPredictorTrain(b *testing.B) {
	p := predictor.New(predictor.DefaultConfig(predictor.Group, 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.TrainRequest(predictor.External{
			Addr:      trace.Addr(i % 8192),
			Requester: nodeset.NodeID(i % 16),
			Kind:      trace.GetExclusive,
		})
	}
}

func BenchmarkWorkloadGenerate(b *testing.B) {
	p, err := workload.Preset("oltp", 1)
	if err != nil {
		b.Fatal(err)
	}
	g, err := workload.New(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = g.Next()
	}
	b.ReportMetric(float64(b.N), "misses")
}

func BenchmarkProtocolMulticastProcess(b *testing.B) {
	p, _ := workload.Preset("apache", 1)
	g, err := workload.New(p)
	if err != nil {
		b.Fatal(err)
	}
	tr, infos := g.Generate(100_000)
	eng := protocol.NewMulticast(predictor.NewBank(predictor.DefaultConfig(predictor.Group, 16)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % tr.Len()
		eng.Process(tr.Records[j], infos[j])
	}
}

// BenchmarkLeaseDispatch measures the distributed coordinator's
// lease/complete round trip — the protocol hot path every worker drives
// between cells — over real HTTP on an in-memory listener: per
// iteration, one lease grant (queue pop, deadline stamp) plus one
// single-cell record upload (streamed parse, cell attribution, commit).
func BenchmarkLeaseDispatch(b *testing.B) {
	seeds := make([]uint64, b.N)
	for i := range seeds {
		seeds[i] = uint64(i + 1)
	}
	def := destset.NewTimingSweepDef(
		[]destset.SimSpec{{Protocol: destset.ProtocolSnooping}},
		[]destset.WorkloadSpec{{Name: "oltp", Warm: 100, Measure: 100}},
		destset.WithSeeds(seeds...),
	)
	coord, err := distrib.NewCoordinator(distrib.Config{Def: def, LeaseTTL: time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Close()
	l := distrib.NewMemListener()
	srv := &http.Server{Handler: distrib.NewHandler(coord)}
	go srv.Serve(l)
	defer srv.Close()
	client := l.Client()
	plan := coord.Plan()
	leaseBody, err := json.Marshal(map[string]string{"worker": "bench", "plan": plan.Fingerprint()})
	if err != nil {
		b.Fatal(err)
	}
	completeURL := "http://coordinator/v1/complete?lease=%s&worker=bench&plan=" + plan.Fingerprint()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post("http://coordinator/v1/lease", "application/json", bytes.NewReader(leaseBody))
		if err != nil {
			b.Fatal(err)
		}
		var reply distrib.LeaseReply
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if reply.Lease == nil {
			b.Fatalf("iteration %d: no lease (reply %+v)", i, reply)
		}
		cell := plan.Cell(reply.Lease.Lo)
		rec := fmt.Sprintf("{\"Sim\":%q,\"Workload\":%q,\"Seed\":%d}\n", cell.Engine, cell.Workload, cell.Seed)
		resp, err = client.Post(fmt.Sprintf(completeURL, reply.Lease.ID), "application/x-ndjson", bytes.NewReader([]byte(rec)))
		if err != nil {
			b.Fatal(err)
		}
		var cr distrib.CompleteReply
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if !cr.Accepted {
			b.Fatalf("iteration %d: completion not accepted (%+v)", i, cr)
		}
	}
}

// BenchmarkIngestCSV measures the external-trace import path: parsing a
// 20k-line CSV trace and replaying it through the coherence oracle into
// an annotated columnar dataset (internal/ingest). SetBytes reports
// parse+annotate throughput over the raw input bytes.
func BenchmarkIngestCSV(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("addr,cpu,op,pc,gap\n")
	state := uint64(0x9e3779b97f4a7c15)
	const lines = 20_000
	for i := 0; i < lines; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		fmt.Fprintf(&sb, "0x%x,%d,%s,0x%x,%d\n",
			0x10000+(state>>9%512)*64, state%8, []string{"R", "W"}[state>>20&1],
			0x40000+4*(state>>24%1024), 100+state>>40%300)
	}
	in := sb.String()
	b.SetBytes(int64(len(in)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := ingest.Import(strings.NewReader(in), ingest.FormatCSV,
			ingest.Options{Name: "bench-import", Warm: 5_000})
		if err != nil {
			b.Fatal(err)
		}
		if ds.Len() != lines {
			b.Fatalf("imported %d records, want %d", ds.Len(), lines)
		}
	}
	b.ReportMetric(lines, "records")
}
