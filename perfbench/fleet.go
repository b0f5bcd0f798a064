package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"destset"
	"destset/internal/distrib"
)

// The distributed layers — lease RPC, JSONL upload, spill, result store,
// merge and dataset fetch — are measured by a traced probe of
// fig5-tradeoff: the user extends the finished sweep of its first seed
// with the rest. The first seed's cells are put in the coordinator's
// result store untimed; two in-process workers at parallelism 1 compute
// the rest over the in-memory listener, and the coordinator merges
// everything.

// fleetWorkers is the in-process worker count.
const fleetWorkers = 2

// fleetServer is a coordinator served over an in-memory listener.
type fleetServer struct {
	coord  *distrib.Coordinator
	srv    *http.Server
	client *http.Client
	done   chan struct{}
}

func serve(cfg distrib.Config, tr *tracer, parent int64) (*fleetServer, error) {
	coord, err := distrib.NewCoordinator(cfg)
	if err != nil {
		return nil, err
	}
	l := distrib.NewMemListener()
	f := &fleetServer{coord: coord, srv: &http.Server{Handler: distrib.NewHandler(coord)}, client: l.Client(), done: make(chan struct{})}
	if tr != nil {
		f.client.Transport = &roundTripTracer{next: f.client.Transport, tr: tr, parent: parent}
	}
	go func() {
		defer close(f.done)
		f.srv.Serve(l)
	}()
	return f, nil
}

// close stops the server, waits for its accept loop and closes the
// coordinator.
func (f *fleetServer) close() error {
	err := f.srv.Close()
	<-f.done
	return errors.Join(err, f.coord.Close())
}

// roundTripTracer records a span for each lease and completion round
// trip a worker makes to the coordinator.
type roundTripTracer struct {
	next   http.RoundTripper
	tr     *tracer
	parent int64
}

func (t *roundTripTracer) RoundTrip(req *http.Request) (*http.Response, error) {
	name := ""
	switch req.URL.Path {
	case "/v1/lease":
		name = "distrib.lease"
	case "/v1/complete":
		name = "distrib.complete"
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if name != "" {
		t.tr.record(t.parent, name, "", start, time.Now())
	}
	return resp, err
}

// storeFirstSeed runs the def's first seed and returns the stored JSONL
// lines of its cells, by cell fingerprint.
func storeFirstSeed(ctx context.Context, def destset.SweepDef, plan *destset.SweepPlan) (map[string][][]byte, error) {
	first := def
	first.Seeds = def.Seeds[:1]
	store := destset.NewResultStore()
	r, err := first.Runner(destset.WithResultStore(store), destset.WithParallelism(parallelism()))
	if err != nil {
		return nil, err
	}
	if _, err := r.Run(ctx); err != nil {
		return nil, err
	}
	stored := make(map[string][][]byte)
	for _, pc := range plan.Cells() {
		if pc.Seed != first.Seeds[0] {
			continue
		}
		lines, ok := store.CellLines(plan.Kind(), pc.Fingerprint)
		if !ok {
			return nil, fmt.Errorf("cell %s|%s|%d missing from the result store", pc.Engine, pc.Workload, pc.Seed)
		}
		stored[pc.Fingerprint] = lines
	}
	return stored, nil
}

// extendSweep serves def from a coordinator with a state dir and a result
// store holding stored, lets two workers compute the remaining cells and
// returns the merged JSONL.
func extendSweep(ctx context.Context, tr *tracer, parent int64, def destset.SweepDef, plan *destset.SweepPlan, stored map[string][][]byte, dir string) ([]byte, error) {
	resultDir := filepath.Join(dir, "results")
	fill := destset.NewResultStore()
	if err := fill.SetDir(resultDir); err != nil {
		return nil, err
	}
	_, end := tr.begin(parent, "results.store", "", int64(len(stored)))
	for fp, lines := range stored {
		if err := fill.StoreCellLines(plan.Kind(), fp, lines); err != nil {
			end()
			return nil, err
		}
	}
	end()
	// The coordinator reads the stored cells from disk, as a later
	// process would.
	store := destset.NewResultStore()
	if err := store.SetDir(resultDir); err != nil {
		return nil, err
	}

	id, end := tr.begin(parent, "distrib.sweep", "", 1)
	defer end()
	f, err := serve(distrib.Config{Def: def, StateDir: filepath.Join(dir, "state"), Results: store}, tr, id)
	if err != nil {
		return nil, err
	}
	defer f.close()
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, fleetWorkers)
	for i := range fleetWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = distrib.RunWorker(wctx, distrib.WorkerConfig{
				URL:          "http://coordinator",
				Client:       f.client,
				Name:         fmt.Sprintf("w%d", i),
				Parallelism:  1,
				PollInterval: 2 * time.Millisecond,
				NoPeer:       true,
			})
		}()
	}
	// Wait ends early when every worker has returned before the sweep
	// completed.
	waitCtx, stopWait := context.WithCancel(ctx)
	go func() {
		wg.Wait()
		stopWait()
	}()
	err = f.coord.Wait(waitCtx)
	stopWait()
	var merged bytes.Buffer
	if err == nil {
		_, mend := tr.begin(id, "distrib.write_merged", "", 1)
		err = f.coord.WriteMerged(&merged)
		mend()
	}
	if err != nil {
		cancel()
	}
	wg.Wait()
	if err = errors.Join(err, errors.Join(errs...)); err != nil {
		return nil, err
	}
	prog := f.coord.Progress()
	if prog.CachedCells != len(stored) {
		return nil, fmt.Errorf("coordinator served %d cells from the result store, want %d", prog.CachedCells, len(stored))
	}
	if st := prog.Results; st != nil && st.MemHits+st.MemMisses > 0 {
		tr.setCount("results.hit_ratio", float64(st.MemHits+st.DiskHits)/float64(st.MemHits+st.MemMisses))
	}
	return merged.Bytes(), nil
}

// splitLines splits JSONL into lines, each keeping its newline.
func splitLines(b []byte) [][]byte {
	var out [][]byte
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return append(out, b)
		}
		out = append(out, b[:i+1])
		b = b[i+1:]
	}
	return out
}

// probeFleet extends def's first seed to all its seeds through the
// coordinator and two workers, checks the merged file against want (the
// checked in-process results of def), and times JSONL encoding, the k-way
// merge, result-store lookups and the dataset fetch path on its records.
func probeFleet(ctx context.Context, tr *tracer, parent int64, def destset.SweepDef, want []destset.RunResult, work string) error {
	plan, err := def.Plan()
	if err != nil {
		return err
	}
	stored, err := storeFirstSeed(ctx, def, plan)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(work, "fleet-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	merged, err := extendSweep(ctx, tr, parent, def, plan, stored, dir)
	if err != nil {
		return err
	}

	lines := splitLines(merged)[1:] // after the manifest
	if len(lines) != plan.Len() {
		return fmt.Errorf("merged file has %d records, plan %d cells", len(lines), plan.Len())
	}
	obs := make([]destset.Observation, len(lines))
	for i, line := range lines {
		if err := json.Unmarshal(line, &obs[i]); err != nil {
			return fmt.Errorf("merged record %d: %w", i, err)
		}
		pc := plan.Cell(i)
		if obs[i].Engine != pc.Engine || obs[i].Workload != pc.Workload || obs[i].Seed != pc.Seed {
			return fmt.Errorf("merged record %d is %s|%s|%d, plan cell %s|%s|%d", i,
				obs[i].Engine, obs[i].Workload, obs[i].Seed, pc.Engine, pc.Workload, pc.Seed)
		}
	}
	if err := checkTotals(obs, want); err != nil {
		return err
	}

	enc := destset.NewJSONLObserver(io.Discard)
	_, end := tr.begin(parent, "jsonl.observe", "", int64(len(obs)))
	for _, o := range obs {
		enc.Observe(o)
	}
	err = enc.Flush()
	end()
	if err != nil {
		return err
	}
	// Two plan-ordered halves, as two workers' spills would be.
	mid := len(lines) / 2
	var remerged bytes.Buffer
	_, end = tr.begin(parent, "mergestream.merge", "", int64(len(lines)))
	err = plan.MergeStreams(&remerged, bytes.NewReader(bytes.Join(lines[:mid], nil)), bytes.NewReader(bytes.Join(lines[mid:], nil)))
	end()
	if err != nil {
		return err
	}
	if !bytes.Equal(remerged.Bytes(), merged) {
		return fmt.Errorf("MergeStreams over two halves differs from the coordinator's merged file")
	}

	cold := destset.NewResultStore()
	if err := cold.SetDir(filepath.Join(dir, "results")); err != nil {
		return err
	}
	_, end = tr.begin(parent, "results.lookup", "", int64(plan.Len()))
	for _, pc := range plan.Cells() {
		if _, ok := cold.CellLines(plan.Kind(), pc.Fingerprint); !ok {
			end()
			return fmt.Errorf("cell %s|%s|%d not served by the result store", pc.Engine, pc.Workload, pc.Seed)
		}
	}
	end()

	sets, err := def.Datasets()
	if err != nil {
		return err
	}
	f, err := serve(distrib.Config{Def: def, DatasetDir: destset.DatasetDir()}, tr, parent)
	if err != nil {
		return err
	}
	defer f.close()
	return probeFetch(tr, parent, work, f, sets)
}

// checkTotals compares the merged records with the plan-ordered results
// of an in-process sweep already checked against the reference: each
// record's cumulative totals must be that cell's totals.
func checkTotals(obs []destset.Observation, want []destset.RunResult) error {
	if len(obs) != len(want) {
		return fmt.Errorf("merged file has %d records, the in-process sweep %d cells", len(obs), len(want))
	}
	for i, o := range obs {
		if o.Cumulative != want[i].Totals {
			return fmt.Errorf("merged record %d (%s|%s|%d) totals %+v, in-process %+v",
				i, o.Engine, o.Workload, o.Seed, o.Cumulative, want[i].Totals)
		}
	}
	return nil
}
