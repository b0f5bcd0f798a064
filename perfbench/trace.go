package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracing for the traced run (--trace 1). Spans are recorded around the
// benchmark's own calls into each layer's public functions — never inside
// the program — so a span's name says which layer the call entered. They
// stay in memory while the run measures and are written as JSON Lines when
// it ends.

// span is one call (or one batch of calls) into a layer.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"` // 0 for a root span
	Name   string `json:"name"`   // "<layer>.<operation>"
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	// N counts the calls into the layer the span covers: a batch span
	// around a loop of N calls carries N, a single call 1.
	N int64 `json:"n"`
}

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer collects spans. A nil *tracer records nothing, so the untraced
// run passes nil through the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
	// counts are quantities measured at span boundaries that are not
	// calls: bytes moved, misses generated, bytes allocated.
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: make(map[string]float64)} }

// addCount adds v to the named count.
func (t *tracer) addCount(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// setCount sets the named count.
func (t *tracer) setCount(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] = v
	t.mu.Unlock()
}

// count returns the named count.
func (t *tracer) count(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// begin opens a span under parent and returns its id and the function that
// closes it.
func (t *tracer) begin(parent int64, name, attr string, n int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	start := time.Since(t.t0).Nanoseconds()
	return id, func() {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Attr: attr, Start: start, End: end, N: n})
		t.mu.Unlock()
	}
}

// record adds a span of one call whose interval was measured by the
// caller — the distrib round trips, timed inside the HTTP transport, and
// sweep cells, whose attr is known only from their result — and returns
// its id.
func (t *tracer) record(parent int64, name, attr string, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name, Attr: attr,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), N: 1})
	return t.next
}

// named returns the closed spans with the given name (and attr, when attr
// is not "*").
func (t *tracer) named(name, attr string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && (attr == "*" || s.Attr == attr) {
			out = append(out, s)
		}
	}
	return out
}

// layerTotals is one layer's self time and call count.
type layerTotals struct {
	selfNs int64
	calls  int64
}

// layers derives each layer's self time from span nesting: a span's
// duration minus the part of its interval its child spans cover (children
// may overlap each other, as concurrent round trips under one sweep do).
func (t *tracer) layers() map[string]layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTotals)
	for _, s := range t.spans {
		lt := out[s.layer()]
		lt.selfNs += s.End - s.Start - covered(s, children[s.ID])
		lt.calls += s.N
		out[s.layer()] = lt
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union of
// the child intervals covers.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeJSONL writes every span, one per line, to path.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("encoding span: %w", err)
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
