// Package ingest turns external memory traces into sweepable datasets.
//
// Two simple text formats are supported — CSV and gem5/DRAMsim-style
// whitespace columns — both carrying, per line, a byte address, the
// requesting CPU and a read/write marker, optionally followed by a
// program counter and the requester's instruction gap. Every parsed
// line is one coherence miss: the stream is replayed through the
// coherence oracle's Apply path, which annotates each record with the
// same pre-request owner/sharers/requester-state information generated
// workloads get and accumulates the same whole-run block statistics.
// The result lands in the columnar dataset format (internal/dataset),
// so an imported trace flows through the dataset store, sharding, the
// result store and the p2p dataset fabric exactly like a generated one.
//
// Identity: the imported workload's Params carry the format, a SHA-256
// of the raw input bytes, and the record count. The dataset store's
// content address hashes those, so distinct inputs can never alias and
// re-importing the same bytes always lands on the same key. Imported
// gaps are preserved exactly (no rescaling): Export∘Import is the
// identity on both text formats.
package ingest

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"destset/internal/coherence"
	"destset/internal/dataset"
	"destset/internal/nodeset"
	"destset/internal/trace"
	"destset/internal/workload"
)

// Format names a supported external trace text format.
type Format string

const (
	// FormatCSV is comma-separated "addr,cpu,op[,pc[,gap]]" with an
	// optional header line and #-comments.
	FormatCSV Format = "csv"
	// FormatText is whitespace-separated "addr op cpu [pc [gap]]" in the
	// gem5/DRAMsim style, with blank lines and #-comments skipped.
	FormatText Format = "text"
)

// ParseFormat resolves a format name.
func ParseFormat(s string) (Format, error) {
	switch Format(strings.ToLower(strings.TrimSpace(s))) {
	case FormatCSV:
		return FormatCSV, nil
	case FormatText:
		return FormatText, nil
	}
	return "", fmt.Errorf("ingest: unknown format %q (want %q or %q)", s, FormatCSV, FormatText)
}

// Options control an import.
type Options struct {
	// Name labels the imported workload in results (default "imported").
	Name string
	// Nodes is the system size; 0 derives max(cpu)+1 from the trace
	// (clamped to at least 2).
	Nodes int
	// Warm is how many leading records form the warm region; the rest
	// are measured. It must leave at least one measured record.
	Warm int
	// DefaultGap is the instruction gap assigned to lines that carry
	// none (default 200).
	DefaultGap uint32
}

// ParseError reports a malformed input line by 1-based line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string { return fmt.Sprintf("line %d: %s", e.Line, e.Msg) }

func parseErrf(line int, format string, args ...any) error {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// errNoRecords rejects an input without a single record line.
var errNoRecords = errors.New("ingest: no records in input")

// maxLineBytes bounds one input line.
const maxLineBytes = 1 << 20

// access is one parsed input line before annotation.
type access struct {
	addr  trace.Addr // block number (byte address / 64)
	cpu   int
	store bool
	pc    trace.PC
	hasPC bool
	gap   uint32
}

// parseAddr accepts hex (0x-prefixed or bare hex digits with letters)
// and decimal byte addresses.
func parseAddr(s string) (trace.Addr, error) {
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		// Bare hex without 0x is common in dumped traces.
		if v2, err2 := strconv.ParseUint(s, 16, 64); err2 == nil {
			return trace.Addr(v2 / trace.BlockBytes), nil
		}
		return 0, err
	}
	return trace.Addr(v / trace.BlockBytes), nil
}

// parseOp normalizes the read/write marker across the dialects the two
// formats encounter in the wild.
func parseOp(s string) (store, ok bool) {
	switch strings.ToLower(s) {
	case "r", "rd", "read", "ld", "load", "gets", "p_mem_rd", "0":
		return false, true
	case "w", "wr", "write", "st", "store", "getx", "p_mem_wr", "1":
		return true, true
	}
	return false, false
}

// parseFields parses one line's fields (already split per format).
func parseFields(line int, f Format, fields []string) (access, error) {
	var addrS, opS, cpuS string
	var rest []string
	switch f {
	case FormatCSV: // addr,cpu,op[,pc[,gap]]
		if len(fields) < 3 {
			return access{}, parseErrf(line, "need at least addr,cpu,op — got %d fields", len(fields))
		}
		addrS, cpuS, opS, rest = fields[0], fields[1], fields[2], fields[3:]
	default: // text: addr op cpu [pc [gap]]
		if len(fields) < 3 {
			return access{}, parseErrf(line, "need at least addr, op and cpu — got %d fields", len(fields))
		}
		addrS, opS, cpuS, rest = fields[0], fields[1], fields[2], fields[3:]
	}
	if len(rest) > 2 {
		return access{}, parseErrf(line, "too many fields (%d)", len(fields))
	}
	a := access{}
	addr, err := parseAddr(addrS)
	if err != nil {
		return access{}, parseErrf(line, "bad address %q", addrS)
	}
	a.addr = addr
	cpu, err := strconv.Atoi(cpuS)
	if err != nil || cpu < 0 || cpu >= nodeset.MaxNodes {
		return access{}, parseErrf(line, "bad cpu %q (want 0..%d)", cpuS, nodeset.MaxNodes-1)
	}
	a.cpu = cpu
	store, ok := parseOp(opS)
	if !ok {
		return access{}, parseErrf(line, "bad op %q (want a read/write marker)", opS)
	}
	a.store = store
	if len(rest) >= 1 {
		pc, err := strconv.ParseUint(rest[0], 0, 64)
		if err != nil {
			return access{}, parseErrf(line, "bad pc %q", rest[0])
		}
		a.pc, a.hasPC = trace.PC(pc), true
	}
	if len(rest) == 2 {
		gap, err := strconv.ParseUint(rest[1], 0, 32)
		if err != nil || gap == 0 {
			return access{}, parseErrf(line, "bad gap %q (want a positive 32-bit count)", rest[1])
		}
		a.gap = uint32(gap)
	}
	return a, nil
}

// splitLine splits one raw line into fields per format, reporting
// (nil, true) for lines to skip (blank, comments, a CSV header).
func splitLine(lineNo int, f Format, line string) (fields []string, skip bool) {
	s := strings.TrimSpace(line)
	if s == "" || strings.HasPrefix(s, "#") {
		return nil, true
	}
	if f == FormatCSV {
		fields = strings.Split(s, ",")
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		// A leading header line ("addr,cpu,op,...") is tolerated so our
		// own exports round-trip.
		if lineNo == 1 {
			if _, err := strconv.ParseUint(fields[0], 0, 64); err != nil {
				return nil, true
			}
		}
		return fields, false
	}
	return strings.Fields(s), false
}

// Import parses an external trace, replays it through the coherence
// oracle for annotations and block statistics, and returns the columnar
// dataset plus the imported workload's Params (also available via
// Dataset.Params). The reader is consumed to EOF; its raw bytes are
// hashed into the workload identity.
func Import(r io.Reader, f Format, opt Options) (*dataset.Dataset, error) {
	if opt.Name == "" {
		opt.Name = "imported"
	}
	if opt.DefaultGap == 0 {
		opt.DefaultGap = 200
	}
	h := sha256.New()
	sc := bufio.NewScanner(io.TeeReader(r, h))
	sc.Buffer(make([]byte, 0, 64<<10), maxLineBytes)

	var accs []access
	maxCPU := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		fields, skip := splitLine(lineNo, f, sc.Text())
		if skip {
			continue
		}
		a, err := parseFields(lineNo, f, fields)
		if err != nil {
			return nil, err
		}
		if a.cpu > maxCPU {
			maxCPU = a.cpu
		}
		accs = append(accs, a)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, parseErrf(lineNo+1, "line longer than %d bytes", maxLineBytes)
		}
		return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
	}
	if len(accs) == 0 {
		return nil, errNoRecords
	}

	nodes := opt.Nodes
	if nodes == 0 {
		nodes = maxCPU + 1
		if nodes < 2 {
			nodes = 2
		}
	}
	if nodes <= maxCPU {
		return nil, fmt.Errorf("ingest: trace uses cpu %d but -nodes is %d", maxCPU, nodes)
	}
	if nodes > nodeset.MaxNodes {
		return nil, fmt.Errorf("ingest: %d nodes exceeds the %d-node limit", nodes, nodeset.MaxNodes)
	}
	if opt.Warm < 0 || opt.Warm >= len(accs) {
		return nil, fmt.Errorf("ingest: warm region of %d records leaves no measured region (have %d)", opt.Warm, len(accs))
	}

	// Annotate: every imported line is a known miss, so the oracle's
	// Apply path both annotates it and evolves the coherence state —
	// which makes re-importing an exported trace reproduce the exact
	// same annotations.
	cfg := coherence.DefaultConfig()
	cfg.Nodes = nodes
	sys := coherence.NewSystem(cfg)
	recs := make([]trace.Record, len(accs))
	infos := make([]coherence.MissInfo, len(accs))
	var totalGap uint64
	for i, a := range accs {
		kind := trace.GetShared
		if a.store {
			kind = trace.GetExclusive
		}
		pc := a.pc
		if !a.hasPC {
			// Synthesize a stable per-CPU PC so PC-indexed predictors
			// still have something deterministic to key on.
			pc = trace.PC(0x40000 + 4*a.cpu)
		}
		gap := a.gap
		if gap == 0 {
			gap = opt.DefaultGap
		}
		rec := trace.Record{
			Addr:      a.addr,
			PC:        pc,
			Requester: uint8(a.cpu),
			Kind:      kind,
			Gap:       gap,
		}
		recs[i] = rec
		infos[i] = sys.Apply(rec)
		totalGap += uint64(gap)
	}
	var stats []coherence.BlockStat
	sys.ForEachTouchedBlock(func(b coherence.BlockStat) { stats = append(stats, b) })

	p := workload.Params{
		Name:  opt.Name,
		Nodes: nodes,
		// The realized rate: total instructions are the gap sum.
		MissesPer1000Instr: float64(len(recs)) * 1000 / float64(totalGap),
		Import: workload.Import{
			Format:  string(f),
			SHA256:  hex.EncodeToString(h.Sum(nil)),
			Records: len(recs),
		},
	}
	return dataset.FromRecords(p, recs, infos, stats, opt.Warm)
}

// ImportFile imports path, wrapping parse errors with the file name.
func ImportFile(path string, f Format, opt Options) (*dataset.Dataset, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	ds, err := Import(file, f, opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ds, nil
}

// Export writes every record of ds (warm then measured) in the given
// text format, carrying address, cpu, op, pc and gap — everything
// Import reads back, so Import(Export(ds)) reproduces ds's records
// exactly and Export∘Import∘Export is byte-identity.
func Export(w io.Writer, ds *dataset.Dataset, f Format) error {
	bw := bufio.NewWriter(w)
	if f == FormatCSV {
		if _, err := fmt.Fprintln(bw, "addr,cpu,op,pc,gap"); err != nil {
			return err
		}
	}
	for i := 0; i < ds.Len(); i++ {
		rec := ds.RecordAt(i)
		op := "R"
		if rec.Kind == trace.GetExclusive {
			op = "W"
		}
		var err error
		switch f {
		case FormatCSV:
			_, err = fmt.Fprintf(bw, "0x%x,%d,%s,0x%x,%d\n",
				uint64(rec.Addr)*trace.BlockBytes, rec.Requester, op, uint64(rec.PC), rec.Gap)
		case FormatText:
			_, err = fmt.Fprintf(bw, "0x%x %s %d 0x%x %d\n",
				uint64(rec.Addr)*trace.BlockBytes, op, rec.Requester, uint64(rec.PC), rec.Gap)
		default:
			return fmt.Errorf("ingest: unknown export format %q", f)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
