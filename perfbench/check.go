package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Output check. Every timed sweep's records are digested cell by cell in
// plan order — from Run's plan-ordered results, never from observer
// emission order — and compared with the reference for the same seed.
// The reference for defaultSeed is pinned under ref/; for any other seed
// it is computed, untimed, by single-threaded in-process shard runs of
// the same sweep.

// defaultSeed is the seed whose references are pinned.
const defaultSeed = 1

//go:embed ref
var pinned embed.FS

// cell is one plan cell's output: a label naming it and a digest of its
// record bytes.
type cell struct {
	label  string
	digest string
}

// digestOf hashes one cell's record bytes.
func digestOf(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// digestJSON hashes the JSON encoding of v.
func digestJSON(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return digestOf(b), nil
}

// compare counts the cells of got whose digest differs from want's (or
// that want lacks). A run that returned a different number of cells fails
// every cell it attempted.
func compare(want, got []cell) (failed int, diffs []string) {
	if len(want) != len(got) {
		return max(len(got), 1), []string{fmt.Sprintf("%d cells, reference has %d", len(got), len(want))}
	}
	for i := range got {
		if got[i] != want[i] {
			failed++
			if len(diffs) < 5 {
				diffs = append(diffs, fmt.Sprintf("cell %d %s: digest %s, reference %s (%s)",
					i, got[i].label, got[i].digest, want[i].digest, want[i].label))
			}
		}
	}
	return failed, diffs
}

// refName is the pinned reference file of a workload.
func refName(workload string) string { return "ref/" + workload + ".txt" }

// pinHeader is the first line of a pinned reference. It names the scale,
// so a reference pinned at another scale is refused rather than reported
// as mismatching cells.
func pinHeader(workload string, sc scale) string {
	return fmt.Sprintf("# %s at seed %d, %d seeds of %d+%d misses: one line per record, \"<digest> <label>\"",
		workload, defaultSeed, sc.seeds, sc.warm, sc.measure)
}

// loadPinned reads a workload's pinned reference.
func loadPinned(workload string, sc scale) ([]cell, error) {
	raw, err := pinned.ReadFile(refName(workload))
	if err != nil {
		return nil, fmt.Errorf("no pinned reference for %s: %w", workload, err)
	}
	header, body, _ := strings.Cut(string(raw), "\n")
	if header != pinHeader(workload, sc) {
		return nil, fmt.Errorf("%s was pinned as %q; re-pin it with --pin", refName(workload), header)
	}
	var cells []cell
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		digest, label, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", refName(workload), line)
		}
		cells = append(cells, cell{label: label, digest: digest})
	}
	return cells, nil
}

// writePinned stores a reference as the pinned file of a workload under
// dir (the benchmark's source directory).
func writePinned(dir, workload string, sc scale, cells []cell) error {
	var b strings.Builder
	b.WriteString(pinHeader(workload, sc) + "\n")
	for _, c := range cells {
		fmt.Fprintf(&b, "%s %s\n", c.digest, c.label)
	}
	return os.WriteFile(filepath.Join(dir, refName(workload)), []byte(b.String()), 0o644)
}
