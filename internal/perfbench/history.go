package perfbench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// This file is the bench-history layer of the continuous-evaluation
// plane: `make bench` appends one Snapshot per run to an append-only
// JSONL file (results/bench/history.jsonl) instead of overwriting a
// single report, and the readers here extract per-benchmark series the
// statistical change detector (detect.go) classifies. Snapshots carry
// an Env fingerprint so measurements taken on different machines or
// toolchains never get compared against each other.

// Env identifies the machine and toolchain a snapshot was measured on.
// Timing comparisons are only meaningful within one fingerprint.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	// GitRev is the abbreviated commit the suite ran at. Provenance
	// only: it is deliberately NOT part of the fingerprint, so the
	// history accumulates a cross-commit trend on one machine.
	GitRev string `json:"git_rev,omitempty"`
}

// Fingerprint collapses the comparability-relevant fields into one
// string (commit excluded: trends span commits by design).
func (e Env) Fingerprint() string {
	return fmt.Sprintf("%s/gomaxprocs=%d/cpus=%d", e.GoVersion, e.GOMAXPROCS, e.NumCPU)
}

// Point is one benchmark's measurement inside a history snapshot.
type Point struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Snapshot is one line of the bench history: a full suite run with its
// environment provenance. Time is caller-supplied (RFC3339) so this
// package stays free of wall-clock sources.
type Snapshot struct {
	Time         string  `json:"time,omitempty"`
	ModelVersion string  `json:"model_version"`
	Env          Env     `json:"env"`
	Benchmarks   []Point `json:"benchmarks"`
}

// SnapshotFromStats builds a Snapshot from Measure results keyed by
// benchmark name, sorted for deterministic bytes.
func SnapshotFromStats(modelVersion, when string, env Env, stats map[string]Stats) Snapshot {
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	points := make([]Point, len(names))
	for i, name := range names {
		s := stats[name]
		points[i] = Point{Name: name, N: s.N, NsPerOp: s.NsPerOp,
			BytesPerOp: s.BytesPerOp, AllocsPerOp: s.AllocsPerOp}
	}
	return Snapshot{Time: when, ModelVersion: modelVersion, Env: env, Benchmarks: points}
}

// AppendHistory appends one snapshot as a single JSON line, creating the
// file and its directory on first use. The file is append-only by
// contract: past measurements are never rewritten, so the trend a
// reader extracts can only grow.
func AppendHistory(path string, s Snapshot) error {
	if len(s.Benchmarks) == 0 {
		return fmt.Errorf("perfbench: refusing to append an empty snapshot to %s", path)
	}
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("perfbench: history dir: %w", err)
		}
	}
	line, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("perfbench: encode snapshot: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("perfbench: open history: %w", err)
	}
	_, werr := f.Write(append(line, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("perfbench: append history: %w", werr)
	}
	return nil
}

// ReadHistory loads every snapshot in file order. A missing file returns
// (nil, nil) so the first bench run needs no history; a malformed line,
// or one without benchmarks (AppendHistory never writes one), is an
// error naming its line number, because silently dropping history would
// skew every verdict computed from it.
func ReadHistory(path string) ([]Snapshot, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("perfbench: open history: %w", err)
	}
	defer f.Close()
	var out []Snapshot
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var s Snapshot
		if err := json.Unmarshal(line, &s); err != nil {
			return nil, fmt.Errorf("perfbench: %s:%d: %w", path, lineno, err)
		}
		if len(s.Benchmarks) == 0 {
			return nil, fmt.Errorf("perfbench: %s:%d: snapshot has no benchmarks", path, lineno)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("perfbench: read history: %w", err)
	}
	return out, nil
}

// Series extracts one benchmark's ns/op values across the snapshots, in
// history order, restricted to snapshots matching the given environment
// fingerprint ("" matches everything). Snapshots that do not contain
// the benchmark are skipped, so a suite member added later starts its
// own series without distorting older ones.
func Series(history []Snapshot, name, fingerprint string) []float64 {
	var vals []float64
	for _, s := range history {
		if fingerprint != "" && s.Env.Fingerprint() != fingerprint {
			continue
		}
		for _, p := range s.Benchmarks {
			if p.Name == name {
				vals = append(vals, p.NsPerOp)
				break
			}
		}
	}
	return vals
}
