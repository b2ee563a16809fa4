package perfbench

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func snap(when string, env Env, ns map[string]float64) Snapshot {
	stats := make(map[string]Stats, len(ns))
	for name, v := range ns {
		stats[name] = Stats{N: 10, NsPerOp: v, BytesPerOp: 64, AllocsPerOp: 2}
	}
	return SnapshotFromStats("test-model", when, env, stats)
}

var testEnv = Env{GoVersion: "go1.99", GOMAXPROCS: 8, NumCPU: 8, GitRev: "abc123"}

func TestHistoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench", "history.jsonl")
	if got, err := ReadHistory(path); err != nil || got != nil {
		t.Fatalf("missing history: got %v, %v; want nil, nil", got, err)
	}
	s1 := snap("2026-01-01T00:00:00Z", testEnv, map[string]float64{"a": 100, "b": 200})
	s2 := snap("2026-01-08T00:00:00Z", testEnv, map[string]float64{"a": 110, "b": 190})
	if err := AppendHistory(path, s1); err != nil {
		t.Fatal(err)
	}
	if err := AppendHistory(path, s2); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Snapshot{s1, s2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestHistoryAppendOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	s := snap("", testEnv, map[string]float64{"a": 1})
	for i := 0; i < 3; i++ {
		if err := AppendHistory(path, s); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("3 appends read back %d snapshots", len(got))
	}
}

func TestHistoryRejectsEmptySnapshot(t *testing.T) {
	if err := AppendHistory(filepath.Join(t.TempDir(), "h.jsonl"), Snapshot{}); err == nil {
		t.Fatal("empty snapshot appended without error")
	}
}

func TestHistoryMalformedLine(t *testing.T) {
	good := `{"model_version":"x","benchmarks":[{"name":"a","n":1}]}` + "\n"
	// A line that is not JSON, and lines that decode to a snapshot
	// AppendHistory would never write.
	for _, bad := range []string{"not json", "null", `{"model_version":"x"}`} {
		path := filepath.Join(t.TempDir(), "h.jsonl")
		if err := os.WriteFile(path, []byte(good+bad+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadHistory(path); err == nil || !strings.Contains(err.Error(), ":2:") {
			t.Fatalf("line 2 %q: got error %v, want one naming line 2", bad, err)
		}
	}
}

func TestSnapshotFromStatsSorted(t *testing.T) {
	s := snap("", testEnv, map[string]float64{"z": 1, "a": 2, "m": 3})
	var names []string
	for _, p := range s.Benchmarks {
		names = append(names, p.Name)
	}
	if want := []string{"a", "m", "z"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("benchmarks not sorted: %v", names)
	}
}

func TestSeriesEnvFiltering(t *testing.T) {
	other := Env{GoVersion: "go1.98", GOMAXPROCS: 4, NumCPU: 4}
	history := []Snapshot{
		snap("", testEnv, map[string]float64{"a": 100}),
		snap("", other, map[string]float64{"a": 900}), // different machine
		snap("", testEnv, map[string]float64{"a": 110}),
		snap("", testEnv, map[string]float64{"b": 7}), // a absent
	}
	got := Series(history, "a", testEnv.Fingerprint())
	if want := []float64{100, 110}; !reflect.DeepEqual(got, want) {
		t.Fatalf("env-filtered series = %v, want %v", got, want)
	}
	if got := Series(history, "a", ""); len(got) != 3 {
		t.Fatalf("unfiltered series has %d points, want 3", len(got))
	}
}

func TestFingerprintIgnoresGitRev(t *testing.T) {
	a, b := testEnv, testEnv
	b.GitRev = "def456"
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint must not depend on the commit")
	}
	b.GOMAXPROCS = 1
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("fingerprint must depend on GOMAXPROCS")
	}
}
