package perfbench

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadHistory fuzzes the bench-history reader behind `make
// bench-report`: it must never panic, and every history it accepts,
// written back snapshot by snapshot with AppendHistory, must read back
// equal.
func FuzzReadHistory(f *testing.F) {
	data, err := os.ReadFile("../../results/bench/history.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	// A torn last line: the append was cut off mid-write.
	last := bytes.LastIndexByte(bytes.TrimRight(data, "\n"), '\n')
	f.Add(data[:last+1+(len(data)-last)/2])
	f.Add([]byte("\n\n"))
	f.Add([]byte("null\n"))
	f.Add([]byte(`{"model_version":"v1","benchmarks":[]}` + "\n"))
	// One directory per fuzzing process; its two files are rewritten
	// for every input.
	dir := f.TempDir()
	path, back := filepath.Join(dir, "history.jsonl"), filepath.Join(dir, "back.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		history, err := ReadHistory(path)
		if err != nil {
			return
		}
		for i, s := range history {
			if err := AppendHistory(back, s); err != nil {
				t.Fatalf("accepted snapshot %d does not append: %v", i, err)
			}
		}
		again, err := ReadHistory(back)
		if err != nil {
			t.Fatalf("re-reading the written history failed: %v", err)
		}
		// Leave no file behind, so the code paths an input covers depend
		// on the input alone (the fuzzer stalls on state-dependent
		// coverage).
		if err := os.Remove(back); err != nil && len(history) > 0 {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(history, again) {
			t.Fatalf("round trip diverged:\n%+v\nvs\n%+v", history, again)
		}
	})
}
