package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzDecodeManifest fuzzes the manifest reader behind cmd/inspect: it
// must never panic, and every manifest it accepts must re-encode to
// bytes it accepts again and re-encodes identically.
func FuzzDecodeManifest(f *testing.F) {
	seeds, err := filepath.Glob("../../results/*.manifest.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"schema":"repro.run.manifest/v1","binary":"npb","model_version":"v1"}`))
	f.Add([]byte(`{"schema":"repro.run.manifest/v1","binary":"b","model_version":"v1","metrics":{"m":{"kind":"bogus"}}}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			return
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("accepted manifest does not encode: %v", err)
		}
		again, err := DecodeManifest(enc)
		if err != nil {
			t.Fatalf("re-decoding the encoding failed: %v", err)
		}
		enc2, err := again.Encode()
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encoding is not a fixpoint (err %v):\n%s\nvs\n%s", err, enc, enc2)
		}
	})
}

// FuzzParseChromeTrace fuzzes the trace reader behind cmd/inspect: it
// must never panic, every run it accepts is indexed by rank and ordered
// by pid, and parsing is deterministic.
func FuzzParseChromeTrace(f *testing.F) {
	data, err := os.ReadFile("testdata/npb-is-S-2.trace.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"traceEvents":[{"name":"Send","cat":"comm","ph":"X","ts":1,"dur":2,"pid":3,"tid":1,"args":{"bytes":"8","peer":"0","queued":"1e-6"}}]}`))
	f.Add([]byte(`{"traceEvents":[{"ph":"X","tid":-1}]}`))
	f.Add([]byte(`{"traceEvents":[{"ph":"X","args":{"wait":"x"}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		runs, err := ParseChromeTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, run := range runs {
			if i > 0 && runs[i-1].PID >= run.PID {
				t.Fatalf("runs not in ascending pid order: %d then %d", runs[i-1].PID, run.PID)
			}
			for r, evs := range run.Timeline {
				for _, e := range evs {
					if e.Rank != r {
						t.Fatalf("pid %d: event of rank %d filed under rank %d", run.PID, e.Rank, r)
					}
				}
			}
		}
		again, err := ParseChromeTrace(bytes.NewReader(data))
		if err != nil || !reflect.DeepEqual(runs, again) {
			t.Fatalf("reparse diverged: err %v", err)
		}
	})
}
