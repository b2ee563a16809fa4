package sched

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
)

// TestCacheRoundTrip: Put then Get returns the exact bytes and virtual
// seconds stored.
func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Experiment: "fig4", Params: "sweep=quick", Seed: 7, ModelVersion: "v1"}
	files := map[string][]byte{
		"a.csv": []byte("x,y\n1,2\n"),
		"a.txt": {0, 1, 2, 0xff}, // binary survives the envelope
	}
	if err := c.Put(k, files, 123.5); err != nil {
		t.Fatal(err)
	}
	got, virtual, ok := c.Get(k)
	if !ok {
		t.Fatal("want cache hit")
	}
	if virtual != 123.5 {
		t.Errorf("virtual = %v, want 123.5", virtual)
	}
	if !reflect.DeepEqual(got, files) {
		t.Errorf("files = %v, want %v", got, files)
	}
}

// TestCacheKeyMismatchIsMiss: any single differing key field misses.
func TestCacheKeyMismatchIsMiss(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Experiment: "e", Params: "p", Seed: 1, ModelVersion: "v1"}
	if err := c.Put(k, map[string][]byte{"f": []byte("x")}, 0); err != nil {
		t.Fatal(err)
	}
	for _, other := range []Key{
		{Experiment: "e2", Params: "p", Seed: 1, ModelVersion: "v1"},
		{Experiment: "e", Params: "p2", Seed: 1, ModelVersion: "v1"},
		{Experiment: "e", Params: "p", Seed: 2, ModelVersion: "v1"},
		{Experiment: "e", Params: "p", Seed: 1, ModelVersion: "v2"},
	} {
		if _, _, ok := c.Get(other); ok {
			t.Errorf("key %+v unexpectedly hit", other)
		}
	}
}

// TestCacheCorruptEntryIsMiss: a truncated or garbage entry file, or one
// that decodes with the right key but could not have been written by Put,
// reads as a miss rather than bad data.
func TestCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Experiment: "e", Params: "p", ModelVersion: "v1"}
	if err := c.Put(k, map[string][]byte{"f": []byte("x")}, 0); err != nil {
		t.Fatal(err)
	}
	h := k.Hash()
	path := filepath.Join(dir, h[:2], h+".json")
	key := `"key":{"Experiment":"e","Params":"p","Seed":0,"ModelVersion":"v1"}`
	for name, raw := range map[string]string{
		"torn":             "{torn",
		"no files":         `{` + key + `,"virtual_seconds":1}`,
		"null files":       `{` + key + `,"virtual_seconds":1,"files":null}`,
		"negative virtual": `{` + key + `,"virtual_seconds":-1,"files":{"f":"eA=="}}`,
	} {
		if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if files, _, ok := c.Get(k); ok {
			t.Errorf("%s entry should miss, got a hit with files %v", name, files)
		}
	}
}

// TestCachePutNilFilesHits: a job that produced no files is cached as an
// empty, non-nil file map.
func TestCachePutNilFilesHits(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := Key{Experiment: "e", ModelVersion: "v1"}
	if err := c.Put(k, nil, 2); err != nil {
		t.Fatal(err)
	}
	files, virtual, ok := c.Get(k)
	if !ok || files == nil || len(files) != 0 || virtual != 2 {
		t.Fatalf("got files %v virtual %v ok %v, want an empty hit at 2", files, virtual, ok)
	}
}

// TestCachePutRejectsInvalidVirtual: Put refuses the virtual seconds Get
// would read as a corrupt entry.
func TestCachePutRejectsInvalidVirtual(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := c.Put(Key{Experiment: "e"}, map[string][]byte{}, v); err == nil {
			t.Errorf("Put accepted virtual seconds %v", v)
		}
	}
}

// FuzzCacheGet fuzzes the cache reader behind every warm cmd/repro run:
// whatever bytes sit at an entry's path, Get must not panic and must
// never hit without files or with unusable virtual seconds; and an entry
// written by Put reads back equal.
func FuzzCacheGet(f *testing.F) {
	dir := f.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		f.Fatal(err)
	}
	k := Key{Experiment: "fig4", Params: "sweep=quick", Seed: 3, ModelVersion: "v1"}
	if err := c.Put(k, map[string][]byte{"fig4.csv": []byte("np,t\n64,1.5\n"), "b": {0, 0xff}}, 12.5); err != nil {
		f.Fatal(err)
	}
	real, err := os.ReadFile(c.path(k))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add([]byte(`{"key":{"Experiment":"fig4","Params":"sweep=quick","Seed":3,"ModelVersion":"v1"},"virtual_seconds":12.5}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(c.path(k), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if files, virtual, ok := c.Get(k); ok {
			if files == nil {
				t.Fatal("hit with nil files")
			}
			if virtual < 0 || math.IsNaN(virtual) || math.IsInf(virtual, 0) {
				t.Fatalf("hit with virtual seconds %v", virtual)
			}
		}

		// The same bytes as a file's content, under a second key, must
		// survive Put and Get unchanged.
		k2 := Key{Experiment: "roundtrip", ModelVersion: "v1"}
		want := map[string][]byte{"out.txt": data}
		if err := c.Put(k2, want, float64(len(data))); err != nil {
			t.Fatal(err)
		}
		files, virtual, ok := c.Get(k2)
		if !ok || virtual != float64(len(data)) {
			t.Fatalf("Put entry read back ok=%v virtual=%v", ok, virtual)
		}
		// encoding/json decodes an empty base64 string to nil bytes.
		if got := files["out.txt"]; len(files) != 1 || !bytes.Equal(got, data) {
			t.Fatalf("Put entry read back %q, want %q", got, data)
		}
	})
}

// TestNilCacheIsNoop: a nil *Cache (the -nocache path) misses and
// swallows writes without panicking.
func TestNilCacheIsNoop(t *testing.T) {
	var c *Cache
	if _, _, ok := c.Get(Key{}); ok {
		t.Fatal("nil cache should miss")
	}
	if err := c.Put(Key{}, nil, 0); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyKeyHash: hashing is deterministic, collision-free across
// distinct keys (including field-boundary shifts) and hex-addressable.
func TestPropertyKeyHash(t *testing.T) {
	prop := func(a, b Key) bool {
		if a.Hash() != a.Hash() {
			return false
		}
		if a == b {
			return a.Hash() == b.Hash()
		}
		return a.Hash() != b.Hash()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// Field boundaries must not collide: ("ab","c") vs ("a","bc").
	k1 := Key{Experiment: "ab", Params: "c"}
	k2 := Key{Experiment: "a", Params: "bc"}
	if k1.Hash() == k2.Hash() {
		t.Fatal("field-boundary collision")
	}
}

// TestPropertyCacheRoundTrip: arbitrary file maps survive the envelope.
func TestPropertyCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var seed uint64
	prop := func(name string, data []byte, virtual float64) bool {
		seed++
		if math.IsNaN(virtual) || math.IsInf(virtual, 0) {
			virtual = 0 // JSON cannot encode these; Put reports, not stores
		}
		virtual = math.Abs(virtual) // simulated time is never negative; Put refuses it
		k := Key{Experiment: "prop", Seed: seed, ModelVersion: "v1"}
		if err := c.Put(k, map[string][]byte{name: data}, virtual); err != nil {
			t.Logf("put: %v", err)
			return false
		}
		files, v, ok := c.Get(k)
		if !ok || v != virtual {
			t.Logf("get: ok=%v virtual=%v", ok, v)
			return false
		}
		got, present := files[name]
		// encoding/json decodes an empty base64 string to nil bytes.
		return present && (bytes.Equal(got, data) || (len(got) == 0 && len(data) == 0))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
