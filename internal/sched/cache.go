package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// Key identifies one artefact computation for caching. Two computations
// with the same Key must produce byte-identical output: every generator is
// a pure function of (experiment, params, seed) under a fixed model, and
// ModelVersion is bumped whenever any calibrated model changes, which
// invalidates every previously cached artefact at once.
type Key struct {
	Experiment   string // artefact or check ID, e.g. "fig4"
	Params       string // canonical parameter string, e.g. "sweep=quick"
	Seed         uint64 // base seed of the experiment's random streams
	ModelVersion string // see core.ModelVersion
}

// Hash returns the content address: a SHA-256 over the length-prefixed
// fields (length prefixes keep distinct field splits from colliding).
func (k Key) Hash() string {
	h := sha256.New()
	writeField := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeField(k.Experiment)
	writeField(k.Params)
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], k.Seed)
	h.Write(seed[:])
	writeField(k.ModelVersion)
	return hex.EncodeToString(h.Sum(nil))
}

// entry is the on-disk cache envelope. Files are base64-encoded by
// encoding/json; map keys are marshalled in sorted order, so the envelope
// itself is deterministic.
type entry struct {
	Key     Key               `json:"key"`
	Virtual float64           `json:"virtual_seconds"`
	Files   map[string][]byte `json:"files"`
}

// Cache is a content-addressed on-disk store of artefact outputs. Entries
// live at <dir>/<hh>/<hash>.json where hh is the first hash byte, hash the
// full Key.Hash. It is safe for concurrent use by multiple workers: writes
// go through a temp file + rename, and a torn or corrupt entry reads as a
// miss, never as bad data.
type Cache struct {
	dir string
}

// OpenCache creates (if necessary) and returns the cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("sched: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sched: create cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) path(k Key) string {
	h := k.Hash()
	return filepath.Join(c.dir, h[:2], h+".json")
}

// Get returns the cached files and recorded virtual seconds for k, or
// ok=false on a miss. A stored entry whose full key does not match k
// (hash collision or tampering) is treated as a miss, and so is one that
// Put could not have written: no files map (a missing or null "files"),
// or virtual seconds that are negative or not finite. A hit therefore
// always carries a non-nil file map to regenerate the artefact from.
func (c *Cache) Get(k Key) (files map[string][]byte, virtual float64, ok bool) {
	if c == nil {
		return nil, 0, false
	}
	raw, err := os.ReadFile(c.path(k))
	if err != nil {
		return nil, 0, false
	}
	var e entry
	if err := json.Unmarshal(raw, &e); err != nil || e.Key != k || e.Files == nil || !validVirtual(e.Virtual) {
		return nil, 0, false
	}
	return e.Files, e.Virtual, true
}

// validVirtual reports whether v can be a computation's simulated seconds.
func validVirtual(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// Put stores the files produced for k along with the virtual seconds the
// computation simulated. A job that produced no files is stored with an
// empty map, so it still reads back as a hit; virtual seconds that Get
// would refuse (negative or not finite) are an error.
func (c *Cache) Put(k Key, files map[string][]byte, virtual float64) error {
	if c == nil {
		return nil
	}
	if !validVirtual(virtual) {
		return fmt.Errorf("sched: invalid virtual seconds %v", virtual)
	}
	if files == nil {
		files = map[string][]byte{}
	}
	raw, err := json.Marshal(entry{Key: k, Virtual: virtual, Files: files})
	if err != nil {
		return fmt.Errorf("sched: encode cache entry: %w", err)
	}
	path := c.path(k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("sched: cache shard: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("sched: cache temp: %w", err)
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sched: cache write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sched: cache close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sched: cache rename: %w", err)
	}
	return nil
}
