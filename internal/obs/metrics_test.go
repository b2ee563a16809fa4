package obs

import (
	"reflect"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("events_total", "total events")
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	// Re-registration under the same name returns the same handle.
	if again := r.Counter("events_total", "total events"); again != c {
		t.Fatal("re-registration returned a different handle")
	}
}

func TestAddSecondsRoundsPerEvent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("virtual_ns", "")
	c.AddSeconds(1.5)
	c.AddSeconds(2.5e-9) // rounds to 3 ns, not truncated to 2
	if got := c.Value(); got != 1_500_000_003 {
		t.Fatalf("nanoseconds = %d, want 1500000003", got)
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("depth", "")
	g.Set(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("Set(9) = %d, want 9", got)
	}
	g.Add(-2)
	if got := g.Value(); got != 7 {
		t.Fatalf("Add(-2) = %d, want 7", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sizes", "")
	for _, v := range []int64{0, 1, 5, 5, 1 << 20} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 11+1<<20 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	m := r.Snapshot(false)["sizes"]
	want := map[string]int64{
		"0":       1, // v <= 0
		"1":       1, // 1
		"7":       2, // 5, 5 in (3, 7]
		"2097151": 1, // 2^20 in (2^20-1, 2^21-1]
	}
	if len(m.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", m.Buckets, want)
	}
	for ub, n := range want {
		if m.Buckets[ub] != n {
			t.Fatalf("bucket %s = %d, want %d (all: %v)", ub, m.Buckets[ub], n, m.Buckets)
		}
	}
}

func TestSnapshotVolatileFiltering(t *testing.T) {
	r := NewRegistry()
	r.Counter("stable_total", "").Add(7)
	r.VolatileCounter("wall_hits", "").Add(9)
	r.VolatileGauge("queue", "").Set(2)

	stable := r.Snapshot(false)
	if len(stable) != 1 {
		t.Fatalf("stable snapshot has %d metrics, want 1: %v", len(stable), stable)
	}
	if stable["stable_total"].Value != 7 {
		t.Fatalf("stable_total = %+v", stable["stable_total"])
	}

	full := r.Snapshot(true)
	if len(full) != 3 {
		t.Fatalf("full snapshot has %d metrics, want 3", len(full))
	}
	if !full["wall_hits"].Volatile || full["wall_hits"].Value != 9 {
		t.Fatalf("wall_hits = %+v", full["wall_hits"])
	}
}

func TestReregisterKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestReregisterVolatileMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering stable metric as volatile did not panic")
		}
	}()
	r.VolatileCounter("x", "")
}

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	g := r.VolatileGauge("b", "")
	h := r.Histogram("c", "")
	c.Add(1) // all no-ops, must not crash
	g.Set(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles returned nonzero values")
	}
	if r.Snapshot(true) != nil {
		t.Fatal("nil registry snapshot not nil")
	}
}

// Concurrent integer adds must commute: the totals are independent of
// interleaving, which is the determinism contract manifests rely on.
func TestConcurrentAddsDeterministic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n", "")
	h := r.Histogram("obs", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= 1000; i++ {
				c.Add(i)
				h.Observe(i % 17)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8*1000*1001/2 {
		t.Fatalf("counter = %d, want %d", got, 8*1000*1001/2)
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
}

// TestAddBucketMatchesObserve: runs of observations tallied locally and
// added in bulk give the snapshot that observing them one by one gives.
func TestAddBucketMatchesObserve(t *testing.T) {
	values := []int64{0, 1, 1, 3, 2, 8, 9, 15, 4096, 4095, -2, 1 << 40, 7, 7}
	one, bulk := NewRegistry(), NewRegistry()
	h1, h2 := one.Histogram("h", ""), bulk.Histogram("h", "")
	var run, n, sum int64 = -1, 0, 0
	for _, v := range values {
		h1.Observe(v)
		if i := int64(Bucket(v)); i != run {
			if n > 0 {
				h2.AddBucket(int(run), n, sum)
			}
			run, n, sum = i, 0, 0
		}
		n++
		sum += v
	}
	h2.AddBucket(int(run), n, sum)
	if a, b := one.Snapshot(false), bulk.Snapshot(false); !reflect.DeepEqual(a, b) {
		t.Fatalf("bulk adds %v differ from observations %v", b, a)
	}
}
