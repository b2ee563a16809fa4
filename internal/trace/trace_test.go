package trace

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cpumodel"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/platform"
)

func record(t *testing.T, np int, fn func(c *mpi.Comm) error) *Recorder {
	t.Helper()
	rec := New(np)
	pl, err := cluster.Place(platform.Vayu(), cluster.Spec{NP: np})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(platform.Vayu(), pl, mpi.WithTracer(rec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(fn); err != nil {
		t.Fatal(err)
	}
	return rec
}

func TestRecordsEvents(t *testing.T) {
	rec := record(t, 4, func(c *mpi.Comm) error {
		c.Region("work")
		c.Compute(cpumodel.Work{Flops: 1e7})
		c.AllreduceN(8)
		c.ReadShared(1<<20, 4)
		return nil
	})
	if rec.Count() != 4*3 {
		t.Fatalf("events = %d, want 12 (compute, allreduce, io per rank)", rec.Count())
	}
	evs := rec.Events(2)
	kinds := map[string]bool{}
	for _, e := range evs {
		kinds[e.Kind] = true
		if e.Dur < 0 || e.Start < 0 {
			t.Fatalf("bad event %+v", e)
		}
		if e.Region != "work" {
			t.Fatalf("region = %q", e.Region)
		}
	}
	for _, want := range []string{"compute", "comm", "io"} {
		if !kinds[want] {
			t.Fatalf("missing kind %q", want)
		}
	}
}

func TestEventsOrderedAndNonOverlapping(t *testing.T) {
	rec := record(t, 2, func(c *mpi.Comm) error {
		for i := 0; i < 10; i++ {
			c.Compute(cpumodel.Work{Flops: 1e6})
			c.AllreduceN(8)
		}
		return nil
	})
	for rank := 0; rank < 2; rank++ {
		last := 0.0
		for i, e := range rec.Events(rank) {
			if e.Start+1e-12 < last {
				t.Fatalf("rank %d event %d overlaps previous: start %v < %v", rank, i, e.Start, last)
			}
			last = e.Start + e.Dur
		}
	}
}

func TestChromeExport(t *testing.T) {
	rec := record(t, 2, func(c *mpi.Comm) error {
		c.Region("phase")
		c.Compute(cpumodel.Work{Flops: 1e6})
		if c.Rank() == 0 {
			c.SendN(1, 0, 1024)
		} else {
			c.RecvN(0, 0)
		}
		return nil
	})
	var buf strings.Builder
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	events, ok := doc["traceEvents"].([]any)
	if !ok || len(events) == 0 {
		t.Fatal("no traceEvents")
	}
	first := events[0].(map[string]any)
	for _, key := range []string{"name", "ph", "ts", "dur", "tid"} {
		if _, ok := first[key]; !ok {
			t.Fatalf("event missing %q: %v", key, first)
		}
	}
	if first["ph"] != "X" {
		t.Fatalf("phase = %v, want X", first["ph"])
	}
	// The send event should carry its byte count.
	found := false
	for _, raw := range events {
		e := raw.(map[string]any)
		if e["name"] == "Send" {
			args := e["args"].(map[string]any)
			if args["bytes"] == "1024" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("Send event with bytes=1024 not exported")
	}
}

// A recorded timeline must survive the Chrome export and obs parse with
// every analyzer-relevant field intact: wait/queued exactly (shortest
// round-trip float encoding), times to microsecond-conversion precision.
func TestChromeRoundTrip(t *testing.T) {
	rec := record(t, 4, func(c *mpi.Comm) error {
		c.Region("halo")
		c.Compute(cpumodel.Work{Flops: float64(c.Rank()+1) * 1e7})
		if c.Rank() == 0 {
			for dst := 1; dst < c.Size(); dst++ {
				c.SendN(dst, 0, 4096)
			}
		} else {
			c.RecvN(0, 0)
		}
		c.Region("solve")
		c.AllreduceN(1 << 10)
		return nil
	})
	var buf strings.Builder
	if err := rec.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	runs, err := obs.ParseChromeTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].PID != 0 {
		t.Fatalf("runs = %+v, want one run with pid 0", runs)
	}
	orig := timelineOf(rec)
	got := runs[0].Timeline
	if got.NP() != orig.NP() {
		t.Fatalf("np = %d, want %d", got.NP(), orig.NP())
	}
	for r := range orig {
		if len(got[r]) != len(orig[r]) {
			t.Fatalf("rank %d: %d events, want %d", r, len(got[r]), len(orig[r]))
		}
		for i, want := range orig[r] {
			g := got[r][i]
			if g.Name != want.Name || g.Kind != want.Kind || g.Region != want.Region {
				t.Fatalf("rank %d event %d: %+v, want %+v", r, i, g, want)
			}
			if math.Abs(g.Start-want.Start) > 1e-9 || math.Abs(g.Dur-want.Dur) > 1e-9 {
				t.Fatalf("rank %d event %d times: %+v, want %+v", r, i, g, want)
			}
			if g.Wait != want.Wait || g.Queued != want.Queued {
				t.Fatalf("rank %d event %d wait-state drifted: %+v, want %+v", r, i, g, want)
			}
			if want.Bytes > 0 && g.Bytes != want.Bytes {
				t.Fatalf("rank %d event %d bytes = %d, want %d", r, i, g.Bytes, want.Bytes)
			}
			if want.Wait > 0 && g.Peer != want.Peer {
				t.Fatalf("rank %d event %d peer = %d, want %d", r, i, g.Peer, want.Peer)
			}
		}
	}
}

// End-to-end: record a deliberately imbalanced run and check the obs
// analyzer's invariants on the real runtime's wait-state annotations.
func TestAnalyzeRecordedRun(t *testing.T) {
	const np = 4
	rec := record(t, np, func(c *mpi.Comm) error {
		c.Region("iter")
		for i := 0; i < 3; i++ {
			// Rank 3 computes 4x as long as rank 0, so collective waits
			// should be attributed to it.
			c.Compute(cpumodel.Work{Flops: float64(c.Rank()+1) * 2e7})
			c.AllreduceN(1 << 10)
		}
		return nil
	})
	a := obs.Analyze(timelineOf(rec))
	if a.NP != np {
		t.Fatalf("np = %d", a.NP)
	}
	var totalWait float64
	for _, rb := range a.Ranks {
		if rb.Wait > rb.Comm+1e-9 {
			t.Fatalf("rank %d: wait %v exceeds comm %v", rb.Rank, rb.Wait, rb.Comm)
		}
		if rb.End > a.End+1e-12 {
			t.Fatalf("rank %d ends after run end", rb.Rank)
		}
		totalWait += rb.Wait
	}
	if totalWait <= 0 {
		t.Fatal("imbalanced run recorded no wait time")
	}
	if got := a.Waits.LateSender + a.Waits.CollectiveWait; math.Abs(got-totalWait) > 1e-9 {
		t.Fatalf("classified wait %v != per-rank wait %v", got, totalWait)
	}
	// The runtime's collectives run in pairwise stages, so blame spreads
	// across the slow half of the ranks — but the top straggler must come
	// from that half, never from the fast ranks.
	worst, worstWait := -1, 0.0
	for r, w := range a.Waits.ByStraggler {
		if w > worstWait {
			worst, worstWait = r, w
		}
	}
	if worst < np/2 {
		t.Fatalf("top straggler = rank %d (%v s), want a slow rank (>= %d): %v",
			worst, worstWait, np/2, a.Waits.ByStraggler)
	}
	if a.PathLength <= 0 || a.PathLength > a.End+1e-9 {
		t.Fatalf("path length %v outside (0, end=%v]", a.PathLength, a.End)
	}
}

// An inactive FlagSink must hand out true interface nils and flush as a
// no-op, so binaries can wire -trace unconditionally.
func TestFlagSinkInactive(t *testing.T) {
	s := &FlagSink{}
	if s.Active() {
		t.Fatal("zero sink active")
	}
	if tr := s.Tracer(4); tr != nil {
		t.Fatalf("inactive Tracer = %v (%T), want untyped nil", tr, tr)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// Multi merges recordings under distinct pids that obs splits back out.
func TestMultiMergesRunsByPID(t *testing.T) {
	var m Multi
	for run := 0; run < 2; run++ {
		rec := m.New(2)
		pl, err := cluster.Place(platform.Vayu(), cluster.Spec{NP: 2})
		if err != nil {
			t.Fatal(err)
		}
		w, err := mpi.NewWorld(platform.Vayu(), pl, mpi.WithTracer(rec))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(func(c *mpi.Comm) error {
			c.Compute(cpumodel.Work{Flops: 1e6})
			c.AllreduceN(64)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d", m.Len())
	}
	var buf strings.Builder
	if err := m.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	runs, err := obs.ParseChromeTrace(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs[0].PID != 0 || runs[1].PID != 1 {
		t.Fatalf("got %d runs (pids %v)", len(runs), runs)
	}
	for i, run := range runs {
		if run.Timeline.NP() != 2 {
			t.Fatalf("run %d has %d ranks, want 2", i, run.Timeline.NP())
		}
	}
}

// timelineOf snapshots a whole recording for the obs analyzer.
func timelineOf(r *Recorder) obs.Timeline {
	tl := make(obs.Timeline, len(r.ranks))
	for rank := range r.ranks {
		tl[rank] = r.Events(rank)
	}
	return tl
}
