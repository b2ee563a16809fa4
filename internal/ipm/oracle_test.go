package ipm

import (
	"reflect"
	"testing"

	"repro/internal/apps/chaste"
	"repro/internal/cluster"
	"repro/internal/cpumodel"
	"repro/internal/mpi"
	"repro/internal/platform"
	"repro/internal/sim"
)

// oracleCollector is the map-based per-rank accounting the dense
// Profiler replaced, kept as the reference it must agree with: every
// call does string-keyed map lookups for the call name and the region.
type oracleCollector struct {
	region   string
	comm     float64
	compute  float64
	io       float64
	wait     float64
	queued   float64
	calls    map[string]*CallStats
	regions  map[string]*RegionStats
	sizeHist map[int]int // log2 bucket -> message count
}

func newOracleCollector() *oracleCollector {
	rc := &oracleCollector{
		region:   DefaultRegion,
		calls:    map[string]*CallStats{},
		regions:  map[string]*RegionStats{},
		sizeHist: map[int]int{},
	}
	rc.regions[DefaultRegion] = &RegionStats{Calls: map[string]*CallStats{}}
	return rc
}

func (rc *oracleCollector) regionStats() *RegionStats {
	rs, ok := rc.regions[rc.region]
	if !ok {
		rs = &RegionStats{Calls: map[string]*CallStats{}}
		rc.regions[rc.region] = rs
	}
	return rs
}

// oracleProfiler implements mpi.Tracer over oracleCollectors.
type oracleProfiler struct {
	ranks []*oracleCollector
}

func newOracle(np int) *oracleProfiler {
	p := &oracleProfiler{ranks: make([]*oracleCollector, np)}
	for i := range p.ranks {
		p.ranks[i] = newOracleCollector()
	}
	return p
}

func (p *oracleProfiler) Call(rank int, rec mpi.CallRecord) {
	rc := p.ranks[rank]
	rc.comm += rec.Dur
	rc.wait += rec.Wait
	rc.queued += rec.Queued
	upd := func(m map[string]*CallStats) {
		cs, ok := m[rec.Name]
		if !ok {
			cs = &CallStats{}
			m[rec.Name] = cs
		}
		cs.Count++
		cs.Time += rec.Dur
		cs.Bytes += int64(rec.Bytes)
	}
	upd(rc.calls)
	rs := rc.regionStats()
	rs.Comm += rec.Dur
	rs.Wait += rec.Wait
	rs.Queued += rec.Queued
	upd(rs.Calls)
	rc.sizeHist[sizeBucket(rec.Bytes)]++
}

func (p *oracleProfiler) Advance(rank int, kind string, start, dur float64) {
	rc := p.ranks[rank]
	rs := rc.regionStats()
	switch kind {
	case "compute":
		rc.compute += dur
		rs.Compute += dur
	case "io":
		rc.io += dur
		rs.IO += dur
	}
}

func (p *oracleProfiler) Region(rank int, name string, at float64) {
	if name == "" {
		name = DefaultRegion
	}
	p.ranks[rank].region = name
}

func (p *oracleProfiler) Snapshot(res *mpi.Result) *Profile {
	np := len(p.ranks)
	pr := &Profile{
		NP:       np,
		Wall:     append(sim.Series(nil), res.RankTimes...),
		Comm:     make(sim.Series, np),
		Comp:     make(sim.Series, np),
		IO:       make(sim.Series, np),
		Wait:     make(sim.Series, np),
		Queued:   make(sim.Series, np),
		Calls:    map[string]CallStats{},
		regions:  make([]map[string]*RegionStats, np),
		sizeHist: map[int]int{},
	}
	for r, rc := range p.ranks {
		pr.Comm[r] = rc.comm
		pr.Comp[r] = rc.compute
		pr.IO[r] = rc.io
		pr.Wait[r] = rc.wait
		pr.Queued[r] = rc.queued
		pr.regions[r] = rc.regions
		for name, cs := range rc.calls {
			agg := pr.Calls[name]
			agg.Count += cs.Count
			agg.Time += cs.Time
			agg.Bytes += cs.Bytes
			pr.Calls[name] = agg
		}
		for b, c := range rc.sizeHist {
			pr.sizeHist[b] += c
		}
	}
	return pr
}

// againstOracle runs fn on np ranks of p with the Profiler and the
// oracle fed the same callbacks through mpi.Tee, and returns both
// profiles.
func againstOracle(t *testing.T, p *platform.Platform, np int, fn func(c *mpi.Comm) error) (got, want *Profile) {
	t.Helper()
	pl, err := cluster.Place(p, cluster.Spec{NP: np})
	if err != nil {
		t.Fatal(err)
	}
	prof, oracle := New(np), newOracle(np)
	w, err := mpi.NewWorld(p, pl, mpi.WithTracer(mpi.Tee(prof, oracle)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(fn)
	if err != nil {
		t.Fatal(err)
	}
	return prof.Snapshot(res), oracle.Snapshot(res)
}

// assertSameProfile compares every statistic Profile exposes, exactly.
func assertSameProfile(t *testing.T, got, want *Profile) {
	t.Helper()
	if !reflect.DeepEqual(got.Calls, want.Calls) {
		t.Errorf("Calls:\n got %v\nwant %v", got.Calls, want.Calls)
	}
	for _, s := range []struct {
		name      string
		got, want sim.Series
	}{
		{"Comm", got.Comm, want.Comm}, {"Comp", got.Comp, want.Comp}, {"IO", got.IO, want.IO},
		{"Wait", got.Wait, want.Wait}, {"Queued", got.Queued, want.Queued},
	} {
		if !reflect.DeepEqual(s.got, s.want) {
			t.Errorf("%s:\n got %v\nwant %v", s.name, s.got, s.want)
		}
	}
	gs, gc := got.SizeHistogram()
	ws, wc := want.SizeHistogram()
	if !reflect.DeepEqual(gs, ws) || !reflect.DeepEqual(gc, wc) {
		t.Errorf("SizeHistogram: got %v %v, want %v %v", gs, gc, ws, wc)
	}
	names := got.RegionNames()
	if !reflect.DeepEqual(names, want.RegionNames()) {
		t.Fatalf("RegionNames: got %v, want %v", names, want.RegionNames())
	}
	for _, name := range names {
		gComp, gComm, gIO := got.Region(name)
		wComp, wComm, wIO := want.Region(name)
		if !reflect.DeepEqual([]sim.Series{gComp, gComm, gIO}, []sim.Series{wComp, wComm, wIO}) {
			t.Errorf("Region(%q): got %v %v %v, want %v %v %v", name, gComp, gComm, gIO, wComp, wComm, wIO)
		}
		gWait, gQueued := got.RegionWait(name)
		wWait, wQueued := want.RegionWait(name)
		if !reflect.DeepEqual([]sim.Series{gWait, gQueued}, []sim.Series{wWait, wQueued}) {
			t.Errorf("RegionWait(%q): got %v %v, want %v %v", name, gWait, gQueued, wWait, wQueued)
		}
	}
	if !reflect.DeepEqual(got.regions, want.regions) {
		t.Errorf("per-rank region statistics differ")
	}
	if g, w := got.String(), want.String(); g != w {
		t.Errorf("String:\n got %s\nwant %s", g, w)
	}
}

// TestProfilerMatchesOracleChaste: a multi-region Chaste run (INPUT,
// ASSEMBLE, KSp, OUTPUT, re-entered every step) accounts identically
// under the dense profiler and the map-based oracle.
func TestProfilerMatchesOracleChaste(t *testing.T) {
	cfg := chaste.Default()
	cfg.Steps = 3
	got, want := againstOracle(t, platform.DCC(), 16, func(c *mpi.Comm) error {
		_, err := chaste.Run(c, cfg)
		return err
	})
	if len(got.RegionNames()) < 4 {
		t.Fatalf("chaste run reported regions %v, want at least four", got.RegionNames())
	}
	assertSameProfile(t, got, want)
}

// TestProfilerMatchesOracleIdleRegion: a region entered and left without
// any call or advance inside it never appears, on either profiler; an
// empty-named region falls back to the default; and ranks diverge in the
// regions and call names they use.
func TestProfilerMatchesOracleIdleRegion(t *testing.T) {
	got, want := againstOracle(t, platform.Vayu(), 4, func(c *mpi.Comm) error {
		c.Region("idle")
		c.Region("work")
		c.Compute(cpumodel.Work{Flops: 1e7})
		if c.Rank()%2 == 0 {
			c.Region("even-only")
			c.SendrecvN((c.Rank()+2)%4, 1, 1<<12, (c.Rank()+2)%4, 1)
		}
		c.Region("")
		c.AllreduceN(8)
		c.Region("work")
		c.BcastN(0, 1<<16)
		c.Region("idle-at-end")
		return nil
	})
	for _, name := range got.RegionNames() {
		if name == "idle" || name == "idle-at-end" {
			t.Fatalf("region %q had no activity but is reported", name)
		}
	}
	assertSameProfile(t, got, want)
}
