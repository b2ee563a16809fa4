// Package ipm implements an IPM-style performance profiler for the mpi
// runtime: per-rank and per-region accounting of communication,
// computation and I/O time, per-call statistics, message-size histograms,
// communication percentage and load-imbalance metrics — the numbers the
// paper reports in Tables II/III and Figure 7.
package ipm

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// DefaultRegion is the region label used before the first Comm.Region call.
const DefaultRegion = "(main)"

// CallStats aggregates one MPI call type.
type CallStats struct {
	Count int
	Time  float64
	Bytes int64
}

// RegionStats aggregates activity inside one profiling region on one rank.
type RegionStats struct {
	Comm    float64
	Compute float64
	IO      float64
	Wait    float64 // of Comm: blocked waiting for peers (late sender / straggler)
	Queued  float64 // messages for this rank sat unmatched this long
	Calls   map[string]*CallStats
}

// Wall returns the accounted virtual time in the region.
func (r *RegionStats) Wall() float64 { return r.Comm + r.Compute + r.IO }

// rankCollector gathers events for one rank. All events for a rank arrive
// from that rank's goroutine, so no locking is needed.
type rankCollector struct {
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

func newRankCollector() *rankCollector {
	rc := &rankCollector{
		region:   DefaultRegion,
		calls:    map[string]*CallStats{},
		regions:  map[string]*RegionStats{},
		sizeHist: map[int]int{},
	}
	rc.regions[DefaultRegion] = &RegionStats{Calls: map[string]*CallStats{}}
	return rc
}

func (rc *rankCollector) regionStats() *RegionStats {
	rs, ok := rc.regions[rc.region]
	if !ok {
		rs = &RegionStats{Calls: map[string]*CallStats{}}
		rc.regions[rc.region] = rs
	}
	return rs
}

// Profiler implements mpi.Tracer.
type Profiler struct {
	ranks []*rankCollector
}

var _ mpi.Tracer = (*Profiler)(nil)

// New creates a profiler for np ranks.
func New(np int) *Profiler {
	p := &Profiler{ranks: make([]*rankCollector, np)}
	for i := range p.ranks {
		p.ranks[i] = newRankCollector()
	}
	return p
}

// Call implements mpi.Tracer.
func (p *Profiler) Call(rank int, rec mpi.CallRecord) {
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

// Advance implements mpi.Tracer.
func (p *Profiler) Advance(rank int, kind string, start, dur float64) {
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

// Region implements mpi.Tracer.
func (p *Profiler) Region(rank int, name string, at float64) {
	if name == "" {
		name = DefaultRegion
	}
	p.ranks[rank].region = name
}

// sizeBucket returns the log2 bucket index for a message size (0 bytes
// maps to bucket 0).
func sizeBucket(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// BucketBytes returns the upper bound of a histogram bucket.
func BucketBytes(bucket int) int { return 1 << bucket }

// Profile is an immutable snapshot of a finished run.
type Profile struct {
	NP     int
	Wall   sim.Series // per-rank final clocks
	Comm   sim.Series
	Comp   sim.Series
	IO     sim.Series
	Wait   sim.Series           // of Comm: per-rank blocked time (Scalasca wait states)
	Queued sim.Series           // per-rank late-receiver time
	Calls  map[string]CallStats // aggregated over ranks

	// Resilience accounting, populated (via SetResilience) for runs under
	// the fault plane with checkpoint/restart. For such runs the per-rank
	// identity comp + comm + io + LostWork + RestartOverhead <= wall
	// holds: discarded incarnations occupy disjoint virtual intervals.
	Restarts        int     // incarnations discarded by failures
	Checkpoints     int     // durable checkpoints committed
	LostWork        float64 // virtual seconds of discarded progress per rank
	RestartOverhead float64 // virtual seconds spent restarting per rank

	regions  []map[string]*RegionStats // per rank
	sizeHist map[int]int               // aggregated
}

// SetResilience attaches checkpoint/restart accounting to the profile.
func (pr *Profile) SetResilience(restarts, checkpoints int, lostWork, restartOverhead float64) {
	pr.Restarts = restarts
	pr.Checkpoints = checkpoints
	pr.LostWork = lostWork
	pr.RestartOverhead = restartOverhead
}

// LostWorkPercent returns lost (discarded plus restart) time as a
// percentage of total walltime.
func (pr *Profile) LostWorkPercent() float64 {
	wall := pr.Wall.Sum()
	if wall == 0 {
		return 0
	}
	return 100 * float64(pr.NP) * (pr.LostWork + pr.RestartOverhead) / wall
}

// Snapshot combines the collected events with the run result into a
// profile. It must be called after mpi's Run returns.
func (p *Profiler) Snapshot(res *mpi.Result) *Profile {
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

// CommPercent returns the percentage of total walltime spent in
// communication — IPM's "%comm", the statistic of Table II.
func (pr *Profile) CommPercent() float64 {
	wall := pr.Wall.Sum()
	if wall == 0 {
		return 0
	}
	return 100 * pr.Comm.Sum() / wall
}

// WaitPercent returns blocked (wait-state) time as a percentage of
// communication time: how much of IPM's "%comm" is peers being late
// rather than wires being slow.
func (pr *Profile) WaitPercent() float64 {
	comm := pr.Comm.Sum()
	if comm == 0 {
		return 0
	}
	return 100 * pr.Wait.Sum() / comm
}

// RegionWait returns the per-rank wait and queued series for one region.
func (pr *Profile) RegionWait(name string) (wait, queued sim.Series) {
	wait = make(sim.Series, pr.NP)
	queued = make(sim.Series, pr.NP)
	for r, m := range pr.regions {
		if rs, ok := m[name]; ok {
			wait[r] = rs.Wait
			queued[r] = rs.Queued
		}
	}
	return wait, queued
}

// IOPercent returns the percentage of total walltime spent in file I/O.
func (pr *Profile) IOPercent() float64 {
	wall := pr.Wall.Sum()
	if wall == 0 {
		return 0
	}
	return 100 * pr.IO.Sum() / wall
}

// LoadImbalancePercent returns 100*(max-mean)/max of per-rank computation
// time — the paper's "%imbal".
func (pr *Profile) LoadImbalancePercent() float64 {
	return 100 * pr.Comp.Imbalance()
}

// Time returns the job's virtual wall time.
func (pr *Profile) Time() float64 { return pr.Wall.Max() }

// RegionNames returns all region labels seen, sorted.
func (pr *Profile) RegionNames() []string {
	set := map[string]bool{}
	for _, m := range pr.regions {
		for name := range m {
			set[name] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Region returns the aggregated per-rank series for one region:
// computation, communication and I/O time per rank. Ranks that never
// entered the region contribute zeros.
func (pr *Profile) Region(name string) (comp, comm, io sim.Series) {
	comp = make(sim.Series, pr.NP)
	comm = make(sim.Series, pr.NP)
	io = make(sim.Series, pr.NP)
	for r, m := range pr.regions {
		if rs, ok := m[name]; ok {
			comp[r] = rs.Compute
			comm[r] = rs.Comm
			io[r] = rs.IO
		}
	}
	return comp, comm, io
}

// RegionCommPercent returns %comm within one region.
func (pr *Profile) RegionCommPercent(name string) float64 {
	comp, comm, io := pr.Region(name)
	total := comp.Sum() + comm.Sum() + io.Sum()
	if total == 0 {
		return 0
	}
	return 100 * comm.Sum() / total
}

// SizeHistogram returns (bucketUpperBytes, count) pairs sorted by size.
func (pr *Profile) SizeHistogram() ([]int, []int) {
	buckets := make([]int, 0, len(pr.sizeHist))
	for b := range pr.sizeHist {
		buckets = append(buckets, b)
	}
	sort.Ints(buckets)
	sizes := make([]int, len(buckets))
	counts := make([]int, len(buckets))
	for i, b := range buckets {
		sizes[i] = BucketBytes(b)
		counts[i] = pr.sizeHist[b]
	}
	return sizes, counts
}

// AvgMessageBytes returns the mean message size over all recorded calls,
// or 0 when nothing was sent.
func (pr *Profile) AvgMessageBytes() float64 {
	var n int
	var bytes int64
	for _, cs := range pr.Calls {
		n += cs.Count
		bytes += cs.Bytes
	}
	if n == 0 {
		return 0
	}
	return float64(bytes) / float64(n)
}

// String renders a compact IPM-like summary.
func (pr *Profile) String() string {
	s := fmt.Sprintf("ranks=%d wall=%.3fs comm=%.1f%% io=%.1f%% imbal=%.1f%%\n",
		pr.NP, pr.Time(), pr.CommPercent(), pr.IOPercent(), pr.LoadImbalancePercent())
	names := make([]string, 0, len(pr.Calls))
	for n := range pr.Calls {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		cs := pr.Calls[n]
		s += fmt.Sprintf("  %-12s count=%-8d time=%.4fs bytes=%d\n", n, cs.Count, cs.Time, cs.Bytes)
	}
	return s
}
