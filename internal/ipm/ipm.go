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
//
// Accounting is dense: call names are interned per rank into indices on
// first sight (a rank uses a handful of names, so a short scan beats a
// map), the active region's accumulator is cached between region
// switches, and the size histogram is a slice. Snapshot rebuilds the
// name-keyed maps Profile exposes.
type rankCollector struct {
	comm     float64
	compute  float64
	io       float64
	wait     float64
	queued   float64
	names    []string     // interned call names; index = call id
	calls    []CallStats  // by call id
	regions  []*regionAcc // in order of first activity
	region   string       // active region label
	cur      *regionAcc   // region's accumulator; nil until its first call or advance
	sizeHist []int        // log2 size bucket -> message count, grown to the largest bucket seen
}

// regionAcc accumulates one region on one rank: RegionStats with its
// calls indexed by the rank's call ids.
type regionAcc struct {
	name  string
	stats RegionStats // Calls stays nil; see calls
	calls []CallStats
}

// callID returns name's dense index on this rank, interning it on first
// use.
func (rc *rankCollector) callID(name string) int {
	for i, n := range rc.names {
		if n == name {
			return i
		}
	}
	//lint:allow reprolint/allochot first call of each name on this rank; a rank uses a handful of names
	rc.names = append(rc.names, name)
	//lint:allow reprolint/allochot grows with rc.names above
	rc.calls = append(rc.calls, CallStats{})
	return len(rc.names) - 1
}

// active returns the active region's accumulator, creating it on the
// region's first call or advance.
func (rc *rankCollector) active() *regionAcc {
	if rc.cur != nil {
		return rc.cur
	}
	for _, ra := range rc.regions {
		if ra.name == rc.region {
			rc.cur = ra
			return ra
		}
	}
	//lint:allow reprolint/allochot once per region and rank, on the region's first activity
	rc.cur = &regionAcc{name: rc.region}
	//lint:allow reprolint/allochot grows with the distinct regions of a rank
	rc.regions = append(rc.regions, rc.cur)
	return rc.cur
}

// add folds one call of dur seconds and the given bytes into cs.
func (cs *CallStats) add(dur float64, bytes int) {
	cs.Count++
	cs.Time += dur
	cs.Bytes += int64(bytes)
}

// Profiler implements mpi.Tracer.
type Profiler struct {
	ranks []rankCollector
}

var _ mpi.Tracer = (*Profiler)(nil)

// New creates a profiler for np ranks.
func New(np int) *Profiler {
	p := &Profiler{ranks: make([]rankCollector, np)}
	for i := range p.ranks {
		p.ranks[i].region = DefaultRegion
	}
	return p
}

// Call implements mpi.Tracer.
func (p *Profiler) Call(rank int, rec mpi.CallRecord) {
	rc := &p.ranks[rank]
	rc.comm += rec.Dur
	rc.wait += rec.Wait
	rc.queued += rec.Queued
	id := rc.callID(rec.Name)
	rc.calls[id].add(rec.Dur, rec.Bytes)
	ra := rc.active()
	ra.stats.Comm += rec.Dur
	ra.stats.Wait += rec.Wait
	ra.stats.Queued += rec.Queued
	if id >= len(ra.calls) {
		//lint:allow reprolint/allochot grows to the rank's call-name count, once per name and region
		ra.calls = append(ra.calls, make([]CallStats, id+1-len(ra.calls))...)
	}
	ra.calls[id].add(rec.Dur, rec.Bytes)
	b := sizeBucket(rec.Bytes)
	if b >= len(rc.sizeHist) {
		//lint:allow reprolint/allochot grows to the largest size bucket seen (at most ~40 words)
		rc.sizeHist = append(rc.sizeHist, make([]int, b+1-len(rc.sizeHist))...)
	}
	rc.sizeHist[b]++
}

// Advance implements mpi.Tracer.
func (p *Profiler) Advance(rank int, kind string, start, dur float64) {
	rc := &p.ranks[rank]
	ra := rc.active()
	switch kind {
	case "compute":
		rc.compute += dur
		ra.stats.Compute += dur
	case "io":
		rc.io += dur
		ra.stats.IO += dur
	}
}

// Region implements mpi.Tracer.
func (p *Profiler) Region(rank int, name string, at float64) {
	if name == "" {
		name = DefaultRegion
	}
	rc := &p.ranks[rank]
	if name != rc.region {
		rc.region, rc.cur = name, nil
	}
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
	for r := range p.ranks {
		rc := &p.ranks[r]
		pr.Comm[r] = rc.comm
		pr.Comp[r] = rc.compute
		pr.IO[r] = rc.io
		pr.Wait[r] = rc.wait
		pr.Queued[r] = rc.queued
		for id, name := range rc.names {
			cs := rc.calls[id]
			agg := pr.Calls[name]
			agg.Count += cs.Count
			agg.Time += cs.Time
			agg.Bytes += cs.Bytes
			pr.Calls[name] = agg
		}
		pr.regions[r] = rc.regionMap()
		for b, c := range rc.sizeHist {
			if c > 0 {
				pr.sizeHist[b] += c
			}
		}
	}
	return pr
}

// regionMap rebuilds the rank's name-keyed region statistics. The default
// region is always present, as it is on entry to every rank.
func (rc *rankCollector) regionMap() map[string]*RegionStats {
	m := make(map[string]*RegionStats, len(rc.regions)+1)
	m[DefaultRegion] = &RegionStats{Calls: map[string]*CallStats{}}
	for _, ra := range rc.regions {
		rs := ra.stats
		rs.Calls = make(map[string]*CallStats, len(ra.calls))
		for id, cs := range ra.calls {
			if cs.Count > 0 {
				rs.Calls[rc.names[id]] = &cs
			}
		}
		m[ra.name] = &rs
	}
	return m
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
