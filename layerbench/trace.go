package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// This file is the traced run's instrumentation. Spans sit only around
// the benchmark's own calls into each layer's public functions; counts
// come from the obs.Registry the program already fills. Nothing here
// changes what the program computes.

// span is one timed call. Aggregate spans carry a summed (or, for the
// sampled IPM accounting, estimated) duration instead of an interval.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for an operation's root span
	Exec   int     `json:"exec"`   // operation execution the span belongs to
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the traced phase began
	Dur    float64 `json:"dur_s"`
	Self   float64 `json:"self_s"`
	Agg    bool    `json:"aggregate,omitempty"`
}

// spanLog keeps every span of the traced phase in memory until the end.
type spanLog struct {
	epoch time.Time
	spans []span
}

// opTrace is one traced operation execution. A nil *opTrace runs each
// step untimed, which is how the untraced path shares code with it.
type opTrace struct {
	log  *spanLog
	exec int
	root int
	vals map[string]float64 // raw per-execution quantities, keyed by metric
	hist map[string]int64   // inbox-depth histogram buckets
}

func (l *spanLog) begin(exec int, name string) *opTrace {
	t := &opTrace{log: l, exec: exec, root: len(l.spans), vals: map[string]float64{}, hist: map[string]int64{}}
	l.spans = append(l.spans, span{
		ID: t.root, Parent: -1, Exec: exec, Name: name, Start: time.Since(l.epoch).Seconds(),
	})
	return t
}

// open starts a child span of the execution's root.
func (t *opTrace) open(name string) int {
	if t == nil {
		return -1
	}
	id := len(t.log.spans)
	t.log.spans = append(t.log.spans, span{
		ID: id, Parent: t.root, Exec: t.exec, Name: name,
		Start: time.Since(t.log.epoch).Seconds(),
	})
	return id
}

func (t *opTrace) close(id int) {
	if t == nil {
		return
	}
	s := &t.log.spans[id]
	s.Dur = time.Since(t.log.epoch).Seconds() - s.Start
}

// aggregate records a summed duration as a child of span parent.
func (t *opTrace) aggregate(parent int, name string, dur float64) {
	if t == nil {
		return
	}
	t.log.spans = append(t.log.spans, span{
		ID: len(t.log.spans), Parent: parent, Exec: t.exec, Name: name,
		Start: t.log.spans[parent].Start, Dur: dur, Agg: true,
	})
}

// span times fn as a child of the execution's root.
func (t *opTrace) span(name string, fn func() error) error {
	id := t.open(name)
	err := fn()
	t.close(id)
	return err
}

// spanMetric maps span names to the per-layer metric their self time
// feeds. Facility.RunStream is mapped per regime in finish.
var spanMetric = map[string]string{
	"core.AutoNodes":    "core.auto_nodes_s",
	"cluster.Place":     "cluster.place_s",
	"ipm.New":           "ipm.new_s",
	"mpi.NewWorld":      "mpi.world_new_s",
	"World.Run":         "mpi.run_s",
	"ipm.Profiler":      "ipm.call_s",
	"World.Release":     "mpi.release_s",
	"Profiler.Snapshot": "ipm.snapshot_s",
	"facility.New":      "facility.new_s",
	"stream.Observe":    "facility.stats_s",
}

// finish closes the root span, computes self times (duration minus the
// children's) and adds them to the execution's quantities.
func (t *opTrace) finish(regime string) {
	if t == nil {
		return
	}
	t.close(t.root)
	spans := t.log.spans[t.root:]
	for i := range spans {
		spans[i].Self = spans[i].Dur
	}
	for _, s := range spans {
		if s.Parent >= t.root {
			spans[s.Parent-t.root].Self -= s.Dur
		}
	}
	for _, s := range spans {
		name := spanMetric[s.Name]
		if s.Name == "Facility.RunStream" {
			name = "facility.run_s." + regime
		}
		if name != "" {
			t.vals[name] += s.Self
		}
	}
}

// addMPI records the message-plane counters of one simulation,
// volatile series included.
func (t *opTrace) addMPI(s stats, snap map[string]obs.Metric) {
	t.vals["mpi.sends"] += float64(s.Msgs)
	t.vals["mpi.send_bytes"] += float64(s.Bytes)
	t.vals["mpi.eager"] += float64(snap["mpi_eager_total"].Value)
	t.vals["mpi.rendezvous"] += float64(snap["mpi_rendezvous_total"].Value)
	t.vals["mpi.pool_leases"] += float64(snap["mpi_pool_leases_total"].Value)
	t.vals["mpi.pool_misses"] += float64(snap["mpi_pool_misses_total"].Value)
	t.vals["mpi.virtual_s"] += s.VirtualS
	t.vals["mpi.recv_wait_vs"] += float64(s.WaitNS) / 1e9
	t.vals["mpi.recv_queued_vs"] += float64(s.QueuedNS) / 1e9
	for ub, n := range snap["mpi_inbox_depth"].Buckets {
		t.hist[ub] += n
	}
}

// addAccounting records the sampled IPM accounting of one simulation.
func (t *opTrace) addAccounting(tt *timedTracer) {
	if t == nil {
		return
	}
	calls, sampled, ns := tt.totals()
	t.vals["ipm.calls"] += float64(calls)
	t.vals["ipm.sampled_calls"] += float64(sampled)
	t.vals["ipm.sampled_ns"] += float64(ns)
}

// addFacility records one facility regime's scheduler counters.
func (t *opTrace) addFacility(regime string, s stats) {
	if t == nil {
		return
	}
	t.vals["facility.events."+regime] += float64(s.Events)
	t.vals["facility.jobs."+regime] += float64(s.Jobs)
	t.vals["facility.started"] += float64(s.Started)
	t.vals["facility.backfilled"] += float64(s.Backfilled)
	t.vals["facility.killed"] += float64(s.Killed)
	t.vals["facility.interruptions"] += float64(s.Interruptions)
}

// writeSpans writes the phase's spans as JSON lines.
func (l *spanLog) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedTracer wraps the IPM profiler and times every sampleEvery-th
// callback per rank. Each rank only touches its own padded accumulator,
// so the wrapper adds no shared state between rank goroutines.
type timedTracer struct {
	inner mpi.Tracer
	ranks []rankAcc
}

const sampleEvery = 16

type rankAcc struct {
	calls, sampled uint64
	ns             int64
	_              [40]byte // keep neighbouring ranks off one cache line
}

func newTimedTracer(inner mpi.Tracer, np int) *timedTracer {
	return &timedTracer{inner: inner, ranks: make([]rankAcc, np)}
}

// sample reports whether this callback is timed.
func (a *rankAcc) sample() bool {
	a.calls++
	return a.calls%sampleEvery == 0
}

func (a *rankAcc) add(t0 time.Time) {
	a.ns += int64(time.Since(t0))
	a.sampled++
}

func (t *timedTracer) Call(rank int, rec mpi.CallRecord) {
	a := &t.ranks[rank]
	if !a.sample() {
		t.inner.Call(rank, rec)
		return
	}
	t0 := time.Now()
	t.inner.Call(rank, rec)
	a.add(t0)
}

func (t *timedTracer) Advance(rank int, kind string, start, dur float64) {
	a := &t.ranks[rank]
	if !a.sample() {
		t.inner.Advance(rank, kind, start, dur)
		return
	}
	t0 := time.Now()
	t.inner.Advance(rank, kind, start, dur)
	a.add(t0)
}

func (t *timedTracer) Region(rank int, name string, at float64) {
	a := &t.ranks[rank]
	if !a.sample() {
		t.inner.Region(rank, name, at)
		return
	}
	t0 := time.Now()
	t.inner.Region(rank, name, at)
	a.add(t0)
}

func (t *timedTracer) totals() (calls, sampled uint64, ns int64) {
	for i := range t.ranks {
		calls += t.ranks[i].calls
		sampled += t.ranks[i].sampled
		ns += t.ranks[i].ns
	}
	return calls, sampled, ns
}

// estimate scales the sampled time to every callback, in seconds.
func (t *timedTracer) estimate() float64 {
	calls, sampled, ns := t.totals()
	if sampled == 0 {
		return 0
	}
	return float64(ns) / float64(sampled) * float64(calls) / 1e9
}

// runtimeStats is a runtime/metrics reading.
type runtimeStats struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU                              float64
	schedLat                           *metrics.Float64Histogram
}

func readRuntime() runtimeStats {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(samples)
	var r runtimeStats
	if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
		r.allocBytes = v.Uint64()
	}
	if v := samples[1].Value; v.Kind() == metrics.KindUint64 {
		r.allocObjects = v.Uint64()
	}
	if v := samples[2].Value; v.Kind() == metrics.KindUint64 {
		r.gcCycles = v.Uint64()
	}
	if v := samples[3].Value; v.Kind() == metrics.KindFloat64 {
		r.gcCPU = v.Float64()
	}
	if v := samples[4].Value; v.Kind() == metrics.KindFloat64Histogram {
		r.schedLat = v.Float64Histogram()
	}
	return r
}

// schedWaitQuantile returns the q-quantile in microseconds of the
// scheduler latencies observed between two readings (the upper edge of
// the bucket holding it; the lower edge for the open last bucket).
func schedWaitQuantile(before, after runtimeStats, q float64) float64 {
	if before.schedLat == nil || after.schedLat == nil {
		return 0
	}
	counts := after.schedLat.Counts
	delta := make([]uint64, len(counts))
	var total uint64
	for i := range counts {
		delta[i] = counts[i] - before.schedLat.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := q * float64(total)
	var cum uint64
	b := after.schedLat.Buckets
	for i, n := range delta {
		cum += n
		if float64(cum) >= want {
			edge := b[i+1]
			if edge > 1e300 {
				edge = b[i]
			}
			return edge * 1e6
		}
	}
	return b[len(b)-1] * 1e6
}

// histQuantile returns the q-quantile of an obs histogram's merged
// buckets (keyed by inclusive upper bound): the bound of the bucket
// holding it.
func histQuantile(buckets map[string]int64, q float64) float64 {
	type bucket struct{ ub, n int64 }
	var bs []bucket
	var total int64
	for k, n := range buckets {
		ub, err := strconv.ParseInt(k, 10, 64)
		if err != nil {
			continue
		}
		bs = append(bs, bucket{ub, n})
		total += n
	}
	if total == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].ub < bs[j].ub })
	want := q * float64(total)
	var cum int64
	for _, b := range bs {
		cum += b.n
		if float64(cum) >= want {
			return float64(b.ub)
		}
	}
	return float64(bs[len(bs)-1].ub)
}
