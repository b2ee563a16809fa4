package mpi

import "repro/internal/obs"

// worldMetrics holds the observability handles of one world. The zero
// value (no registry attached) carries nil handles, and every obs method
// is a no-op on nil, so instrumented code never branches on whether
// metrics are enabled.
//
// Message traffic is not metered through these handles as it happens:
// each rank tallies its messages in plain fields (msgTally) and each
// inbox its delivery depths, and World.Run flushes both into the
// registry once, after every rank has stopped. The per-message path thus
// adds to no registry counter that every rank shares; only a message-size
// run reaches the registry early, when its size bucket changes.
//
// Deterministic metrics (counts, bytes, virtual-time nanoseconds rounded
// per event) register as stable; anything driven by real scheduling
// (sync.Pool reuse, inbox depth at delivery time) registers volatile and
// stays out of stable snapshots.
type worldMetrics struct {
	sends, recvs         *obs.Counter
	sendBytes, recvBytes *obs.Counter
	eager, rendezvous    *obs.Counter
	waitNS, queuedNS     *obs.Counter
	msgBytes             *obs.Histogram

	poolLease, poolMiss *obs.Counter   // volatile: sync.Pool reuse is scheduling-dependent
	inboxDepth          *obs.Histogram // volatile: depth at delivery depends on interleaving

	ranksLost         *obs.Counter
	restarts          *obs.Counter
	checkpoints       *obs.Counter
	lostWorkNS        *obs.Counter
	restartOverheadNS *obs.Counter

	ckptBytes     *obs.Counter
	commitStallNS *obs.Counter
}

func newWorldMetrics(r *obs.Registry) worldMetrics {
	return worldMetrics{
		sends:     r.Counter("mpi_sends_total", "point-to-point messages injected"),
		recvs:     r.Counter("mpi_recvs_total", "point-to-point messages received"),
		sendBytes: r.Counter("mpi_send_bytes_total", "modelled payload bytes sent"),
		recvBytes: r.Counter("mpi_recv_bytes_total", "modelled payload bytes received"),
		eager:     r.Counter("mpi_eager_total", "messages below the rendezvous threshold"),
		rendezvous: r.Counter("mpi_rendezvous_total",
			"messages at or above the rendezvous threshold"),
		waitNS: r.Counter("mpi_recv_wait_ns_total",
			"virtual ns receivers sat blocked before arrival (late sender)"),
		queuedNS: r.Counter("mpi_recv_queued_ns_total",
			"virtual ns messages sat unmatched before the receive (late receiver)"),
		msgBytes: r.Histogram("mpi_message_bytes", "payload size distribution"),
		poolLease: r.VolatileCounter("mpi_pool_leases_total",
			"message envelopes leased from the pool"),
		poolMiss: r.VolatileCounter("mpi_pool_misses_total",
			"leases that allocated a fresh envelope"),
		inboxDepth: r.VolatileHistogram("mpi_inbox_depth",
			"unmatched messages queued at delivery time"),
		ranksLost: r.Counter("fault_ranks_lost_total", "ranks killed by node preemptions"),
		restarts:  r.Counter("fault_restarts_total", "resilient-run restarts"),
		checkpoints: r.Counter("fault_checkpoints_total",
			"checkpoints committed by completing resilient runs"),
		lostWorkNS: r.Counter("fault_lost_work_ns_total",
			"virtual ns of per-rank progress discarded by restarts"),
		restartOverheadNS: r.Counter("fault_restart_overhead_ns_total",
			"virtual ns spent in restart delays"),
		ckptBytes: r.Counter("io_checkpoint_bytes_total", "checkpoint bytes written"),
		commitStallNS: r.Counter("io_commit_stall_ns_total",
			"virtual ns ranks stalled aligning to checkpoint commits"),
	}
}

// WithMetrics attaches an observability registry: the world registers
// its instruments there and meters message traffic, wait states, pool
// behaviour and fault/checkpoint activity as it runs. A nil registry
// changes nothing.
func WithMetrics(r *obs.Registry) Option {
	return func(w *World) {
		if r != nil {
			w.met = newWorldMetrics(r)
		}
	}
}

// msgTally is one rank's message metrics, kept in plain fields of its
// rankState on the per-message path. Virtual-time waits are rounded to
// nanoseconds per event (obs.Nanos), so the flushed sums are the ones
// per-event AddSeconds calls would have produced.
type msgTally struct {
	sends, sendBytes    int64
	eager, rendezvous   int64
	poolLease, poolMiss int64
	recvs, recvBytes    int64
	waitNS, queuedNS    int64

	// Message sizes as a run: sizeN messages totalling sizeSum bytes, all
	// in histogram bucket sizeBucket. A message in another bucket flushes
	// the run, so the registry sees one bulk add per run, not per message.
	sizeBucket     int
	sizeN, sizeSum int64
}

// observeSize adds one message of the given size to the run, flushing
// the run into h first when the size falls in another bucket.
func (t *msgTally) observeSize(h *obs.Histogram, bytes int64) {
	if i := obs.Bucket(bytes); i != t.sizeBucket {
		t.flushSizes(h)
		t.sizeBucket = i
	}
	t.sizeN++
	t.sizeSum += bytes
}

// flushSizes adds the pending size run to h.
func (t *msgTally) flushSizes(h *obs.Histogram) {
	if t.sizeN > 0 {
		h.AddBucket(t.sizeBucket, t.sizeN, t.sizeSum)
		t.sizeN, t.sizeSum = 0, 0
	}
}

// flush adds the tally into the world's registry and clears it.
func (t *msgTally) flush(met *worldMetrics) {
	t.flushSizes(met.msgBytes)
	met.sends.Add(t.sends)
	met.sendBytes.Add(t.sendBytes)
	met.eager.Add(t.eager)
	met.rendezvous.Add(t.rendezvous)
	met.poolLease.Add(t.poolLease)
	met.poolMiss.Add(t.poolMiss)
	met.recvs.Add(t.recvs)
	met.recvBytes.Add(t.recvBytes)
	met.waitNS.Add(t.waitNS)
	met.queuedNS.Add(t.queuedNS)
	*t = msgTally{}
}

// flushMetrics adds every rank's and every inbox's tallies into the
// registry. World.Run calls it exactly once, after all rank goroutines
// have stopped and before it returns on any path.
func (w *World) flushMetrics(states []rankState) {
	for i := range states {
		states[i].tally.flush(&w.met)
	}
	for _, b := range w.inboxes {
		b.flushDepth(w.met.inboxDepth)
	}
}
