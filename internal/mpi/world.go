// Package mpi implements a message-passing runtime in the style of MPI,
// executing on a modelled cluster platform under virtual time.
//
// Ranks are goroutines; point-to-point messages really move data between
// them (eager protocol with source/tag matching), and collectives are
// implemented algorithmically over point-to-point, so communication volume
// and round counts match a real MPI library. Time, however, is virtual:
// each rank carries a clock that advances by modelled computation cost
// (package cpumodel), message injection/flight cost (package netmodel) and
// I/O cost (package iomodel). Because every inter-rank dependency flows
// through a real message that carries its virtual arrival time, the
// resulting timestamps form a causally consistent conservative
// discrete-event simulation.
//
// Misuse (rank out of range, type-mismatched receive, truncation) panics
// with a descriptive message, mirroring MPI's error-aborts; World.Run
// recovers per-rank panics into errors.
package mpi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Tracer observes per-rank activity. Implementations must tolerate
// concurrent calls for different ranks; calls for one rank are sequential.
type Tracer interface {
	// Call records one completed communication operation.
	Call(rank int, rec CallRecord)
	// Advance records non-communication virtual time (kind is "compute" or
	// "io") spent by rank starting at start.
	Advance(rank int, kind string, start, dur float64)
	// Region notes that rank entered the named profiling region at time at.
	Region(rank int, name string, at float64)
}

// CallRecord describes one completed communication operation.
type CallRecord struct {
	Name   string  // operation name, e.g. "Send", "Allreduce"
	Bytes  int     // payload bytes (per-rank contribution for collectives)
	Start  float64 // virtual time at call entry
	Dur    float64 // virtual duration of the call
	Region string  // profiling region active during the call

	// Wait is the virtual time this rank sat blocked inside the call
	// waiting for messages to arrive (summed over the receives of a
	// collective); Queued is how long arrived messages sat unmatched
	// before the receive was posted. Both derive from arrival times the
	// runtime already computes, so they change no clock math. Peer is
	// the world rank responsible for the largest single wait, or -1 if
	// the call never blocked.
	Wait   float64
	Queued float64
	Peer   int
}

// World is a communicator universe: np ranks placed on a platform.
type World struct {
	Platform  *platform.Platform
	Placement *cluster.Placement

	np      int
	inboxes []*inbox
	tracer  Tracer
	seed    uint64

	met worldMetrics // observability handles; zero value = metering off

	faults     *fault.Plan // nil = no fault injection
	incStart   float64     // virtual time at which this incarnation's clocks start
	resumeStep int         // application step to resume from (0 = fresh start)
	resil      *resilState // checkpoint store shared across incarnations
	sb         scoreboard  // rank liveness: quiescence, failure and deadlock
}

// scoreboard tracks how many ranks can still make progress. The world is
// quiescent once every live rank is blocked in a receive: no message can
// ever arrive, so no rank will ever move again. That is the one point
// at which a run that cannot finish is stopped — as the fault abort
// after a rank failure, or as a deadlock diagnosis otherwise.
// Stopping only there makes the set of operations each rank completed
// the unique maximal one, which is what keeps checkpoint state
// deterministic despite the real-time races between goroutines.
type scoreboard struct {
	running atomic.Int64 // live ranks not blocked in a receive
	live    atomic.Int64 // ranks whose goroutine has not stopped

	// mu guards the failure record and serialises quiesce against Run's
	// result path, so no abort is still in flight once Run returns.
	mu       sync.Mutex
	failed   bool
	failRank int
	failNode int
	failAt   float64
}

// enterBlocked marks a rank as blocked in a receive; called with the
// rank's inbox lock held.
func (w *World) enterBlocked() {
	if w.sb.running.Add(-1) == 0 {
		// quiesce takes inbox locks, including the one held by this
		// caller; run it from a clean goroutine.
		//lint:allow reprolint/allochot quiescence only: once per deadlocked or failed world
		go w.quiesce()
	}
}

// exitBlocked marks a rank runnable again after its receive matched (or
// before it unwinds from an abort).
func (w *World) exitBlocked() { w.sb.running.Add(1) }

// rankStopped records that a rank's goroutine finished (normally, by
// dying, or by unwinding from an abort).
func (w *World) rankStopped() {
	w.sb.live.Add(-1)
	if w.sb.running.Add(-1) == 0 {
		w.quiesce()
	}
}

// quiesce aborts a quiescent world, reached through the scoreboard:
// every blocked rank unwinds, and Run reports the rank failure that
// caused the quiescence or, without one, diagnoses the deadlock. A world that is
// not (or no longer) quiescent, or whose ranks have all stopped, is left
// alone, so repeated or late calls are harmless.
func (w *World) quiesce() {
	w.sb.mu.Lock()
	defer w.sb.mu.Unlock()
	if w.sb.running.Load() == 0 && w.sb.live.Load() > 0 {
		w.abortAll()
	}
}

// errAborted is assigned to the blocked ranks a quiescent world unwinds;
// World.Run reports the rank failure or the deadlock instead.
var errAborted = errors.New("aborted in a quiescent world")

// deadlockError names the ranks that a fault-free quiescence aborted
// and the (src, tag) each was blocked on, in rank order (the first five
// when more were blocked); nil when none was aborted. Called after every
// rank has stopped.
func (w *World) deadlockError(errs []error) error {
	var blocked []int
	for r, err := range errs {
		if err == errAborted {
			blocked = append(blocked, r)
		}
	}
	if len(blocked) == 0 {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "mpi: deadlock: %d rank(s) blocked with no runnable peer:", len(blocked))
	for i, r := range blocked {
		if i == 4 && len(blocked) > 5 {
			fmt.Fprintf(&sb, " ... (%d more)", len(blocked)-i)
			break
		}
		k := w.inboxes[r].wkey
		fmt.Fprintf(&sb, " rank %d waiting on (src=%d, tag=%d)", r, k.src, k.tag)
	}
	return errors.New(sb.String())
}

// markFailed records a rank death. When several ranks die in one
// incarnation (node-mates of the preempted node, or a second node whose
// preemption fires before the world quiesces), the earliest *virtual*
// death — tie-broken by rank — is the canonical failure, regardless of
// the real-time order the dying goroutines happened to get scheduled
// in. The restart point derives from this identity, so it must be
// deterministic.
func (w *World) markFailed(rank, node int, at float64) {
	w.met.ranksLost.Inc()
	w.sb.mu.Lock()
	if !w.sb.failed || at < w.sb.failAt || (at == w.sb.failAt && rank < w.sb.failRank) {
		w.sb.failed = true
		w.sb.failRank, w.sb.failNode, w.sb.failAt = rank, node, at
	}
	w.sb.mu.Unlock()
}

// abortAll wakes every blocked receiver with the abort flag set. Safe to
// call multiple times.
func (w *World) abortAll() {
	for _, b := range w.inboxes {
		b.mu.Lock()
		b.aborted = true
		b.mu.Unlock()
		b.cond.Broadcast()
	}
}

// Option configures a World.
type Option func(*World)

// WithTracer attaches a tracer (e.g. the IPM profiler).
func WithTracer(t Tracer) Option { return func(w *World) { w.tracer = t } }

// WithSeed offsets all random streams, giving independent repetitions of
// the same experiment (the paper runs each benchmark 5 times).
func WithSeed(s uint64) Option { return func(w *World) { w.seed = s } }

// WithFaults injects a deterministic fault plan: per-rank compute
// throttles, inter-node link degradation windows and node preemptions.
// A preempted node's ranks die at their scheduled virtual time and Run
// returns a *RankFailedError; RunResilient additionally restarts the
// world from its last checkpoint. A nil or empty plan changes nothing.
func WithFaults(p *fault.Plan) Option {
	return func(w *World) {
		if !p.Empty() {
			w.faults = p
		}
	}
}

// NewWorld creates a world of pl.NP ranks on p.
func NewWorld(p *platform.Platform, pl *cluster.Placement, opts ...Option) (*World, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if pl == nil || pl.NP <= 0 {
		return nil, fmt.Errorf("mpi: placement with at least one rank required")
	}
	w := &World{
		Platform:  p,
		Placement: pl,
		np:        pl.NP,
	}
	for _, o := range opts {
		o(w)
	}
	w.inboxes = leaseInboxes(w.np)
	return w, nil
}

// Release returns the world's pooled resources (inboxes and their bucket
// structures) for reuse by future worlds. The world is unusable
// afterwards. Only clean inboxes are recycled — a world holding
// unmatched messages or unwound by an abort sheds its inboxes to the GC
// instead. RunOn, core.Execute and the resilient loop release completed
// worlds automatically; long-lived worlds that are Run repeatedly simply
// never call it.
func (w *World) Release() {
	releaseInboxes(w.inboxes)
	w.inboxes = nil
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.np }

// Result summarises one completed run.
type Result struct {
	// Time is the job's virtual wall time: the maximum over ranks of the
	// final clock (all ranks start at 0).
	Time float64
	// RankTimes holds each rank's final virtual clock.
	RankTimes sim.Series
	// CommTimes, ComputeTimes and IOTimes hold each rank's accumulated
	// virtual time by activity.
	CommTimes    sim.Series
	ComputeTimes sim.Series
	IOTimes      sim.Series
}

// Run executes fn once per rank and returns the aggregated result. Any
// rank returning an error or panicking fails the whole run.
func (w *World) Run(fn func(c *Comm) error) (*Result, error) {
	// Per-rank state is carved out of two contiguous slabs: one Run of an
	// np-rank world costs two allocations for all its communicator
	// handles instead of 2*np, which is what the world-churn benchmark
	// measures.
	states := make([]rankState, w.np)
	comms := make([]Comm, w.np)
	group := make([]int, w.np)
	for r := 0; r < w.np; r++ {
		group[r] = r
	}
	for r := 0; r < w.np; r++ {
		initComm(&comms[r], &states[r], w, r, group)
	}
	w.sb.running.Store(int64(w.np))
	w.sb.live.Store(int64(w.np))

	errs := make([]error, w.np)
	var wg sync.WaitGroup
	wg.Add(w.np)
	for r := 0; r < w.np; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				p := recover()
				w.rankStopped()
				switch p.(type) {
				case nil:
				case killPanic:
					errs[rank] = &RankFailedError{
						Rank: rank, Node: w.Placement.NodeOf[rank], At: comms[rank].st.clock,
					}
				case abortPanic:
					errs[rank] = errAborted
				default:
					errs[rank] = fmt.Errorf("mpi: rank %d panicked: %v", rank, p)
				}
			}()
			errs[rank] = fn(&comms[rank])
		}(r)
	}
	wg.Wait()
	w.flushMetrics(states)

	w.sb.mu.Lock()
	failed, failRank, failNode, failAt := w.sb.failed, w.sb.failRank, w.sb.failNode, w.sb.failAt
	w.sb.mu.Unlock()
	if failed {
		return nil, &RankFailedError{Rank: failRank, Node: failNode, At: failAt}
	}
	if err := w.deadlockError(errs); err != nil {
		return nil, err
	}
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("mpi: rank %d: %w", r, err)
		}
	}

	res := &Result{
		RankTimes:    make(sim.Series, w.np),
		CommTimes:    make(sim.Series, w.np),
		ComputeTimes: make(sim.Series, w.np),
		IOTimes:      make(sim.Series, w.np),
	}
	for r, c := range comms {
		res.RankTimes[r] = c.st.clock
		res.CommTimes[r] = c.st.commTime
		res.ComputeTimes[r] = c.st.computeTime
		res.IOTimes[r] = c.st.ioTime
	}
	res.Time = res.RankTimes.Max()
	return res, nil
}

// RunOn is a convenience wrapper: place np ranks on p with the Block
// policy and run fn.
func RunOn(p *platform.Platform, np int, fn func(c *Comm) error, opts ...Option) (*Result, error) {
	pl, err := cluster.Place(p, cluster.Spec{NP: np})
	if err != nil {
		return nil, err
	}
	w, err := NewWorld(p, pl, opts...)
	if err != nil {
		return nil, err
	}
	res, err := w.Run(fn)
	if err == nil {
		w.Release()
	}
	return res, err
}

// tee fans tracer callbacks out to multiple tracers.
type tee []Tracer

// Tee combines tracers (e.g. the IPM profiler plus a timeline recorder)
// into one. Nil entries are skipped.
func Tee(tracers ...Tracer) Tracer {
	var ts tee
	for _, t := range tracers {
		if t != nil {
			ts = append(ts, t)
		}
	}
	return ts
}

// Call implements Tracer.
func (ts tee) Call(rank int, rec CallRecord) {
	for _, t := range ts {
		t.Call(rank, rec)
	}
}

// Advance implements Tracer.
func (ts tee) Advance(rank int, kind string, start, dur float64) {
	for _, t := range ts {
		t.Advance(rank, kind, start, dur)
	}
}

// Region implements Tracer.
func (ts tee) Region(rank int, name string, at float64) {
	for _, t := range ts {
		t.Region(rank, name, at)
	}
}
