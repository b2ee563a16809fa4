package mpi

import "sync"

// message is an in-flight point-to-point message. Envelopes (and the
// payload capacity they carry) are recycled through msgPool; see pool.go
// for the ownership rules.
type message struct {
	ctx  uint64 // communicator context id
	src  int    // world rank of sender
	tag  int
	kind payloadKind // which payload field is live (payloadNone: phantom)
	f64  []float64
	ints []int
	cplx []complex128

	bytes  int     // modelled payload size
	arrive float64 // virtual arrival time at the receiver
	fresh  bool    // set by the pool's allocator, cleared on lease: marks a pool miss
}

// bucketKey addresses one exact-match FIFO queue.
type bucketKey struct {
	ctx      uint64
	src, tag int
}

// bucket is one (ctx,src,tag) FIFO. head indexes the next message to
// match; the tail of msgs holds the queued ones. The backing array is
// retained across drains, so steady-state traffic enqueues without
// allocating.
type bucket struct {
	head int
	msgs []*message
}

// empty reports whether no message is queued.
func (q *bucket) empty() bool { return q.head == len(q.msgs) }

// push enqueues m, compacting the consumed prefix once it dominates the
// slice so a never-idle queue cannot grow without bound.
func (q *bucket) push(m *message) {
	if q.head > 32 && q.head*2 >= len(q.msgs) {
		n := copy(q.msgs, q.msgs[q.head:])
		for i := n; i < len(q.msgs); i++ {
			q.msgs[i] = nil
		}
		q.msgs = q.msgs[:n]
		q.head = 0
	}
	//lint:allow reprolint/allochot amortised growth; the consumed-prefix compaction above bounds the slice
	q.msgs = append(q.msgs, m)
}

// pop removes and returns the oldest queued message.
func (q *bucket) pop() *message {
	m := q.msgs[q.head]
	q.msgs[q.head] = nil // matched messages must not be retained
	q.head++
	if q.empty() {
		q.msgs = q.msgs[:0]
		q.head = 0
	}
	return m
}

// inbox is one rank's unexpected-message queue, bucketed by exact
// (ctx,src,tag) so every receive is a map lookup plus a FIFO pop. Each
// inbox has exactly one consumer (its rank's goroutine), so at most one
// receive waits on it at any time and a put can wake it with Signal.
type inbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	rank    int // world rank of the consumer (the PDES engine's proc id)
	buckets map[bucketKey]*bucket
	slab    []bucket // arena for bucket structs, amortises short-lived worlds
	npend   int      // queued, unmatched messages across all buckets
	aborted bool     // set by World.abortAll once the world is quiescent

	// waiting is the bucket the blocked receive waits on (nil: none); a
	// waiting consumer is counted as blocked on the world's quiescence
	// scoreboard. A put into that bucket clears it, crediting the waiter
	// back to "running" atomically with delivery, so the world can never
	// look quiescent while a satisfiable receive is pending. wkey is the
	// waiter's (ctx, src, tag), read only by the deadlock diagnosis.
	waiting *bucket
	wkey    bucketKey
}

func newInbox() *inbox {
	b := &inbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// inboxPool recycles inboxes — and the bucket maps, bucket arenas and
// queue arrays hanging off them — across world lifetimes. Building and
// tearing down worlds is the artefact scheduler's steady state (the
// world-churn benchmark), and the inbox graph was most of its per-world
// allocation.
var inboxPool = sync.Pool{New: func() any { return newInbox() }}

// leaseInboxes returns np pooled inboxes wired to their rank indices.
func leaseInboxes(np int) []*inbox {
	boxes := make([]*inbox, np)
	for i := range boxes {
		b := inboxPool.Get().(*inbox)
		b.rank = i
		boxes[i] = b
	}
	return boxes
}

// releaseInboxes recycles clean inboxes; one still holding unmatched
// messages or unwound by an abort is shed to the GC instead, so a pooled
// inbox is always empty and quiescent when leased.
func releaseInboxes(boxes []*inbox) {
	for _, b := range boxes {
		if b != nil && b.reset() {
			inboxPool.Put(b)
		}
	}
}

// reset prepares a clean inbox for reuse, reporting false when it is not
// reusable. The bucket map and arena are retained: their queues are
// empty (npend == 0), and keeping them is the point of the pool.
func (b *inbox) reset() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.npend == 0 && !b.aborted && b.waiting == nil
}

// queue returns the FIFO for k, creating it on first use. Caller holds
// b.mu.
func (b *inbox) queue(k bucketKey) *bucket {
	if q := b.buckets[k]; q != nil {
		return q
	}
	if b.buckets == nil {
		//lint:allow reprolint/allochot once per inbox lease; the map is retained by the inbox pool
		b.buckets = make(map[bucketKey]*bucket, 8)
	}
	if len(b.slab) == 0 {
		//lint:allow reprolint/allochot slab refill amortises bucket allocation 16x (churn budget covers it)
		b.slab = make([]bucket, 16)
	}
	q := &b.slab[0]
	b.slab = b.slab[1:]
	b.buckets[k] = q
	return q
}

// put enqueues a message and wakes the consumer when it waits on the
// message's bucket. Messages from one sender are enqueued in program
// order, giving per-(src,tag) FIFO matching.
func (b *inbox) put(w *World, m *message) {
	b.mu.Lock()
	q := b.queue(bucketKey{ctx: m.ctx, src: m.src, tag: m.tag})
	q.push(m)
	b.npend++
	w.met.inboxDepth.Observe(int64(b.npend))
	if b.waiting == q {
		b.waiting = nil
		w.exitBlocked()
		if eng := w.engine(); eng != nil {
			// The consumer is (or is about to be) parked in the engine;
			// schedule its resumption at the message's arrival time. Lock
			// order: inbox.mu, then the engine's mutex.
			eng.Wake(b.rank, m.arrive)
		} else {
			b.cond.Signal()
		}
	}
	b.mu.Unlock()
}

// match blocks until a message matching (ctx, src, tag) is available,
// removes it from its bucket and returns it. now is the receiver's
// virtual clock at the blocking point; the PDES engine parks the rank at
// that time (the goroutine runtime ignores it).
//
// A receive that can still be satisfied always proceeds; match panics
// with abortPanic only once the world is quiescent (every live rank
// blocked on a receive no delivered or future message can satisfy, so
// none will ever complete) and World.quiesce has aborted it. This
// "maximal progress" rule keeps post-failure state — in particular which
// checkpoints committed — deterministic: a rank is never aborted while
// any peer that could still send to it is runnable, so the set of
// completed operations is the unique maximal one (the message-passing
// program is a Kahn process network).
func (b *inbox) match(w *World, ctx uint64, src, tag int, now float64) *message {
	eng := w.engine()
	k := bucketKey{ctx: ctx, src: src, tag: tag}
	b.mu.Lock()
	q := b.queue(k)
	for {
		if !q.empty() {
			// Any put into q has already cleared waiting.
			b.npend--
			m := q.pop()
			b.mu.Unlock()
			return m
		}
		if b.aborted {
			if b.waiting != nil {
				b.waiting = nil
				w.exitBlocked()
			}
			b.mu.Unlock()
			panic(abortPanic{})
		}
		if b.waiting == nil {
			b.waiting, b.wkey = q, k
			w.enterBlocked()
		}
		if eng != nil {
			// Park in the engine with the inbox unlocked: the waking
			// put must be able to take b.mu. A wake that lands between
			// the unlock and the Park is absorbed by the engine's
			// pending-wake flag, so the rank never sleeps through it.
			b.mu.Unlock()
			eng.Park(b.rank, now)
			b.mu.Lock()
			continue
		}
		b.cond.Wait()
	}
}

// pendingDebug returns the maintained counter alongside a brute-force
// recount over every bucket, both read under one lock acquisition (test
// hook for the counter invariant).
func (b *inbox) pendingDebug() (counter, brute int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, q := range b.buckets {
		brute += len(q.msgs) - q.head
	}
	return b.npend, brute
}
