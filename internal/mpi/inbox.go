package mpi

import (
	"sync"

	"repro/internal/obs"
)

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

// hash mixes the key's three integers into a table position seed (the
// murmur3 64-bit finaliser over a multiplicative combine).
func (k bucketKey) hash() uint64 {
	h := k.ctx ^ uint64(k.src)*0x9e3779b97f4a7c15 ^ uint64(k.tag)*0xc2b2ae3d27d4eb4f
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// slot is one entry of an inbox's bucket table; q == nil marks it free.
type slot struct {
	k bucketKey
	q *bucket
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
// (ctx,src,tag) so every receive is a table probe plus a FIFO pop. Each
// inbox has exactly one consumer (its rank's goroutine), so at most one
// receive waits on it at any time and a put can wake it with Signal.
//
// The bucket table is open-addressed with linear probing over a
// power-of-two slot array, kept at most 7/8 full: the load of Go's own
// maps, so a table costs no more memory than the map it replaced (at
// 16384 ranks every inbox holds one). Buckets are never deleted (they
// live as long as the inbox), so probing needs no tombstones, and the
// table grows only with the distinct keys this inbox has seen, not with
// the world size.
type inbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	slots   []slot   // (ctx,src,tag) -> bucket table; nil until first use
	nkeys   int      // occupied slots
	slab    []bucket // arena for bucket structs, amortises short-lived worlds
	npend   int      // queued, unmatched messages across all buckets
	aborted bool     // set by World.abortAll once the world is quiescent

	// depth[i] counts deliveries that left npend in obs histogram bucket
	// i, depthSum the depths summed: the mpi_inbox_depth histogram,
	// tallied under mu and flushed by World.Run.
	depth    []int64
	depthSum int64

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

// inboxPool recycles inboxes — and the bucket tables, bucket arenas and
// queue arrays hanging off them — across world lifetimes. Building and
// tearing down worlds is the artefact scheduler's steady state (the
// world-churn benchmark), and the inbox graph was most of its per-world
// allocation.
var inboxPool = sync.Pool{New: func() any { return newInbox() }}

// leaseInboxes returns np pooled inboxes, one per rank.
func leaseInboxes(np int) []*inbox {
	boxes := make([]*inbox, np)
	for i := range boxes {
		boxes[i] = inboxPool.Get().(*inbox)
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
// reusable. The bucket table and arena are retained: their queues are
// empty (npend == 0), and keeping them is the point of the pool.
func (b *inbox) reset() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.npend == 0 && !b.aborted && b.waiting == nil
}

// queue returns the FIFO for k, creating it on first use. Caller holds
// b.mu.
func (b *inbox) queue(k bucketKey) *bucket {
	if len(b.slots) > 0 {
		mask := uint64(len(b.slots) - 1)
		for i := k.hash() & mask; ; i = (i + 1) & mask {
			s := &b.slots[i]
			if s.q == nil {
				break
			}
			if s.k == k {
				return s.q
			}
		}
	}
	return b.insert(k)
}

// insert adds an empty FIFO for the absent key k, growing the table
// first when it would pass 7/8 full. Caller holds b.mu.
func (b *inbox) insert(k bucketKey) *bucket {
	if 8*(b.nkeys+1) > 7*len(b.slots) {
		b.grow()
	}
	if len(b.slab) == 0 {
		//lint:allow reprolint/allochot slab refill amortises bucket allocation 16x (churn budget covers it)
		b.slab = make([]bucket, 16)
	}
	q := &b.slab[0]
	b.slab = b.slab[1:]
	b.place(k, q)
	b.nkeys++
	return q
}

// grow doubles the table (8 slots on first use) and re-places every key.
// Caller holds b.mu.
func (b *inbox) grow() {
	old := b.slots
	n := 2 * len(old)
	if n == 0 {
		n = 8
	}
	//lint:allow reprolint/allochot table growth doubles per distinct-key threshold; the pool retains the table
	b.slots = make([]slot, n)
	for _, s := range old {
		if s.q != nil {
			b.place(s.k, s.q)
		}
	}
}

// place stores (k, q) in the first free slot of k's probe sequence.
// Caller holds b.mu.
func (b *inbox) place(k bucketKey, q *bucket) {
	mask := uint64(len(b.slots) - 1)
	i := k.hash() & mask
	for b.slots[i].q != nil {
		i = (i + 1) & mask
	}
	b.slots[i] = slot{k: k, q: q}
}

// tallyDepth counts one delivery that left n messages pending. Caller
// holds b.mu.
func (b *inbox) tallyDepth(n int) {
	i := obs.Bucket(int64(n))
	if i >= len(b.depth) {
		//lint:allow reprolint/allochot grows to the deepest bucket seen (a few words); the pool retains it
		b.depth = append(b.depth, make([]int64, i+1-len(b.depth))...)
	}
	b.depth[i]++
	b.depthSum += int64(n)
}

// flushDepth adds the depth tally into h and clears it. The sum rides on
// the first nonzero bucket's bulk add.
func (b *inbox) flushDepth(h *obs.Histogram) {
	b.mu.Lock()
	defer b.mu.Unlock()
	sum := b.depthSum
	for i, n := range b.depth {
		if n > 0 {
			h.AddBucket(i, n, sum)
			sum = 0
			b.depth[i] = 0
		}
	}
	b.depthSum = 0
}

// put enqueues a message and wakes the consumer when it waits on the
// message's bucket. Messages from one sender are enqueued in program
// order, giving per-(src,tag) FIFO matching.
func (b *inbox) put(w *World, m *message) {
	b.mu.Lock()
	q := b.queue(bucketKey{ctx: m.ctx, src: m.src, tag: m.tag})
	q.push(m)
	b.npend++
	b.tallyDepth(b.npend)
	if b.waiting == q {
		b.waiting = nil
		w.exitBlocked()
		b.cond.Signal()
	}
	b.mu.Unlock()
}

// match blocks until a message matching (ctx, src, tag) is available,
// removes it from its bucket and returns it.
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
func (b *inbox) match(w *World, ctx uint64, src, tag int) *message {
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
		b.cond.Wait()
	}
}

// pendingDebug returns the maintained counter alongside a brute-force
// recount over every bucket, both read under one lock acquisition (test
// hook for the counter invariant).
func (b *inbox) pendingDebug() (counter, brute int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, s := range b.slots {
		if s.q != nil {
			brute += len(s.q.msgs) - s.q.head
		}
	}
	return b.npend, brute
}
