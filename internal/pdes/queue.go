// Package pdes provides the deterministic event queue of the repository's
// discrete-event simulations. The batch facility (package facility)
// drives its arrivals, completions and spot interruptions through it.
//
// The queue is a binary min-heap of Events ordered by virtual time, then
// by an integer id (Rank), then by a creation stamp (Seq), so the order is
// total and every drain is a deterministic function of what was pushed,
// never of wall-clock scheduling.
package pdes

// Event is one scheduled occurrence. Time is its virtual time; Rank is a
// caller-defined integer id that breaks time ties (the facility stores
// the event kind there); Seq is a creation stamp, unique per queue, that
// makes the order total. All three components must be deterministic
// functions of the simulated program, never of wall-clock scheduling.
type Event struct {
	Time float64
	Rank int
	Seq  uint64
}

// Less is the queue's strict total order: virtual time, then rank, then
// creation stamp. Two distinct events never compare equal because Seq is
// unique per queue.
func (e Event) Less(o Event) bool {
	if e.Time != o.Time {
		return e.Time < o.Time
	}
	if e.Rank != o.Rank {
		return e.Rank < o.Rank
	}
	return e.Seq < o.Seq
}

// Queue is a binary min-heap of events under Event.Less. The zero value
// is an empty queue ready for use. It is not synchronised.
type Queue struct {
	h []Event
}

// Len returns the number of queued events.
func (q *Queue) Len() int { return len(q.h) }

// Push inserts an event.
func (q *Queue) Push(e Event) {
	//lint:allow reprolint/allochot amortised heap growth; the backing array is retained and reused across runs
	q.h = append(q.h, e)
	i := len(q.h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.h[i].Less(q.h[parent]) {
			break
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

// Pop removes and returns the minimum event. It panics on an empty queue
// (an engine invariant violation, not a recoverable condition).
func (q *Queue) Pop() Event {
	min := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h[last] = Event{}
	q.h = q.h[:last]
	q.siftDown(0)
	return min
}

// Min returns the minimum event without removing it; ok is false when the
// queue is empty.
func (q *Queue) Min() (min Event, ok bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}

func (q *Queue) siftDown(i int) {
	n := len(q.h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.h[l].Less(q.h[smallest]) {
			smallest = l
		}
		if r < n && q.h[r].Less(q.h[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.h[i], q.h[smallest] = q.h[smallest], q.h[i]
		i = smallest
	}
}
