package mpi

import "fmt"

// Request represents an outstanding nonblocking operation. Requests are
// completed by Comm.Wait or Comm.Waitall on the same rank that created
// them; they are not safe for concurrent use.
type Request struct {
	c      *Comm
	isSend bool
	done   bool

	// receive-side fields
	src, tag int
	fbuf     []float64
	phantom  bool
	start    float64 // clock at post time
	bytes    int     // filled on completion
	n        int     // elements received
}

// Isend posts a nonblocking send of a float64 payload. The injection cost
// is charged immediately (the NIC serialises outgoing messages); Wait is a
// local no-op, mirroring eager-protocol MPI.
func (c *Comm) Isend(dst, tag int, data []float64) *Request {
	start := c.sendF64(dst, tag, data)
	c.record("Isend", 8*len(data), start)
	return &Request{c: c, isSend: true, done: true}
}

// IsendN posts a nonblocking phantom send of n bytes.
func (c *Comm) IsendN(dst, tag, n int) *Request {
	start := c.sendPhantom(dst, tag, n)
	c.record("Isend", n, start)
	return &Request{c: c, isSend: true, done: true}
}

// Irecv posts a nonblocking receive into buf. Matching happens at Wait.
func (c *Comm) Irecv(src, tag int, buf []float64) *Request {
	return &Request{c: c, src: src, tag: tag, fbuf: buf, start: c.st.clock}
}

// IrecvN posts a nonblocking phantom receive.
func (c *Comm) IrecvN(src, tag int) *Request {
	return &Request{c: c, src: src, tag: tag, phantom: true, start: c.st.clock}
}

// Wait completes the request. For receives it blocks until the matching
// message arrives and advances the virtual clock to the arrival time.
// It returns the number of elements received (0 for sends and phantoms).
func (c *Comm) Wait(r *Request) int {
	if r.c.st != c.st {
		panic("mpi: Wait called on a different rank's request")
	}
	if r.done {
		return r.n
	}
	// Match on the communicator the request was posted on (its context id
	// scopes the matching), which shares this rank's clock.
	start := c.st.clock
	m := r.c.recvRaw(r.src, r.tag)
	switch {
	case r.phantom:
		if m.kind != payloadNone {
			panic("mpi: phantom receive matched a message with a real payload")
		}
	case r.fbuf != nil:
		r.n = copyFloat64(r.fbuf, m)
	default:
		panic("mpi: receive request without a buffer")
	}
	r.bytes = m.bytes
	r.done = true
	m.release()
	c.record("Wait", r.bytes, start)
	return r.n
}

// Waitall completes all requests in order.
func (c *Comm) Waitall(reqs ...*Request) {
	for i, r := range reqs {
		if r == nil {
			panic(fmt.Sprintf("mpi: Waitall: nil request at index %d", i))
		}
		c.Wait(r)
	}
}
