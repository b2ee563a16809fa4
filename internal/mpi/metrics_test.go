package mpi

import (
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// meteredWorld builds an np-rank world on DCC with a fresh registry.
func meteredWorld(t *testing.T, np int, opts ...Option) (*World, *obs.Registry) {
	t.Helper()
	pl, err := cluster.Place(platform.DCC(), cluster.Spec{NP: np, Policy: cluster.Spread, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	opts = append(opts, WithMetrics(reg))
	w, err := NewWorld(platform.DCC(), pl, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return w, reg
}

// checkFlushed asserts the identities that hold between the flushed
// message metrics of any run: every send is counted once in the size
// histogram and once in the inbox-depth histogram (one delivery each),
// and the size histogram sums to the sent bytes.
func checkFlushed(t *testing.T, reg *obs.Registry) (sends int64) {
	t.Helper()
	snap := reg.Snapshot(true)
	sends = snap["mpi_sends_total"].Value
	if sends == 0 {
		t.Fatal("no sends were flushed")
	}
	if n := snap["mpi_message_bytes"].Count; n != sends {
		t.Errorf("mpi_message_bytes count %d != mpi_sends_total %d", n, sends)
	}
	if n := snap["mpi_inbox_depth"].Count; n != sends {
		t.Errorf("mpi_inbox_depth count %d != mpi_sends_total %d", n, sends)
	}
	if s, b := snap["mpi_message_bytes"].Sum, snap["mpi_send_bytes_total"].Value; s != b {
		t.Errorf("mpi_message_bytes sum %d != mpi_send_bytes_total %d", s, b)
	}
	if e, r := snap["mpi_eager_total"].Value, snap["mpi_rendezvous_total"].Value; e+r != sends {
		t.Errorf("eager %d + rendezvous %d != sends %d", e, r, sends)
	}
	// A rank killed between leasing an envelope and injecting it leases
	// without sending; no send goes without a lease.
	if l := snap["mpi_pool_leases_total"].Value; l < sends {
		t.Errorf("pool leases %d < sends %d", l, sends)
	}
	return sends
}

// meteredApp mixes sizes from every histogram region (including one
// rendezvous-sized message per rank), collectives and a Split
// communicator, so the size runs break and several contexts are live.
func meteredApp(c *Comm) error {
	np := c.Size()
	next, prev := (c.Rank()+1)%np, (c.Rank()-1+np)%np
	for _, n := range []int{8, 8, 4096, 8, DefaultRendezvousBytes, 0, 100000} {
		c.SendrecvN(next, 3, n, prev, 3)
	}
	c.AllreduceN(8)
	sub := c.Split(c.Rank()%2, c.Rank())
	sub.AllreduceN(64)
	sub.BcastN(0, 4096)
	c.Barrier()
	return nil
}

// TestMetricFlushConsistency checks the flushed totals of a completed
// run: sends equal receives, the histograms count every message once,
// the one rendezvous message per rank lands in its bucket, and a second
// Run of the same world flushes exactly as much again (the per-rank and
// per-inbox tallies start from zero every Run).
func TestMetricFlushConsistency(t *testing.T) {
	// The subtest is named for the rank engine it runs on, the goroutine
	// runtime.
	t.Run("goroutine", func(t *testing.T) {
		const np = 8
		w, reg := meteredWorld(t, np)
		if _, err := w.Run(meteredApp); err != nil {
			t.Fatal(err)
		}
		sends := checkFlushed(t, reg)
		snap := reg.Snapshot(false)
		if r := snap["mpi_recvs_total"].Value; r != sends {
			t.Errorf("recvs %d != sends %d", r, sends)
		}
		if rb, sb := snap["mpi_recv_bytes_total"].Value, snap["mpi_send_bytes_total"].Value; rb != sb {
			t.Errorf("recv bytes %d != send bytes %d", rb, sb)
		}
		if l := reg.Snapshot(true)["mpi_pool_leases_total"].Value; l != sends {
			t.Errorf("pool leases %d != sends %d", l, sends)
		}
		if r := snap["mpi_rendezvous_total"].Value; r != np {
			t.Errorf("rendezvous %d, want %d", r, np)
		}
		ub := fmt.Sprint(int64(2*DefaultRendezvousBytes - 1))
		if n := snap["mpi_message_bytes"].Buckets[ub]; n != np {
			t.Errorf("bucket <=%s holds %d messages, want %d", ub, n, np)
		}

		if _, err := w.Run(meteredApp); err != nil {
			t.Fatal(err)
		}
		if again := checkFlushed(t, reg); again != 2*sends {
			t.Errorf("second run flushed to %d sends, want %d", again, 2*sends)
		}
		w.Release()
	})
}

// TestMetricFlushOnFailure checks that a run that ends in a deadlock or a
// rank failure still flushes the messages it sent.
func TestMetricFlushOnFailure(t *testing.T) {
	t.Run("deadlock", func(t *testing.T) {
		w, reg := meteredWorld(t, 2)
		_, err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				c.SendN(1, 1, 64)
				c.SendN(1, 1, 64)
				c.RecvN(1, 5)
			} else {
				c.RecvN(0, 1)
				c.RecvN(0, 9)
			}
			return nil
		})
		if err == nil || errors.Is(err, ErrRankFailed) {
			t.Fatalf("got %v, want a deadlock", err)
		}
		if sends := checkFlushed(t, reg); sends != 2 {
			t.Errorf("flushed %d sends, want 2", sends)
		}
		if r := reg.Snapshot(false)["mpi_recvs_total"].Value; r != 1 {
			t.Errorf("flushed %d receives, want 1", r)
		}
	})
	t.Run("rank-failed", func(t *testing.T) {
		plan := &fault.Plan{Preemptions: []fault.Preemption{{Node: 1, At: 2.0}}}
		w, reg := meteredWorld(t, 8, WithFaults(plan))
		_, err := w.Run(func(c *Comm) error {
			np := c.Size()
			for step := 0; step < 40; step++ {
				c.ComputeSeconds(0.25)
				c.SendrecvN((c.Rank()+1)%np, 9, 4096, (c.Rank()-1+np)%np, 9)
				c.AllreduceN(8)
			}
			return nil
		})
		var rf *RankFailedError
		if !errors.As(err, &rf) {
			t.Fatalf("got %v, want a *RankFailedError", err)
		}
		sends := checkFlushed(t, reg)
		if r := reg.Snapshot(false)["mpi_recvs_total"].Value; r > sends {
			t.Errorf("flushed %d receives for %d sends", r, sends)
		}
	})
}

// TestInboxTableProperty drives one inbox with random put/match sequences
// over several hundred (ctx, src, tag) keys — contexts taken from real
// Split communicators — and checks every match against a FIFO-per-key
// map model, the pending counter against a brute-force recount, and the
// table's own invariants. The key count forces the table through several
// growths.
func TestInboxTableProperty(t *testing.T) {
	// Collect real communicator contexts: world, a Split of it, and a
	// Split of that.
	ctxs := make([][]uint64, 4)
	if _, err := RunOn(platform.Vayu(), 4, func(c *Comm) error {
		a := c.Split(c.Rank()%2, 0)
		b := a.Split(0, -c.Rank())
		ctxs[c.Rank()] = []uint64{c.ctx, a.ctx, b.ctx}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	var keyCtx []uint64
	for _, cs := range ctxs {
		for _, x := range cs {
			if !seen[x] {
				seen[x] = true
				keyCtx = append(keyCtx, x)
			}
		}
	}
	if len(keyCtx) < 4 {
		t.Fatalf("only %d distinct contexts from Split", len(keyCtx))
	}

	w := &World{}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		var keys []bucketKey
		for _, x := range keyCtx {
			for src := 0; src < 12; src++ {
				for tag := 0; tag < 8; tag++ {
					keys = append(keys, bucketKey{ctx: x, src: src, tag: tag * (1 + int(seed))})
				}
			}
		}
		b := newInbox()
		model := map[bucketKey][]int{}
		pending := 0
		for op := 0; op < 6000; op++ {
			// Skew towards a hot subset so queues build up while the
			// full key set still reaches the table.
			k := keys[rng.Intn(len(keys))]
			if rng.Intn(3) > 0 {
				k = keys[rng.Intn(24)]
			}
			if q := model[k]; len(q) > 0 && rng.Intn(2) == 0 {
				m := b.match(w, k.ctx, k.src, k.tag)
				if m.bytes != q[0] || m.ctx != k.ctx || m.src != k.src || m.tag != k.tag {
					t.Fatalf("seed %d op %d: matched %+v on %+v, want id %d", seed, op, m, k, q[0])
				}
				model[k] = q[1:]
				pending--
			} else {
				b.put(w, &message{ctx: k.ctx, src: k.src, tag: k.tag, bytes: op})
				model[k] = append(model[k], op)
				pending++
			}
			if op%97 == 0 {
				if counter, brute := b.pendingDebug(); counter != pending || brute != pending {
					t.Fatalf("seed %d op %d: counter %d brute %d, model %d", seed, op, counter, brute, pending)
				}
			}
		}
		// Drain in model order; every queue must come back FIFO.
		for k, q := range model {
			for _, id := range q {
				if m := b.match(w, k.ctx, k.src, k.tag); m.bytes != id {
					t.Fatalf("seed %d drain %+v: got id %d, want %d", seed, k, m.bytes, id)
				}
			}
		}
		if counter, brute := b.pendingDebug(); counter != 0 || brute != 0 {
			t.Fatalf("seed %d: drained inbox reports counter %d brute %d", seed, counter, brute)
		}
		occupied := 0
		for _, s := range b.slots {
			if s.q != nil {
				occupied++
			}
		}
		if occupied != b.nkeys || occupied != len(model) {
			t.Fatalf("seed %d: %d occupied slots, nkeys %d, model keys %d", seed, occupied, b.nkeys, len(model))
		}
		if n := len(b.slots); n < 256 || n&(n-1) != 0 || 8*b.nkeys > 7*n {
			t.Fatalf("seed %d: table of %d slots for %d keys (want >= 256 slots, a power of two, <= 7/8 full)",
				seed, n, b.nkeys)
		}
	}
}

// TestRankStateHotFieldsSeparated pins the rankState layout: at least a
// cache line of rarely written fields precedes the clock, so neighbouring
// ranks' per-operation writes in World.Run's slab never share a line.
func TestRankStateHotFieldsSeparated(t *testing.T) {
	if off := unsafe.Offsetof(rankState{}.clock); off < 64 {
		t.Fatalf("rankState.clock at offset %d, want >= 64", off)
	}
}
