package mpi

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/platform"
)

// run executes fn on np ranks of the given platform, failing the test on
// error.
func run(t *testing.T, p *platform.Platform, np int, fn func(c *Comm) error) *Result {
	t.Helper()
	res, err := RunOn(p, np, fn)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSendRecvDataIntegrity(t *testing.T) {
	run(t, platform.Vayu(), 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1.5, 2.5, 3.5})
		} else {
			buf := make([]float64, 3)
			n := c.Recv(0, 7, buf)
			if n != 3 || buf[0] != 1.5 || buf[1] != 2.5 || buf[2] != 3.5 {
				return fmt.Errorf("got %v (n=%d)", buf, n)
			}
		}
		return nil
	})
}

func TestSendCopiesBuffer(t *testing.T) {
	run(t, platform.Vayu(), 2, func(c *Comm) error {
		if c.Rank() == 0 {
			data := []float64{42}
			c.Send(1, 0, data)
			data[0] = -1 // must not affect the in-flight message
		} else {
			buf := make([]float64, 1)
			c.Recv(0, 0, buf)
			if buf[0] != 42 {
				return fmt.Errorf("message corrupted by sender reuse: %v", buf[0])
			}
		}
		return nil
	})
}

func TestTagMatching(t *testing.T) {
	run(t, platform.Vayu(), 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 2, []float64{2})
		} else {
			buf := make([]float64, 1)
			c.Recv(0, 2, buf) // out of order by tag
			if buf[0] != 2 {
				return fmt.Errorf("tag 2 got %v", buf[0])
			}
			c.Recv(0, 1, buf)
			if buf[0] != 1 {
				return fmt.Errorf("tag 1 got %v", buf[0])
			}
		}
		return nil
	})
}

func TestFIFOPerSourceAndTag(t *testing.T) {
	run(t, platform.Vayu(), 2, func(c *Comm) error {
		const k = 50
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				c.Send(1, 3, []float64{float64(i)})
			}
		} else {
			buf := make([]float64, 1)
			for i := 0; i < k; i++ {
				c.Recv(0, 3, buf)
				if buf[0] != float64(i) {
					return fmt.Errorf("message %d arrived out of order: %v", i, buf[0])
				}
			}
		}
		return nil
	})
}

func TestIntAndComplexPayloads(t *testing.T) {
	run(t, platform.Vayu(), 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SendInts(1, 0, []int{9, 8})
			c.SendComplex(1, 1, []complex128{2 + 3i})
		} else {
			ib := make([]int, 2)
			c.RecvInts(0, 0, ib)
			if ib[0] != 9 || ib[1] != 8 {
				return fmt.Errorf("ints: %v", ib)
			}
			cb := make([]complex128, 1)
			c.RecvComplex(0, 1, cb)
			if cb[0] != 2+3i {
				return fmt.Errorf("complex: %v", cb)
			}
		}
		return nil
	})
}

func TestPhantomMessages(t *testing.T) {
	run(t, platform.DCC(), 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SendN(1, 0, 4096)
		} else {
			if n := c.RecvN(0, 0); n != 4096 {
				return fmt.Errorf("phantom size = %d", n)
			}
		}
		return nil
	})
}

func TestSelfSend(t *testing.T) {
	run(t, platform.Vayu(), 1, func(c *Comm) error {
		c.Send(0, 0, []float64{7})
		buf := make([]float64, 1)
		c.Recv(0, 0, buf)
		if buf[0] != 7 {
			return fmt.Errorf("self message got %v", buf[0])
		}
		return nil
	})
}

func TestSendrecvRing(t *testing.T) {
	const np = 8
	run(t, platform.Vayu(), np, func(c *Comm) error {
		right := (c.Rank() + 1) % np
		left := (c.Rank() - 1 + np) % np
		out := []float64{float64(c.Rank())}
		in := make([]float64, 1)
		c.Sendrecv(right, 5, out, left, 5, in)
		if in[0] != float64(left) {
			return fmt.Errorf("ring got %v, want %d", in[0], left)
		}
		return nil
	})
}

// waitTracer records the bytes of every completed Wait, in call order.
type waitTracer struct {
	mu    sync.Mutex
	waits []int
}

func (t *waitTracer) Call(rank int, rec CallRecord) {
	if rec.Name == "Wait" {
		t.mu.Lock()
		t.waits = append(t.waits, rec.Bytes)
		t.mu.Unlock()
	}
}
func (t *waitTracer) Advance(int, string, float64, float64) {}
func (t *waitTracer) Region(int, string, float64)           {}

func TestNonblocking(t *testing.T) {
	// Ten receives posted before any send, each on its own tag and
	// completed in reverse order, must each match the send with that
	// tag (tag i carries 8*(i+1) bytes).
	tr := &waitTracer{}
	_, err := RunOn(platform.Vayu(), 2, func(c *Comm) error {
		reqs := make([]*Request, 10)
		if c.Rank() == 0 {
			for i := range reqs {
				reqs[i] = c.IsendN(1, i, 8*(i+1))
			}
			c.Waitall(reqs...)
			return nil
		}
		for i := range reqs {
			reqs[i] = c.IrecvN(0, i)
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			c.Wait(reqs[i])
		}
		return nil
	}, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.waits) != 10 {
		t.Fatalf("%d receive completions traced, want 10", len(tr.waits))
	}
	for k, n := range tr.waits {
		if i := 9 - k; n != 8*(i+1) {
			t.Fatalf("request %d matched %d bytes, want %d", i, n, 8*(i+1))
		}
	}
}

func TestWaitIdempotent(t *testing.T) {
	run(t, platform.Vayu(), 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.SendN(1, 0, 8)
			return nil
		}
		r := c.IrecvN(0, 0)
		c.Wait(r)
		at := c.Clock()
		c.Wait(r) // a second match would find no message and deadlock
		if !r.done || c.Clock() != at {
			return fmt.Errorf("second Wait was not a no-op (done=%v, clock %v -> %v)", r.done, at, c.Clock())
		}
		return nil
	})
}

func TestBcast(t *testing.T) {
	// The binomial tree must reach every non-root rank with exactly one
	// message: np-1 receives in total, and every rank but the root ends
	// later than it started.
	for _, np := range []int{1, 2, 3, 4, 7, 8, 16} {
		np := np
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			reg := obs.NewRegistry()
			root := 2 % np
			_, err := RunOn(platform.Vayu(), np, func(c *Comm) error {
				c.BcastN(root, 4096)
				if c.Rank() != root && c.Clock() <= 0 {
					return fmt.Errorf("rank %d left the broadcast at t=%v without receiving", c.Rank(), c.Clock())
				}
				return nil
			}, WithMetrics(reg))
			if err != nil {
				t.Fatal(err)
			}
			if got := reg.Snapshot(false)["mpi_recvs_total"].Value; got != int64(np-1) {
				t.Fatalf("broadcast delivered %d messages, want %d", got, np-1)
			}
		})
	}
}

func TestReduce(t *testing.T) {
	// The binomial reduce tree behind Allreduce on non-power-of-two
	// sizes leaves the full sum on rank 0.
	for _, np := range []int{1, 2, 5, 8} {
		np := np
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			run(t, platform.Vayu(), np, func(c *Comm) error {
				data := []float64{float64(c.Rank() + 1)}
				c.reduceBody(Sum, data)
				if c.Rank() == 0 {
					want := float64(np*(np+1)) / 2
					if data[0] != want {
						return fmt.Errorf("reduce sum = %v, want %v", data[0], want)
					}
				}
				return nil
			})
		})
	}
}

func TestAllreduceOps(t *testing.T) {
	for _, np := range []int{2, 4, 6, 8, 16} { // mix of pow2 and not
		for _, op := range []Op{Sum, Max, Min} {
			np, op := np, op
			t.Run(fmt.Sprintf("np=%d/%v", np, op), func(t *testing.T) {
				run(t, platform.Vayu(), np, func(c *Comm) error {
					data := []float64{float64(c.Rank() + 1), -float64(c.Rank())}
					c.Allreduce(op, data)
					var want0, want1 float64
					switch op {
					case Sum:
						want0, want1 = float64(np*(np+1))/2, -float64(np*(np-1))/2
					case Max:
						want0, want1 = float64(np), 0
					case Min:
						want0, want1 = 1, -float64(np-1)
					}
					if data[0] != want0 || data[1] != want1 {
						return fmt.Errorf("rank %d: allreduce(%v) = %v, want [%v %v]",
							c.Rank(), op, data, want0, want1)
					}
					return nil
				})
			})
		}
	}
}

func TestAllreduceInts(t *testing.T) {
	run(t, platform.Vayu(), 6, func(c *Comm) error {
		data := []int{c.Rank()}
		c.AllreduceInts(Sum, data)
		if data[0] != 15 {
			return fmt.Errorf("int allreduce = %d, want 15", data[0])
		}
		return nil
	})
}

func TestMaxMinOpsOnInts(t *testing.T) {
	run(t, platform.Vayu(), 3, func(c *Comm) error {
		vals := [][]int{{3, -2}, {1, 5}, {2, 0}}
		mx := append([]int(nil), vals[c.Rank()]...)
		c.AllreduceInts(Max, mx)
		mn := append([]int(nil), vals[c.Rank()]...)
		c.AllreduceInts(Min, mn)
		if mx[0] != 3 || mx[1] != 5 {
			return fmt.Errorf("max = %v", mx)
		}
		if mn[0] != 1 || mn[1] != -2 {
			return fmt.Errorf("min = %v", mn)
		}
		return nil
	})
}

func TestOpString(t *testing.T) {
	if Sum.String() != "sum" || Max.String() != "max" || Min.String() != "min" {
		t.Fatal("op names wrong")
	}
	if Op(42).String() == "" {
		t.Fatal("unknown op should render")
	}
}

func TestAllreduceMatchesSerialProperty(t *testing.T) {
	// Property: Allreduce(Sum) equals the serial sum for random vectors.
	prop := func(seed uint8, lenRaw uint8) bool {
		np := int(seed%7) + 2
		n := int(lenRaw%16) + 1
		vals := make([][]float64, np)
		for r := range vals {
			vals[r] = make([]float64, n)
			for i := range vals[r] {
				vals[r][i] = float64((int(seed)+r*31+i*7)%100) / 3
			}
		}
		want := make([]float64, n)
		for _, v := range vals {
			for i := range want {
				want[i] += v[i]
			}
		}
		ok := true
		_, err := RunOn(platform.Vayu(), np, func(c *Comm) error {
			data := append([]float64(nil), vals[c.Rank()]...)
			c.Allreduce(Sum, data)
			for i := range data {
				if diff := data[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
					ok = false
				}
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestAllgather(t *testing.T) {
	for _, np := range []int{1, 3, 4, 8} {
		np := np
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			run(t, platform.Vayu(), np, func(c *Comm) error {
				send := []float64{float64(c.Rank()), float64(c.Rank() * 10)}
				recv := make([]float64, 2*np)
				c.Allgather(send, recv)
				for r := 0; r < np; r++ {
					if recv[2*r] != float64(r) || recv[2*r+1] != float64(r*10) {
						return fmt.Errorf("rank %d: block %d = %v", c.Rank(), r, recv[2*r:2*r+2])
					}
				}
				return nil
			})
		})
	}
}

func TestAlltoall(t *testing.T) {
	// Pairwise exchange: rank r's block d must land in rank d's block r.
	for _, np := range []int{2, 3, 4, 8} {
		np := np
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			run(t, platform.Vayu(), np, func(c *Comm) error {
				send := make([]complex128, 2*np)
				for i := range send {
					send[i] = complex(float64(c.Rank()*100+i/2), float64(i%2))
				}
				recv := make([]complex128, 2*np)
				c.AlltoallComplex(send, recv)
				for i := range recv {
					if want := complex(float64(i/2*100+c.Rank()), float64(i%2)); recv[i] != want {
						return fmt.Errorf("rank %d: element %d = %v, want %v", c.Rank(), i, recv[i], want)
					}
				}
				return nil
			})
		})
	}
}

func TestAlltoallComplex(t *testing.T) {
	const np = 4
	run(t, platform.Vayu(), np, func(c *Comm) error {
		send := make([]complex128, np)
		for d := range send {
			send[d] = complex(float64(c.Rank()), float64(d))
		}
		recv := make([]complex128, np)
		c.AlltoallComplex(send, recv)
		for s := 0; s < np; s++ {
			if recv[s] != complex(float64(s), float64(c.Rank())) {
				return fmt.Errorf("rank %d: from %d got %v", c.Rank(), s, recv[s])
			}
		}
		return nil
	})
}

func TestBarrierSynchronisesClocks(t *testing.T) {
	// After a barrier every rank's clock must be >= the pre-barrier
	// maximum (no rank can leave before the slowest arrives).
	const np = 8
	maxBefore := make([]float64, np)
	after := make([]float64, np)
	run(t, platform.Vayu(), np, func(c *Comm) error {
		if c.Rank() == 3 {
			c.ComputeSeconds(1.0) // straggler
		}
		maxBefore[c.Rank()] = c.Clock()
		c.Barrier()
		after[c.Rank()] = c.Clock()
		return nil
	})
	var mx float64
	for _, v := range maxBefore {
		if v > mx {
			mx = v
		}
	}
	for r, v := range after {
		if v < mx {
			t.Fatalf("rank %d left the barrier at %v, before straggler arrived at %v", r, v, mx)
		}
	}
}

func TestPhantomCollectives(t *testing.T) {
	for _, np := range []int{2, 3, 4, 8, 12} {
		np := np
		t.Run(fmt.Sprintf("np=%d", np), func(t *testing.T) {
			run(t, platform.DCC(), np, func(c *Comm) error {
				c.AllreduceN(8)
				c.BcastN(0, 1024)
				c.AllgatherN(64)
				c.AlltoallN(256)
				c.Barrier()
				return nil
			})
		})
	}
}

func TestSplit(t *testing.T) {
	// Split 8 ranks into 2 groups by parity; verify ranks, sizes and that
	// collectives work inside the split.
	run(t, platform.Vayu(), 8, func(c *Comm) error {
		color := c.Rank() % 2
		sub := c.Split(color, c.Rank())
		if sub.Size() != 4 {
			return fmt.Errorf("sub size = %d", sub.Size())
		}
		if want := c.Rank() / 2; sub.Rank() != want {
			return fmt.Errorf("sub rank = %d, want %d", sub.Rank(), want)
		}
		data := []float64{float64(c.Rank())}
		sub.Allreduce(Sum, data)
		// Even ranks: 0+2+4+6=12; odd: 1+3+5+7=16.
		want := 12.0
		if color == 1 {
			want = 16
		}
		if data[0] != want {
			return fmt.Errorf("split allreduce = %v, want %v", data[0], want)
		}
		return nil
	})
}

func TestSplitKeyOrdering(t *testing.T) {
	run(t, platform.Vayu(), 4, func(c *Comm) error {
		// Reverse the order via keys.
		sub := c.Split(0, -c.Rank())
		if want := 3 - c.Rank(); sub.Rank() != want {
			return fmt.Errorf("rank %d: sub rank = %d, want %d", c.Rank(), sub.Rank(), want)
		}
		return nil
	})
}

func TestSplitContextIsolation(t *testing.T) {
	// Messages on a split communicator must not match receives on the
	// parent even with identical src/tag.
	run(t, platform.Vayu(), 2, func(c *Comm) error {
		sub := c.Split(0, c.Rank())
		if c.Rank() == 0 {
			sub.Send(1, 5, []float64{111})
			c.Send(1, 5, []float64{222})
		} else {
			buf := make([]float64, 1)
			c.Recv(0, 5, buf) // parent first: must get 222 despite arriving second
			if buf[0] != 222 {
				return fmt.Errorf("parent recv got %v, want 222", buf[0])
			}
			sub.Recv(0, 5, buf)
			if buf[0] != 111 {
				return fmt.Errorf("sub recv got %v, want 111", buf[0])
			}
		}
		return nil
	})
}

func TestMisusePanicsBecomeErrors(t *testing.T) {
	cases := map[string]func(c *Comm) error{
		"rank out of range": func(c *Comm) error {
			c.Send(99, 0, []float64{1})
			return nil
		},
		"negative tag": func(c *Comm) error {
			c.Send(0, -3, []float64{1})
			return nil
		},
		"truncation": func(c *Comm) error {
			if c.Rank() == 0 {
				c.Send(1, 0, []float64{1, 2, 3})
			} else {
				c.Recv(0, 0, make([]float64, 1))
			}
			return nil
		},
		"type mismatch": func(c *Comm) error {
			if c.Rank() == 0 {
				c.SendInts(1, 0, []int{1})
			} else {
				c.Recv(0, 0, make([]float64, 1))
			}
			return nil
		},
		"phantom mismatch": func(c *Comm) error {
			if c.Rank() == 0 {
				c.SendN(1, 0, 8)
			} else {
				c.Recv(0, 0, make([]float64, 1))
			}
			return nil
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := RunOn(platform.Vayu(), 2, fn)
			if err == nil {
				t.Fatalf("%s should fail the run", name)
			}
			if !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("error should report the panic, got: %v", err)
			}
		})
	}
}

// TestDeadlockDiagnosed checks that the runtime reports a
// deadlock the moment the world quiesces, naming every blocked rank and
// the (src, tag) it waits on. The cases pin down which event completes
// the quiescence: a rank blocking (a receive-receive cycle) or a rank
// stopping (rank 1 exits only once rank 0 is seen blocked).
func TestDeadlockDiagnosed(t *testing.T) {
	cases := []struct {
		name string
		fn   func(w *World, c *Comm)
		want string
	}{
		{"last-blocks", func(w *World, c *Comm) {
			if c.Rank() == 0 {
				c.Recv(1, 7, make([]float64, 1))
			} else {
				c.RecvN(0, 3)
			}
		}, " 2 rank(s) blocked with no runnable peer: rank 0 waiting on (src=1, tag=7) rank 1 waiting on (src=0, tag=3)"},
		{"last-stops", func(w *World, c *Comm) {
			if c.Rank() == 0 {
				c.RecvN(1, 9)
				return
			}
			for b := w.inboxes[0]; ; runtime.Gosched() {
				b.mu.Lock()
				blocked := b.waiting != nil
				b.mu.Unlock()
				if blocked {
					return
				}
			}
		}, " 1 rank(s) blocked with no runnable peer: rank 0 waiting on (src=1, tag=9)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl, err := cluster.Place(platform.Vayu(), cluster.Spec{NP: 2})
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewWorld(platform.Vayu(), pl)
			if err != nil {
				t.Fatal(err)
			}
			_, err = w.Run(func(c *Comm) error {
				tc.fn(w, c)
				return nil
			})
			if want := "mpi: deadlock:" + tc.want; err == nil || err.Error() != want {
				t.Fatalf("got %v, want %q", err, want)
			}
		})
	}
}

// TestRecvRejectsWildcards checks that a negative source or tag — the
// wildcard spelling of other MPIs — is a misuse panic, not a match-any,
// for blocking and nonblocking receives alike.
func TestRecvRejectsWildcards(t *testing.T) {
	cases := map[string]func(c *Comm){
		"Recv(-1, 0)":   func(c *Comm) { c.Recv(-1, 0, make([]float64, 1)) },
		"Recv(0, -1)":   func(c *Comm) { c.Recv(0, -1, make([]float64, 1)) },
		"IrecvN(-1, 0)": func(c *Comm) { c.Wait(c.IrecvN(-1, 0)) },
	}
	for name, recv := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := RunOn(platform.Vayu(), 2, func(c *Comm) error {
				if c.Rank() == 1 {
					recv(c)
				}
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), "rank 1") {
				t.Fatalf("got %v, want a rank 1 misuse error", err)
			}
		})
	}
}

func TestUserErrorPropagates(t *testing.T) {
	_, err := RunOn(platform.Vayu(), 4, func(c *Comm) error {
		if c.Rank() == 2 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "rank 2") {
		t.Fatalf("got %v", err)
	}
}
