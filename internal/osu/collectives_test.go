package osu

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/platform"
)

// The OSU collective latency tests (osu_allreduce, osu_alltoall,
// osu_bcast) and the bidirectional bandwidth test (osu_bibw), run
// against the phantom collectives the NPB, Chaste and MetUM skeletons
// use: the paper's KSp analysis ("entirely 4-byte all-reduce
// operations") rests on these costs.

// collectiveLatency returns the mean virtual seconds per op of n bytes
// on np block-placed ranks, timed at rank 0 over 50 repetitions.
func collectiveLatency(t *testing.T, p *platform.Platform, np, n int, op func(c *mpi.Comm, n int)) float64 {
	t.Helper()
	const iters = 50
	pl, err := cluster.Place(p, cluster.Spec{NP: np})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	if _, err := w.Run(func(c *mpi.Comm) error {
		c.Barrier()
		start := c.Clock()
		for it := 0; it < iters; it++ {
			op(c, n)
		}
		if c.Rank() == 0 {
			mean = (c.Clock() - start) / iters
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return mean
}

func allreduce(c *mpi.Comm, n int) { c.AllreduceN(n) }
func alltoall(c *mpi.Comm, n int)  { c.AlltoallN(n) }
func bcast(c *mpi.Comm, n int)     { c.BcastN(0, n) }

// biBandwidth runs osu_bibw for one message size: both ranks stream
// windows at each other simultaneously; the result is the aggregate
// MB/s.
func biBandwidth(t *testing.T, p *platform.Platform, n int) float64 {
	t.Helper()
	w, err := twoNodeWorld(p, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	var mbps float64
	if _, err := w.Run(func(c *mpi.Comm) error {
		peer := 1 - c.Rank()
		c.Barrier()
		start := c.Clock()
		for it := 0; it < bwIters; it++ {
			reqs := make([]*mpi.Request, 0, 2*bwWindow)
			for i := 0; i < bwWindow; i++ {
				reqs = append(reqs, c.IrecvN(peer, 0))
			}
			for i := 0; i < bwWindow; i++ {
				reqs = append(reqs, c.IsendN(peer, 0, n))
			}
			c.Waitall(reqs...)
		}
		if c.Rank() == 0 {
			total := 2 * float64(bwIters) * bwWindow * float64(n)
			mbps = total / (c.Clock() - start) / (1 << 20)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return mbps
}

func TestAllreduceLatencyGrowsWithRanks(t *testing.T) {
	at := func(np int) float64 { return collectiveLatency(t, platform.DCC(), np, 8, allreduce) }
	l16, l64 := at(16), at(64)
	if l64 <= l16 {
		t.Fatalf("allreduce latency should grow with ranks: 16->%v 64->%v", l16, l64)
	}
}

func TestAllreduceLatencyPlatformOrdering(t *testing.T) {
	// The KSp finding: a tiny allreduce across nodes is far cheaper on
	// InfiniBand.
	lat := func(p *platform.Platform) float64 { return collectiveLatency(t, p, 32, 8, allreduce) }
	v, d, e := lat(platform.Vayu()), lat(platform.DCC()), lat(platform.EC2())
	if !(v < e && e < d) {
		t.Fatalf("ordering violated: vayu=%v ec2=%v dcc=%v", v, e, d)
	}
	if d < 8*v {
		t.Fatalf("DCC/Vayu tiny-allreduce ratio = %v, want large", d/v)
	}
}

func TestAlltoallLatencyGrowsWithSize(t *testing.T) {
	var prev float64
	for _, n := range []int{8, 1024, 1 << 16} {
		l := collectiveLatency(t, platform.EC2(), 16, n, alltoall)
		if l <= prev {
			t.Fatalf("alltoall latency should grow with block size: %d bytes -> %v after %v", n, l, prev)
		}
		prev = l
	}
}

func TestBcastCheaperThanAlltoall(t *testing.T) {
	b := collectiveLatency(t, platform.DCC(), 32, 4096, bcast)
	a := collectiveLatency(t, platform.DCC(), 32, 4096, alltoall)
	if b >= a {
		t.Fatalf("bcast (%v) should be cheaper than alltoall (%v)", b, a)
	}
}

func TestBiBandwidthExceedsUnidirectional(t *testing.T) {
	for _, p := range []*platform.Platform{platform.Vayu(), platform.EC2()} {
		uni, err := Bandwidth(p, []int{1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if bi := biBandwidth(t, p, 1<<20); bi <= uni[0].Value*1.2 {
			t.Fatalf("%s: bidirectional %v should clearly exceed unidirectional %v",
				p.Name, bi, uni[0].Value)
		}
	}
}
