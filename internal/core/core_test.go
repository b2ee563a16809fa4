package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/cpumodel"
	"repro/internal/mpi"
	"repro/internal/platform"
)

func TestExecuteBasic(t *testing.T) {
	out, err := Execute(RunSpec{Platform: platform.Vayu(), NP: 4}, func(c *mpi.Comm) error {
		c.Compute(cpumodel.Work{Flops: 1e9})
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Time() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	if out.Profile == nil || out.Profile.NP != 4 {
		t.Fatal("profile missing or wrong size")
	}
	if out.Profile.Calls["Barrier"].Count != 4 {
		t.Fatalf("barrier count = %d", out.Profile.Calls["Barrier"].Count)
	}
}

func TestExecuteValidation(t *testing.T) {
	if _, err := Execute(RunSpec{NP: 4}, func(c *mpi.Comm) error { return nil }); err == nil {
		t.Fatal("nil platform should fail")
	}
	if _, err := Execute(RunSpec{Platform: platform.DCC(), NP: 1000}, func(c *mpi.Comm) error { return nil }); err == nil {
		t.Fatal("oversized job should fail")
	}
}

func TestExecuteMemoryDrivenNodes(t *testing.T) {
	// 8 ranks of 4 GB on EC2 (20 GB nodes) need 2 nodes; the placement
	// must spread them.
	out, err := Execute(RunSpec{
		Platform: platform.EC2(), NP: 8, MemPerRank: 4 << 30,
	}, func(c *mpi.Comm) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	_ = out
	nodes, err := AutoNodes(RunSpec{Platform: platform.EC2(), NP: 8, MemPerRank: 4 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if nodes < 2 {
		t.Fatalf("auto nodes = %d, want >= 2", nodes)
	}
}

func TestExecuteDeadlockDiagnosed(t *testing.T) {
	_, err := Execute(RunSpec{Platform: platform.Vayu(), NP: 2}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			c.RecvN(1, 0) // never sent
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0 waiting on (src=1, tag=0)") {
		t.Fatalf("got %v, want the deadlock diagnosis", err)
	}
}

func TestSpeedup(t *testing.T) {
	sp, err := Speedup(map[int]float64{8: 100, 16: 50, 32: 30}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if sp[8] != 1 || sp[16] != 2 || math.Abs(sp[32]-100.0/30) > 1e-12 {
		t.Fatalf("speedups = %v", sp)
	}
	if _, err := Speedup(map[int]float64{16: 50}, 8); err == nil {
		t.Fatal("missing base should error")
	}
}

func TestNormalise(t *testing.T) {
	n, err := Normalise(map[string]float64{"dcc": 100, "vayu": 75}, "dcc")
	if err != nil {
		t.Fatal(err)
	}
	if n["dcc"] != 1 || n["vayu"] != 0.75 {
		t.Fatalf("normalised = %v", n)
	}
	if _, err := Normalise(map[string]float64{"vayu": 75}, "dcc"); err == nil {
		t.Fatal("missing reference should error")
	}
}

func TestExplicitNodesRespected(t *testing.T) {
	out, err := Execute(RunSpec{
		Platform: platform.EC2(), NP: 32, Nodes: 4,
	}, func(c *mpi.Comm) error {
		c.Compute(cpumodel.Work{Flops: 1e9})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := Execute(RunSpec{
		Platform: platform.EC2(), NP: 32, Nodes: 2,
	}, func(c *mpi.Comm) error {
		c.Compute(cpumodel.Work{Flops: 1e9})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if packed.Time() <= out.Time() {
		t.Fatalf("2-node packed run (%v) should be slower than 4-node spread (%v)",
			packed.Time(), out.Time())
	}
	_ = cluster.Block
}
