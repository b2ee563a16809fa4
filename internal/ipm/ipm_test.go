package ipm

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/cpumodel"
	"repro/internal/mpi"
	"repro/internal/platform"
)

// profiled runs fn on np ranks of p with a profiler attached.
func profiled(t *testing.T, p *platform.Platform, np int, fn func(c *mpi.Comm) error) *Profile {
	t.Helper()
	pl, err := cluster.Place(p, cluster.Spec{NP: np})
	if err != nil {
		t.Fatal(err)
	}
	prof := New(np)
	w, err := mpi.NewWorld(p, pl, mpi.WithTracer(prof))
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.Run(fn)
	if err != nil {
		t.Fatal(err)
	}
	return prof.Snapshot(res)
}

func TestCallAggregation(t *testing.T) {
	pr := profiled(t, platform.Vayu(), 4, func(c *mpi.Comm) error {
		for i := 0; i < 3; i++ {
			c.AllreduceN(8)
		}
		c.Barrier()
		return nil
	})
	ar := pr.Calls["Allreduce"]
	if ar.Count != 12 { // 3 calls x 4 ranks
		t.Fatalf("Allreduce count = %d, want 12", ar.Count)
	}
	if ar.Bytes != 12*8 {
		t.Fatalf("Allreduce bytes = %d, want 96", ar.Bytes)
	}
	if pr.Calls["Barrier"].Count != 4 {
		t.Fatalf("Barrier count = %d, want 4", pr.Calls["Barrier"].Count)
	}
	if ar.Time <= 0 {
		t.Fatal("Allreduce time should be positive")
	}
}

func TestCommPercentBounds(t *testing.T) {
	pr := profiled(t, platform.DCC(), 16, func(c *mpi.Comm) error {
		c.Compute(cpumodel.Work{Flops: 1e8})
		for i := 0; i < 20; i++ {
			c.AllreduceN(8)
		}
		return nil
	})
	pc := pr.CommPercent()
	if pc <= 0 || pc >= 100 {
		t.Fatalf("%%comm = %v, want in (0,100)", pc)
	}
}

func TestCommPercentGrowsWithCommunication(t *testing.T) {
	mk := func(collectives int) float64 {
		pr := profiled(t, platform.DCC(), 16, func(c *mpi.Comm) error {
			c.Compute(cpumodel.Work{Flops: 1e8})
			for i := 0; i < collectives; i++ {
				c.AllreduceN(8)
			}
			return nil
		})
		return pr.CommPercent()
	}
	if mk(50) <= mk(5) {
		t.Fatal("more collectives should raise comm percentage")
	}
}

func TestRegionAccounting(t *testing.T) {
	pr := profiled(t, platform.Vayu(), 4, func(c *mpi.Comm) error {
		c.Region("input")
		c.ReadShared(1<<20, 4)
		c.Region("solve")
		c.Compute(cpumodel.Work{Flops: 1e7})
		c.AllreduceN(8)
		c.Region("output")
		c.WriteShared(1<<20, 4)
		return nil
	})
	names := pr.RegionNames()
	joined := strings.Join(names, ",")
	for _, want := range []string{"input", "solve", "output"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("regions = %v, missing %q", names, want)
		}
	}
	comp, comm, io := pr.Region("solve")
	if comp.Sum() <= 0 || comm.Sum() <= 0 {
		t.Fatalf("solve region comp=%v comm=%v, want both positive", comp.Sum(), comm.Sum())
	}
	if io.Sum() != 0 {
		t.Fatalf("solve region should have no I/O, got %v", io.Sum())
	}
	_, _, ioIn := pr.Region("input")
	if ioIn.Sum() <= 0 {
		t.Fatal("input region should show I/O time")
	}
	if pr.RegionCommPercent("solve") <= 0 {
		t.Fatal("solve comm percentage should be positive")
	}
	var allreduces int
	for _, m := range pr.regions {
		allreduces += m["solve"].Calls["Allreduce"].Count
	}
	if allreduces != 4 {
		t.Fatalf("solve Allreduce count = %d, want 4", allreduces)
	}
}

func TestLoadImbalanceDetectsStraggler(t *testing.T) {
	pr := profiled(t, platform.Vayu(), 8, func(c *mpi.Comm) error {
		w := cpumodel.Work{Flops: 1e8}
		if c.Rank() == 0 {
			w = cpumodel.Work{Flops: 4e8}
		}
		c.Compute(w)
		return nil
	})
	if pr.LoadImbalancePercent() < 20 {
		t.Fatalf("imbalance = %v%%, want substantial with a 4x straggler", pr.LoadImbalancePercent())
	}
	balanced := profiled(t, platform.Vayu(), 8, func(c *mpi.Comm) error {
		c.Compute(cpumodel.Work{Flops: 1e8})
		return nil
	})
	if balanced.LoadImbalancePercent() > 10 {
		t.Fatalf("balanced imbalance = %v%%, want small", balanced.LoadImbalancePercent())
	}
}

func TestSizeHistogram(t *testing.T) {
	pr := profiled(t, platform.Vayu(), 2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			c.SendN(1, 0, 4)
			c.SendN(1, 0, 1024)
			c.SendN(1, 0, 1<<20)
		} else {
			c.RecvN(0, 0)
			c.RecvN(0, 0)
			c.RecvN(0, 0)
		}
		return nil
	})
	sizes, counts := pr.SizeHistogram()
	if len(sizes) == 0 {
		t.Fatal("empty histogram")
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 6 { // 3 sends + 3 recvs
		t.Fatalf("histogram total = %d, want 6", total)
	}
	if pr.AvgMessageBytes() <= 0 {
		t.Fatal("average message size should be positive")
	}
}

func TestSizeBucketProperty(t *testing.T) {
	// Every size lands in a bucket whose bound is >= the size and whose
	// previous bound is < the size.
	f := func(raw uint32) bool {
		n := int(raw % (1 << 26))
		b := sizeBucket(n)
		upper := BucketBytes(b)
		if n <= 1 {
			return b == 0
		}
		return upper >= n && BucketBytes(b-1) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccountingIdentity(t *testing.T) {
	// comm + comp + io <= wall per rank (wait time inside calls is part of
	// comm; clocks only move forward).
	pr := profiled(t, platform.EC2(), 16, func(c *mpi.Comm) error {
		c.Region("work")
		c.ReadShared(1<<24, 16)
		for i := 0; i < 10; i++ {
			c.Compute(cpumodel.Work{Flops: 1e7, Bytes: 1e7})
			c.AllreduceN(8)
		}
		return nil
	})
	for r := 0; r < pr.NP; r++ {
		sum := pr.Comm[r] + pr.Comp[r] + pr.IO[r]
		if sum > pr.Wall[r]*(1+1e-9) {
			t.Fatalf("rank %d: comm+comp+io %v > wall %v", r, sum, pr.Wall[r])
		}
	}
	if pr.Time() != pr.Wall.Max() {
		t.Fatal("Time() must be the max rank wall")
	}
}

func TestStringRendering(t *testing.T) {
	pr := profiled(t, platform.Vayu(), 2, func(c *mpi.Comm) error {
		c.AllreduceN(8)
		return nil
	})
	s := pr.String()
	for _, want := range []string{"ranks=2", "Allreduce", "comm="} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestEmptyProfile(t *testing.T) {
	pr := profiled(t, platform.Vayu(), 2, func(c *mpi.Comm) error { return nil })
	if pr.CommPercent() != 0 || pr.IOPercent() != 0 {
		t.Fatal("no activity should give zero percentages")
	}
	if pr.AvgMessageBytes() != 0 {
		t.Fatal("no messages should give zero average size")
	}
}

func TestReportRendering(t *testing.T) {
	pr := profiled(t, platform.DCC(), 8, func(c *mpi.Comm) error {
		c.Region("solve")
		c.ReadShared(1<<20, 8)
		c.Compute(cpumodel.Work{Flops: 1e8})
		c.AllreduceN(8)
		c.SendrecvN((c.Rank()+1)%8, 1, 4096, (c.Rank()-1+8)%8, 1)
		return nil
	})
	var buf strings.Builder
	if err := pr.Report(&buf, "testjob"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"testjob", "tasks: 8", "wallclock", "%comm", "solve",
		"Allreduce", "Sendrecv", "message size histogram"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	pr := profiled(t, platform.Vayu(), 4, func(c *mpi.Comm) error {
		c.Region("phase1")
		c.Compute(cpumodel.Work{Flops: 1e7})
		c.AllreduceN(16)
		return nil
	})
	data, err := json.Marshal(pr)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded["np"].(float64) != 4 {
		t.Fatalf("np = %v", decoded["np"])
	}
	calls, ok := decoded["calls"].(map[string]any)
	if !ok || calls["Allreduce"] == nil {
		t.Fatalf("calls missing: %v", decoded["calls"])
	}
	regions := decoded["regions"].(map[string]any)
	if regions["phase1"] == nil {
		t.Fatalf("regions missing phase1: %v", regions)
	}
}
