package repro

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/apps/metum"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/facility"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/suite"
	"repro/internal/osu"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Oracle parity suite: the goroutine runtime is the correctness oracle
// for the PDES engine. Every workload family runs under three engine
// configurations — goroutine, PDES at the default worker count, and PDES
// serialised to one worker — and must produce bit-identical virtual
// results: rank clocks, IPM accounting, benchmark points, artefact
// bytes. Any divergence means the event engine changed what the
// simulation computes, not just how fast it computes it.

// engines lists the configurations every parity test sweeps.
var engines = []struct {
	name    string
	rt      mpi.Runtime
	workers int
}{
	{"goroutine", mpi.Goroutine, 0},
	{"pdes", mpi.PDES, 0},
	{"pdes-w1", mpi.PDES, 1},
}

// sameSeries fails the test unless a and b are bit-identical.
func sameSeries(t *testing.T, label string, a, b sim.Series) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: rank %d: %v vs %v", label, i, a[i], b[i])
		}
	}
}

// sameOutcome fails the test unless both outcomes carry bit-identical
// virtual results and IPM profiles.
func sameOutcome(t *testing.T, label string, ref, got *core.Outcome) {
	t.Helper()
	if math.Float64bits(ref.Time()) != math.Float64bits(got.Time()) {
		t.Fatalf("%s: walltime %v vs %v", label, ref.Time(), got.Time())
	}
	sameSeries(t, label+": rank clocks", ref.Result.RankTimes, got.Result.RankTimes)
	sameSeries(t, label+": comm", ref.Result.CommTimes, got.Result.CommTimes)
	sameSeries(t, label+": compute", ref.Result.ComputeTimes, got.Result.ComputeTimes)
	sameSeries(t, label+": io", ref.Result.IOTimes, got.Result.IOTimes)
	sameSeries(t, label+": ipm wait", ref.Profile.Wait, got.Profile.Wait)
	sameSeries(t, label+": ipm queued", ref.Profile.Queued, got.Profile.Queued)
	if r, g := ref.Profile.String(), got.Profile.String(); r != g {
		t.Fatalf("%s: IPM profile rendering diverged:\n--- oracle ---\n%s\n--- got ---\n%s", label, r, g)
	}
}

// parityNPs returns the rank counts the suite cross-validates at. The
// race detector multiplies simulation cost; the instrumented run keeps
// the shape with the 64-rank point dropped.
func parityNPs() []int {
	if raceEnabled {
		return []int{4, 16}
	}
	return []int{4, 16, 64}
}

// TestParityNPBSkeletons cross-validates every NPB kernel skeleton.
func TestParityNPBSkeletons(t *testing.T) {
	class := npb.ClassA
	for _, kernel := range npb.Names() {
		fn, err := suite.Skeleton(kernel)
		if err != nil {
			t.Fatal(err)
		}
		for _, np := range parityNPs() {
			if !npb.ValidProcs(kernel, np) {
				continue
			}
			var ref *core.Outcome
			for _, eng := range engines {
				out, err := core.Execute(core.RunSpec{
					Platform: platform.Vayu(), NP: np,
					Runtime: eng.rt, EngineWorkers: eng.workers,
				}, func(c *mpi.Comm) error { return fn(c, class) })
				if err != nil {
					t.Fatalf("%s.%s.%d under %s: %v", kernel, class, np, eng.name, err)
				}
				if ref == nil {
					ref = out
					continue
				}
				sameOutcome(t, fmt.Sprintf("%s.%s.%d %s", kernel, class, np, eng.name), ref, out)
			}
		}
	}
}

// TestParityOSU cross-validates the OSU microbenchmark curves on all
// three platforms.
func TestParityOSU(t *testing.T) {
	sizes := []int{1, 4096, 1 << 16}
	for _, p := range platform.All() {
		for _, bench := range []string{"bw", "latency"} {
			var ref []osu.Point
			for _, eng := range engines {
				if eng.rt == mpi.PDES && eng.workers == 1 {
					continue // 2-rank worlds: pdes default already covers w=1 vs w=n
				}
				o := osu.Opts{Runtime: eng.rt}
				var pts []osu.Point
				var err error
				if bench == "bw" {
					pts, err = osu.BandwidthOpts(p, sizes, o)
				} else {
					pts, err = osu.LatencyOpts(p, sizes, o)
				}
				if err != nil {
					t.Fatalf("osu %s on %s under %s: %v", bench, p.Name, eng.name, err)
				}
				if ref == nil {
					ref = pts
					continue
				}
				for i := range ref {
					if math.Float64bits(ref[i].Value) != math.Float64bits(pts[i].Value) {
						t.Fatalf("osu %s on %s under %s at %d bytes: %v vs %v",
							bench, p.Name, eng.name, ref[i].Bytes, ref[i].Value, pts[i].Value)
					}
				}
			}
		}
	}
}

// TestParityMetUMResilient cross-validates the MetUM proxy under a
// firing fault plan with checkpoint/restart: the whole fault plane —
// kills, scoreboard aborts, incarnation worlds — must behave identically
// on both engines.
func TestParityMetUMResilient(t *testing.T) {
	np := 16
	plan, err := fault.Generate(fault.Spec{MTBF: 150, Horizon: 2000}, "ec2", "parity", np, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	var ref *core.Outcome
	for _, eng := range engines {
		out, err := core.Execute(core.RunSpec{
			Platform: platform.EC2(), NP: np,
			Runtime: eng.rt, EngineWorkers: eng.workers,
			Faults: plan, Resilient: true,
		}, metumSmokeJob())
		if err != nil {
			t.Fatalf("metum resilient under %s: %v", eng.name, err)
		}
		if out.Resilience == nil || out.Resilience.Restarts == 0 {
			t.Fatalf("metum resilient under %s: plan did not fire (stats %+v)", eng.name, out.Resilience)
		}
		if ref == nil {
			ref = out
			continue
		}
		sameOutcome(t, "metum resilient "+eng.name, ref, out)
		if fmt.Sprintf("%+v", ref.Resilience) != fmt.Sprintf("%+v", out.Resilience) {
			t.Fatalf("metum resilient %s: stats %+v vs %+v", eng.name, ref.Resilience, out.Resilience)
		}
	}
}

// TestParityFaultFailFast cross-validates the non-resilient fault path:
// a plan that kills a rank must fail the run with the same RankFailedError
// on both engines.
func TestParityFaultFailFast(t *testing.T) {
	np := 16
	fn, err := suite.Skeleton("cg")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.Generate(fault.Spec{MTBF: 0.02, Horizon: 10}, "dcc", "parity-kill", np, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	var ref *mpi.RankFailedError
	for _, eng := range engines {
		_, err := core.Execute(core.RunSpec{
			Platform: platform.DCC(), NP: np,
			Runtime: eng.rt, EngineWorkers: eng.workers, Faults: plan,
		}, func(c *mpi.Comm) error { return fn(c, npb.ClassA) })
		var rf *mpi.RankFailedError
		if !errors.As(err, &rf) {
			t.Fatalf("under %s: want RankFailedError, got %v", eng.name, err)
		}
		if ref == nil {
			ref = rf
			continue
		}
		if ref.Rank != rf.Rank || ref.Node != rf.Node ||
			math.Float64bits(ref.At) != math.Float64bits(rf.At) {
			t.Fatalf("under %s: failure %+v vs oracle %+v", eng.name, rf, ref)
		}
	}
}

// TestParityArtefactBytes regenerates smoke-sweep artefacts under both
// engines and compares the generated bytes — the figure/table/manifest
// files users actually consume. pdes1 is included: at the smoke sweep its
// rank counts are small enough for the goroutine oracle to replay the
// PDES engine's own scaling artefact.
func TestParityArtefactBytes(t *testing.T) {
	ids := []string{"fig4", "table2", "pdes1", "fac1", "fac2"}
	if raceEnabled {
		ids = []string{"fig4", "pdes1", "fac1", "fac2"}
	}
	arts, err := experiments.Select(ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arts {
		var ref map[string][]byte
		for _, eng := range engines {
			x := &experiments.Ctx{Sweep: experiments.SweepSmoke, Runtime: eng.rt}
			files, err := a.Gen(x)
			if err != nil {
				t.Fatalf("artefact %s under %s: %v", a.ID, eng.name, err)
			}
			if ref == nil {
				ref = files
				continue
			}
			if len(files) != len(ref) {
				t.Fatalf("artefact %s under %s: %d files vs %d", a.ID, eng.name, len(files), len(ref))
			}
			for name, data := range files {
				if string(data) != string(ref[name]) {
					t.Fatalf("artefact %s under %s: %s diverged from the oracle's bytes",
						a.ID, eng.name, name)
				}
			}
		}
	}
}

// TestParityFacility cross-validates the batch facility's job-execution
// leg: broker calibration is built from real core.Execute reference runs,
// so the calibrated factors — and every facility decision downstream of
// them — must be bit-identical whichever engine performed those runs.
// (The heap-vs-sort scheduler comparison of the same calibrated schedule
// is internal/facility's TestSchedParityCalibratedBroker.)
func TestParityFacility(t *testing.T) {
	jobs, err := facility.Generate(facility.WorkloadSpec{
		Seed: 7, Jobs: 120, Tenants: 15, Slots: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	var refBroker *facility.Broker
	var refDigest string
	for _, eng := range engines {
		broker, err := facility.CalibrateBroker(facility.CalibrateOpts{
			Runtime: eng.rt, EngineWorkers: eng.workers,
		})
		if err != nil {
			t.Fatalf("calibration under %s: %v", eng.name, err)
		}
		f, err := facility.New(facility.Config{
			Slots:     [facility.NumPools]int{64, 32, 32},
			Backfill:  true,
			Fairshare: true,
			Broker:    broker,
			Prices:    [facility.NumPools]float64{0, 0.34, 0.68},
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(jobs)
		if err != nil {
			t.Fatalf("facility under %s: %v", eng.name, err)
		}
		digest := facility.Digest(res)
		if refDigest == "" {
			refBroker, refDigest = broker, digest
			continue
		}
		if digest != refDigest {
			t.Fatalf("facility digest under %s diverged from the reference engine's schedule", eng.name)
		}
		for _, class := range facility.CalibratedClasses() {
			a, b := refBroker.Factors[class], broker.Factors[class]
			for p := range a {
				if math.Float64bits(a[p]) != math.Float64bits(b[p]) {
					t.Fatalf("class %s factor on %s under %s: %v vs reference %v",
						class, facility.Pool(p), eng.name, b[p], a[p])
				}
			}
		}
	}
}

// TestDeadlockDiagnosis checks that every engine detects a deadlocked
// world the moment it quiesces and reports the same diagnosis — the
// blocked ranks and the (src, tag) each waits on — with no wall-clock
// watchdog involved.
func TestDeadlockDiagnosis(t *testing.T) {
	const want = "mpi: deadlock: 2 rank(s) blocked with no runnable peer:" +
		" rank 0 waiting on (src=3, tag=99) rank 2 waiting on (src=1, tag=5)"
	for _, eng := range engines {
		start := time.Now()
		_, err := mpi.RunOn(platform.Vayu(), 4, func(c *mpi.Comm) error {
			switch c.Rank() {
			case 0:
				c.RecvN(3, 99) // rank 3 never sends: deadlock once 1 and 3 exit
			case 2:
				c.Recv(1, 5, make([]float64, 1))
			}
			return nil
		}, mpi.WithRuntime(eng.rt), mpi.WithEngineWorkers(eng.workers))
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("%s: diagnosis took %v", eng.name, elapsed)
		}
		if err == nil || err.Error() != want {
			t.Fatalf("%s: got %v, want %q", eng.name, err, want)
		}
	}
}

// TestPDESClassB16kRanks is the scale acceptance check: the PDES engine
// completes a 16384-rank class-B EP skeleton world — beyond any stock
// platform's slot count — in ordinary test time. The instrumented run
// scales down but stays above the oracle's practical range.
func TestPDESClassB16kRanks(t *testing.T) {
	np := 16384
	if raceEnabled {
		np = 2048
	}
	fn, err := suite.Skeleton("ep")
	if err != nil {
		t.Fatal(err)
	}
	p := platform.Scaled(platform.Vayu(), np)
	out, err := core.Execute(core.RunSpec{Platform: p, NP: np, Runtime: mpi.PDES},
		func(c *mpi.Comm) error { return fn(c, npb.ClassB) })
	if err != nil {
		t.Fatal(err)
	}
	if out.Time() <= 0 {
		t.Fatalf("walltime %v", out.Time())
	}
	if got := len(out.Result.RankTimes); got != np {
		t.Fatalf("ranks %d, want %d", got, np)
	}
}

// metumSmokeJob returns a short, checkpointing MetUM run suitable for
// repeated parity execution (the smoke-sweep configuration).
func metumSmokeJob() func(c *mpi.Comm) error {
	cfg := metum.Default()
	cfg.Steps = 6
	cfg.HaloSwapsPerStep = 20
	cfg.SolverItersPerStep = 15
	cfg.CheckpointEvery = 2
	return func(c *mpi.Comm) error {
		_, err := metum.Run(c, cfg)
		return err
	}
}
