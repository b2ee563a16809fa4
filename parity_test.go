package repro

import (
	"errors"
	"fmt"
	"math"
	"runtime"
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

// Schedule parity suite: every workload family runs under two Go
// scheduler configurations — the default GOMAXPROCS, where rank
// goroutines really run in parallel, and GOMAXPROCS(1), where they
// interleave on one thread — and must produce bit-identical virtual
// results: rank clocks, IPM accounting, benchmark points, artefact
// bytes. Any divergence means the real-time interleaving of ranks leaked
// into what the simulation computes. The committed artefact bytes
// (internal/experiments' golden tests) are the independent oracle.

// schedules lists the GOMAXPROCS settings every parity test sweeps;
// procs 0 keeps the process default.
var schedules = []struct {
	name  string
	procs int
}{
	{"default", 0},
	{"procs1", 1},
}

// eachSchedule calls fn once under every schedule, with GOMAXPROCS set
// for the call. The process setting is restored on return and, should
// fn fail the test, by its cleanup.
func eachSchedule(t *testing.T, fn func(sched string)) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	for _, s := range schedules {
		procs := prev
		if s.procs > 0 {
			procs = s.procs
		}
		runtime.GOMAXPROCS(procs)
		fn(s.name)
	}
	runtime.GOMAXPROCS(prev)
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
			eachSchedule(t, func(sched string) {
				out, err := core.Execute(core.RunSpec{Platform: platform.Vayu(), NP: np},
					func(c *mpi.Comm) error { return fn(c, class) })
				if err != nil {
					t.Fatalf("%s.%s.%d under %s: %v", kernel, class, np, sched, err)
				}
				if ref == nil {
					ref = out
					return
				}
				sameOutcome(t, fmt.Sprintf("%s.%s.%d %s", kernel, class, np, sched), ref, out)
			})
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
			eachSchedule(t, func(sched string) {
				var pts []osu.Point
				var err error
				if bench == "bw" {
					pts, err = osu.BandwidthOpts(p, sizes, osu.Opts{})
				} else {
					pts, err = osu.LatencyOpts(p, sizes, osu.Opts{})
				}
				if err != nil {
					t.Fatalf("osu %s on %s under %s: %v", bench, p.Name, sched, err)
				}
				if ref == nil {
					ref = pts
					return
				}
				for i := range ref {
					if math.Float64bits(ref[i].Value) != math.Float64bits(pts[i].Value) {
						t.Fatalf("osu %s on %s under %s at %d bytes: %v vs %v",
							bench, p.Name, sched, ref[i].Bytes, ref[i].Value, pts[i].Value)
					}
				}
			})
		}
	}
}

// TestParityMetUMResilient cross-validates the MetUM proxy under a
// firing fault plan with checkpoint/restart: the whole fault plane —
// kills, scoreboard aborts, incarnation worlds — must behave identically
// under both schedules.
func TestParityMetUMResilient(t *testing.T) {
	np := 16
	plan, err := fault.Generate(fault.Spec{MTBF: 150, Horizon: 2000}, "ec2", "parity", np, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	var ref *core.Outcome
	eachSchedule(t, func(sched string) {
		out, err := core.Execute(core.RunSpec{
			Platform: platform.EC2(), NP: np, Faults: plan, Resilient: true,
		}, metumSmokeJob())
		if err != nil {
			t.Fatalf("metum resilient under %s: %v", sched, err)
		}
		if out.Resilience == nil || out.Resilience.Restarts == 0 {
			t.Fatalf("metum resilient under %s: plan did not fire (stats %+v)", sched, out.Resilience)
		}
		if ref == nil {
			ref = out
			return
		}
		sameOutcome(t, "metum resilient "+sched, ref, out)
		if fmt.Sprintf("%+v", ref.Resilience) != fmt.Sprintf("%+v", out.Resilience) {
			t.Fatalf("metum resilient %s: stats %+v vs %+v", sched, ref.Resilience, out.Resilience)
		}
	})
}

// TestParityFaultFailFast cross-validates the non-resilient fault path:
// a plan that kills a rank must fail the run with the same RankFailedError
// under both schedules.
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
	eachSchedule(t, func(sched string) {
		_, err := core.Execute(core.RunSpec{Platform: platform.DCC(), NP: np, Faults: plan},
			func(c *mpi.Comm) error { return fn(c, npb.ClassA) })
		var rf *mpi.RankFailedError
		if !errors.As(err, &rf) {
			t.Fatalf("under %s: want RankFailedError, got %v", sched, err)
		}
		if ref == nil {
			ref = rf
			return
		}
		if ref.Rank != rf.Rank || ref.Node != rf.Node ||
			math.Float64bits(ref.At) != math.Float64bits(rf.At) {
			t.Fatalf("under %s: failure %+v vs reference %+v", sched, rf, ref)
		}
	})
}

// TestParityArtefactBytes regenerates smoke-sweep artefacts under both
// schedules and compares the generated bytes — the figure/table/manifest
// files users actually consume.
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
		eachSchedule(t, func(sched string) {
			files, err := a.Gen(&experiments.Ctx{Sweep: experiments.SweepSmoke})
			if err != nil {
				t.Fatalf("artefact %s under %s: %v", a.ID, sched, err)
			}
			if ref == nil {
				ref = files
				return
			}
			if len(files) != len(ref) {
				t.Fatalf("artefact %s under %s: %d files vs %d", a.ID, sched, len(files), len(ref))
			}
			for name, data := range files {
				if string(data) != string(ref[name]) {
					t.Fatalf("artefact %s under %s: %s diverged from the reference bytes",
						a.ID, sched, name)
				}
			}
		})
	}
}

// TestParityFacility cross-validates the batch facility's job-execution
// leg: broker calibration is built from real core.Execute reference runs,
// so the calibrated factors — and every facility decision downstream of
// them — must be bit-identical under either schedule.
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
	eachSchedule(t, func(sched string) {
		broker, err := facility.CalibrateBroker(facility.CalibrateOpts{})
		if err != nil {
			t.Fatalf("calibration under %s: %v", sched, err)
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
			t.Fatalf("facility under %s: %v", sched, err)
		}
		digest := facility.Digest(res)
		if refDigest == "" {
			refBroker, refDigest = broker, digest
			return
		}
		if digest != refDigest {
			t.Fatalf("facility digest under %s diverged from the reference schedule's", sched)
		}
		for _, class := range facility.CalibratedClasses() {
			a, b := refBroker.Factors[class], broker.Factors[class]
			for p := range a {
				if math.Float64bits(a[p]) != math.Float64bits(b[p]) {
					t.Fatalf("class %s factor on %s under %s: %v vs reference %v",
						class, facility.Pool(p), sched, b[p], a[p])
				}
			}
		}
	})
}

// TestDeadlockDiagnosis checks that a deadlocked world is detected the
// moment it quiesces, under either schedule, and reports the same
// diagnosis — the blocked ranks and the (src, tag) each waits on — with
// no wall-clock watchdog involved.
func TestDeadlockDiagnosis(t *testing.T) {
	const want = "mpi: deadlock: 2 rank(s) blocked with no runnable peer:" +
		" rank 0 waiting on (src=3, tag=99) rank 2 waiting on (src=1, tag=5)"
	eachSchedule(t, func(sched string) {
		start := time.Now()
		_, err := mpi.RunOn(platform.Vayu(), 4, func(c *mpi.Comm) error {
			switch c.Rank() {
			case 0:
				c.RecvN(3, 99) // rank 3 never sends: deadlock once 1 and 3 exit
			case 2:
				c.Recv(1, 5, make([]float64, 1))
			}
			return nil
		})
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("%s: diagnosis took %v", sched, elapsed)
		}
		if err == nil || err.Error() != want {
			t.Fatalf("%s: got %v, want %q", sched, err, want)
		}
	})
}

// TestClassB16kRanks is the scale acceptance check: a 16384-rank class-B
// EP skeleton world — beyond any stock platform's slot count — completes
// in ordinary test time. The instrumented run scales down to 2048 ranks.
func TestClassB16kRanks(t *testing.T) {
	np := 16384
	if raceEnabled {
		np = 2048
	}
	fn, err := suite.Skeleton("ep")
	if err != nil {
		t.Fatal(err)
	}
	p := platform.Scaled(platform.Vayu(), np)
	out, err := core.Execute(core.RunSpec{Platform: p, NP: np},
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
