package facility

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/arrive"
)

// TestOracleCrossValidation pins the facility's FCFS core to the
// independent small-N oracle: with backfill, fairshare, broker and spot
// all disabled, an event-driven facility run must reproduce
// arrive.SimulateQueue's stats bit-for-bit — same floats, not just
// close ones. OracleStats folds outcomes using the oracle's exact
// accumulation order, so any divergence is a scheduling difference, not
// a summation-order artefact.
func TestOracleCrossValidation(t *testing.T) {
	const slots = 32
	for seed := uint64(0); seed < 12; seed++ {
		jobs := genJobs(t, seed, 80, 9, slots)
		for i := range jobs {
			jobs[i].Limit = 0 // oracle has no wall limits; 0 = exactly Runtime
		}

		f, err := New(Config{Slots: [NumPools]int{slots}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Run(jobs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := OracleStats(res.Outcomes)

		oj := make([]arrive.Job, len(jobs))
		for i, j := range jobs {
			oj[i] = arrive.Job{ID: fmt.Sprint(i), NP: j.NP, Runtime: j.Runtime, Submit: j.Submit}
		}
		want, err := arrive.SimulateQueue(oj, slots, arrive.BurstPolicy{})
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}

		if got.Jobs != want.Jobs || got.Burst != want.Burst {
			t.Fatalf("seed %d: counts %d/%d vs %d/%d", seed, got.Jobs, got.Burst, want.Jobs, want.Burst)
		}
		bitEq := func(label string, a, b float64) {
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("seed %d: %s diverged from the oracle: %v (%016x) vs %v (%016x)",
					seed, label, a, math.Float64bits(a), b, math.Float64bits(b))
			}
		}
		bitEq("AvgWait", got.AvgWait, want.AvgWait)
		bitEq("MaxWait", got.MaxWait, want.MaxWait)
		bitEq("Makespan", got.Makespan, want.Makespan)
		bitEq("AvgSlowdown", got.AvgSlowdown, want.AvgSlowdown)
		bitEq("CloudSecs", got.CloudSecs, want.CloudSecs)
	}
}

// TestOracleCrossValidationSimultaneousSubmits stresses the tie-break
// convention: equal submit times must resolve by submission order in
// both implementations (the oracle's stable sort, the facility's event
// sequence numbers).
func TestOracleCrossValidationSimultaneousSubmits(t *testing.T) {
	const slots = 8
	jobs := []Job{
		{Tenant: "a", NP: 8, Runtime: 100, Submit: 0},
		{Tenant: "b", NP: 4, Runtime: 50, Submit: 100}, // arrives exactly when slots free
		{Tenant: "c", NP: 4, Runtime: 25, Submit: 100},
		{Tenant: "d", NP: 8, Runtime: 10, Submit: 100},
		{Tenant: "e", NP: 2, Runtime: 75, Submit: 125},
	}
	f, err := New(Config{Slots: [NumPools]int{slots}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	got := OracleStats(res.Outcomes)

	oj := make([]arrive.Job, len(jobs))
	for i, j := range jobs {
		oj[i] = arrive.Job{ID: fmt.Sprint(i), NP: j.NP, Runtime: j.Runtime, Submit: j.Submit}
	}
	want, err := arrive.SimulateQueue(oj, slots, arrive.BurstPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.AvgWait) != math.Float64bits(want.AvgWait) ||
		math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) {
		t.Fatalf("tie-break divergence: got %+v want %+v", got, want)
	}
	// The t=100 completion must be processed before the t=100 arrivals:
	// b and c start immediately.
	if res.Outcomes[1].Wait != 0 || res.Outcomes[2].Wait != 0 {
		t.Fatalf("same-time reuse failed: waits %g, %g", res.Outcomes[1].Wait, res.Outcomes[2].Wait)
	}
}

// OracleStats folds facility outcomes back into arrive.QueueStats using
// the oracle's exact accumulation order — stable-sort by submit time,
// sum waits and slowdowns in that order, divide once at the end — so the
// cross-validation tests can require bit-for-bit equality with
// arrive.SimulateQueue (the strict-FCFS small-N oracle) on a facility
// run with backfill, fairshare, broker and spot all disabled.
func OracleStats(outcomes []Outcome) arrive.QueueStats {
	ordered := append([]Outcome(nil), outcomes...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Submit < ordered[j].Submit })
	var stats arrive.QueueStats
	for _, o := range ordered {
		stats.AvgWait += o.Wait
		if o.Wait > stats.MaxWait {
			stats.MaxWait = o.Wait
		}
		stats.AvgSlowdown += (o.Wait + o.Runtime) / o.Runtime
		if o.End > stats.Makespan {
			stats.Makespan = o.End
		}
		stats.Jobs++
	}
	if n := stats.Jobs - stats.Burst; n > 0 {
		stats.AvgWait /= float64(n)
	}
	if stats.Jobs > 0 {
		stats.AvgSlowdown /= float64(stats.Jobs)
	}
	return stats
}
