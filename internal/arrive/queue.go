package arrive

import (
	"fmt"
	"sort"
)

// Job is a queued batch job.
type Job struct {
	ID      string
	NP      int     // slots needed
	Runtime float64 // seconds on the HPC cluster
	Submit  float64 // submission time
	// CloudSlowdown is the job's runtime multiplier when burst to the
	// cloud (communication-bound jobs suffer, compute-bound barely do) —
	// typically Predict(cloud).Total / Predict(hpc).Total.
	CloudSlowdown float64
}

// BurstPolicy controls when jobs leave the HPC queue for the cloud.
type BurstPolicy struct {
	Enabled bool
	// MaxSlowdown: only burst jobs whose cloud slowdown is at most this
	// (the ARRIVE-F candidate filter).
	MaxSlowdown float64
	// MinQueueWait: burst only when the job would otherwise wait at least
	// this long (seconds).
	MinQueueWait float64
	// CloudSlots is the burst capacity (0 = unlimited on-demand).
	CloudSlots int
}

// QueueStats summarises a simulation.
type QueueStats struct {
	Jobs        int
	Burst       int     // jobs sent to the cloud
	AvgWait     float64 // mean queue wait over HPC jobs, seconds
	MaxWait     float64
	Makespan    float64
	CloudSecs   float64 // cloud core-seconds consumed (for cost estimates)
	AvgSlowdown float64 // mean of (wait+run)/run over all jobs
}

// interval is one scheduled execution.
type interval struct {
	start, end float64
	slots      int
}

// usageAfter returns the slots of intervals still running strictly after t.
func usageAfter(iv []interval, t float64) int {
	used := 0
	for _, r := range iv {
		if r.end > t && r.start <= t {
			used += r.slots
		}
	}
	return used
}

// SimulateQueue runs a strict-FCFS (no backfill) list scheduler over the
// jobs on an HPC cluster with hpcSlots cores, optionally bursting eligible
// jobs to the cloud at their submit time. It reproduces the
// motivation-section claim that profile-guided bursting "improves the
// average job waiting times" substantially once the HPC queue saturates.
//
// SimulateQueue is deliberately kept as the small-N oracle for
// internal/facility: its quadratic interval walk is an independent,
// obviously-correct implementation of FCFS list scheduling, and the
// facility cross-validation test requires that an event-driven facility
// run with backfill, fairshare, broker and spot all disabled reproduces
// these stats bit-for-bit (the test's OracleStats folds outcomes back
// into QueueStats using this function's exact accumulation order).
func SimulateQueue(jobs []Job, hpcSlots int, policy BurstPolicy) (QueueStats, error) {
	if hpcSlots <= 0 {
		return QueueStats{}, fmt.Errorf("arrive: need positive cluster capacity")
	}
	ordered := append([]Job(nil), jobs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Submit < ordered[j].Submit })

	var hpc, cloud []interval
	var stats QueueStats
	prevStart := 0.0 // strict FCFS: starts never go backwards

	for _, j := range ordered {
		if j.NP > hpcSlots {
			return QueueStats{}, fmt.Errorf("arrive: job %s needs %d slots, cluster has %d", j.ID, j.NP, hpcSlots)
		}
		// Earliest feasible HPC start: walk the candidate times (submit,
		// previous start, ends of running jobs) until NP slots are free.
		start := j.Submit
		if prevStart > start {
			start = prevStart
		}
		ends := make([]float64, 0, len(hpc))
		for _, r := range hpc {
			if r.end > start {
				ends = append(ends, r.end)
			}
		}
		sort.Float64s(ends)
		for hpcSlots-usageAfter(hpc, start) < j.NP {
			if len(ends) == 0 {
				return QueueStats{}, fmt.Errorf("arrive: internal scheduling inconsistency for %s", j.ID)
			}
			start = ends[0]
			ends = ends[1:]
		}
		wait := start - j.Submit

		// Burst decision, evaluated with cloud occupancy at submit time.
		if policy.Enabled && j.CloudSlowdown > 0 &&
			j.CloudSlowdown <= policy.MaxSlowdown && wait >= policy.MinQueueWait &&
			(policy.CloudSlots == 0 || usageAfter(cloud, j.Submit)+j.NP <= policy.CloudSlots) {
			run := j.Runtime * j.CloudSlowdown
			cloud = append(cloud, interval{start: j.Submit, end: j.Submit + run, slots: j.NP})
			stats.Burst++
			stats.CloudSecs += run * float64(j.NP)
			stats.AvgSlowdown += run / j.Runtime
			if end := j.Submit + run; end > stats.Makespan {
				stats.Makespan = end
			}
			stats.Jobs++
			continue
		}

		hpc = append(hpc, interval{start: start, end: start + j.Runtime, slots: j.NP})
		prevStart = start
		stats.AvgWait += wait
		if wait > stats.MaxWait {
			stats.MaxWait = wait
		}
		stats.AvgSlowdown += (wait + j.Runtime) / j.Runtime
		if end := start + j.Runtime; end > stats.Makespan {
			stats.Makespan = end
		}
		stats.Jobs++
	}
	if n := stats.Jobs - stats.Burst; n > 0 {
		stats.AvgWait /= float64(n)
	}
	if stats.Jobs > 0 {
		stats.AvgSlowdown /= float64(stats.Jobs)
	}
	return stats, nil
}
