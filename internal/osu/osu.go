// Package osu implements the OSU MPI micro-benchmarks used in Figures 1
// and 2 of the paper: sustained point-to-point bandwidth (windowed
// nonblocking sends) and ping-pong latency between two compute nodes.
package osu

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/sim"
)

// Opts carries the optional knobs of a benchmark run. The zero value is
// the seed-0 run with no observability attached.
type Opts struct {
	Seed uint64
	// Tracer, when set, observes every event of the 2-rank world (e.g. a
	// trace.Recorder exporting a Chrome timeline).
	Tracer mpi.Tracer
	// Metrics, when set, receives the mpi runtime's counters.
	Metrics *obs.Registry
	// Meter, when set, accumulates the run's virtual wall time.
	Meter *sim.Meter
}

// Point is one benchmark sample.
type Point struct {
	Bytes int
	Value float64 // MB/s for bandwidth, seconds for latency
}

// DefaultSizes returns the message sizes of the OSU curves: powers of two
// from 1 byte to 4 MB.
func DefaultSizes() []int {
	var sizes []int
	for n := 1; n <= 4<<20; n <<= 1 {
		sizes = append(sizes, n)
	}
	return sizes
}

const (
	bwWindow = 64 // outstanding sends per window (osu_bw default)
	bwIters  = 20
	latIters = 100
)

// twoNodeWorld builds a 2-rank world with one rank per node, the OSU
// configuration ("between two compute nodes").
func twoNodeWorld(p *platform.Platform, o Opts) (*mpi.World, error) {
	pl, err := cluster.Place(p, cluster.Spec{NP: 2, Nodes: 2, Policy: cluster.Spread})
	if err != nil {
		return nil, fmt.Errorf("osu: %w", err)
	}
	wopts := []mpi.Option{mpi.WithSeed(o.Seed)}
	if o.Tracer != nil {
		wopts = append(wopts, mpi.WithTracer(o.Tracer))
	}
	if o.Metrics != nil {
		wopts = append(wopts, mpi.WithMetrics(o.Metrics))
	}
	return mpi.NewWorld(p, pl, wopts...)
}

// Bandwidth runs the osu_bw benchmark on p for the given message sizes and
// returns one point per size in MB/s.
func Bandwidth(p *platform.Platform, sizes []int) ([]Point, error) {
	return BandwidthSeeded(p, sizes, 0)
}

// BandwidthSeeded is Bandwidth with an explicit jitter seed (repetition
// index).
func BandwidthSeeded(p *platform.Platform, sizes []int, seed uint64) ([]Point, error) {
	return BandwidthOpts(p, sizes, Opts{Seed: seed})
}

// BandwidthOpts is Bandwidth with full observability knobs.
func BandwidthOpts(p *platform.Platform, sizes []int, o Opts) ([]Point, error) {
	w, err := twoNodeWorld(p, o)
	if err != nil {
		return nil, err
	}
	results := make([]float64, len(sizes))
	res, err := w.Run(func(c *mpi.Comm) error {
		for si, n := range sizes {
			if c.Rank() == 0 {
				start := c.Clock()
				for it := 0; it < bwIters; it++ {
					reqs := make([]*mpi.Request, bwWindow)
					for i := range reqs {
						reqs[i] = c.IsendN(1, si, n)
					}
					c.Waitall(reqs...)
					c.RecvN(1, si) // window acknowledgement
				}
				elapsed := c.Clock() - start
				total := float64(bwIters) * bwWindow * float64(n)
				results[si] = total / elapsed / (1 << 20)
			} else {
				for it := 0; it < bwIters; it++ {
					reqs := make([]*mpi.Request, bwWindow)
					for i := range reqs {
						reqs[i] = c.IrecvN(0, si)
					}
					c.Waitall(reqs...)
					c.SendN(0, si, 4)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	w.Release()
	o.Meter.Add(res.Time)
	points := make([]Point, len(sizes))
	for i, n := range sizes {
		points[i] = Point{Bytes: n, Value: results[i]}
	}
	return points, nil
}

// Latency runs the osu_latency ping-pong benchmark on p and returns the
// one-way latency in seconds per message size.
func Latency(p *platform.Platform, sizes []int) ([]Point, error) {
	return LatencySeeded(p, sizes, 0)
}

// LatencySeeded is Latency with an explicit jitter seed.
func LatencySeeded(p *platform.Platform, sizes []int, seed uint64) ([]Point, error) {
	return LatencyOpts(p, sizes, Opts{Seed: seed})
}

// LatencyOpts is Latency with full observability knobs.
func LatencyOpts(p *platform.Platform, sizes []int, o Opts) ([]Point, error) {
	w, err := twoNodeWorld(p, o)
	if err != nil {
		return nil, err
	}
	results := make([]float64, len(sizes))
	res, err := w.Run(func(c *mpi.Comm) error {
		for si, n := range sizes {
			if c.Rank() == 0 {
				start := c.Clock()
				for it := 0; it < latIters; it++ {
					c.SendN(1, si, n)
					c.RecvN(1, si)
				}
				elapsed := c.Clock() - start
				results[si] = elapsed / (2 * latIters)
			} else {
				for it := 0; it < latIters; it++ {
					c.RecvN(0, si)
					c.SendN(0, si, n)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	w.Release()
	o.Meter.Add(res.Time)
	points := make([]Point, len(sizes))
	for i, n := range sizes {
		points[i] = Point{Bytes: n, Value: results[i]}
	}
	return points, nil
}
