// Command osu runs the OSU MPI micro-benchmarks (bandwidth and latency
// between two compute nodes) on a modelled platform. Platform and
// benchmark accept "all", in which case the sweep's curves run as jobs on
// the internal/sched worker pool — the same -j / result-cache machinery
// as cmd/repro, so a repeated sweep is served from the cache instead of
// re-simulated.
//
// Usage:
//
//	osu -platform vayu|dcc|ec2|all -bench bw|latency|all [-seed N]
//	    [-j N] [-cache DIR] [-trace t.json] [-manifest m.json]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/osu"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/trace"
)

func main() {
	platName := flag.String("platform", "vayu", "platform: vayu, dcc, ec2 or all")
	bench := flag.String("bench", "bw", "benchmark: bw, latency or all")
	seed := flag.Uint64("seed", 0, "jitter seed (repetition index)")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "number of benchmark jobs to run concurrently")
	cacheDir := flag.String("cache", "", "result cache directory (empty: no cache)")
	manifest := flag.String("manifest", "", "write a run-manifest JSON to this file")
	sink := trace.AddFlag()
	flag.Parse()
	start := time.Now()

	platforms, err := expandPlatforms(*platName)
	if err != nil {
		fatal(err)
	}
	benches, err := expandBenches(*bench)
	if err != nil {
		fatal(err)
	}
	cache := openCache(*cacheDir)
	if sink.Active() {
		// Tracing needs live, deterministically ordered runs: one worker,
		// no cache, and no cache keys so the recording always happens.
		*workers = 1
		cache = nil
	}
	reg := obs.NewRegistry()

	var jobs []sched.Job
	var virtual float64
	for _, p := range platforms {
		for _, b := range benches {
			p, b := p, b
			id := fmt.Sprintf("osu-%s-%s", b, p.Name)
			var key *sched.Key
			if !sink.Active() {
				key = &sched.Key{
					Experiment:   "osu-" + b,
					Params:       fmt.Sprintf("platform=%s,sizes=default", p.Name),
					Seed:         *seed,
					ModelVersion: core.ModelVersion,
				}
			}
			jobs = append(jobs, sched.Job{
				ID:  id,
				Key: key,
				Run: func(ctx *sched.Ctx) (map[string][]byte, error) {
					text, err := curve(p, b, osu.Opts{
						Seed: *seed, Tracer: sink.Tracer(2), Metrics: reg,
						Meter: ctx.Meter(),
					})
					if err != nil {
						return nil, err
					}
					return map[string][]byte{id + ".txt": []byte(text)}, nil
				},
			})
		}
	}

	results, runErr := sched.Run(jobs, sched.Options{
		Workers: *workers,
		Cache:   cache,
		Metrics: reg,
	})
	if results == nil {
		fatal(runErr)
	}
	for _, r := range results {
		virtual += r.Virtual
		if r.Status != sched.Done && r.Status != sched.Cached {
			continue
		}
		names := make([]string, 0, len(r.Files))
		for name := range r.Files {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Print(string(r.Files[name]))
		}
	}
	if runErr != nil {
		fatal(runErr)
	}
	if err := sink.Flush(); err != nil {
		fatal(err)
	}
	if err := obs.WriteManifest(*manifest, &obs.Manifest{
		Schema: obs.ManifestSchema, Binary: "osu",
		ModelVersion: core.ModelVersion, Platform: *platName, Seed: *seed,
		Knobs:          map[string]string{"bench": *bench},
		VirtualSeconds: virtual,
		WallSeconds:    time.Since(start).Seconds(),
		Metrics:        reg.Snapshot(true),
	}); err != nil {
		fatal(err)
	}
}

// curve renders one benchmark curve on one platform.
func curve(p *platform.Platform, bench string, o osu.Opts) (string, error) {
	sizes := osu.DefaultSizes()
	var sb strings.Builder
	switch bench {
	case "bw":
		pts, err := osu.BandwidthOpts(p, sizes, o)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "# OSU MPI bandwidth on %s (%s)\n# %10s %14s\n", p.Name, p.Inter.Name, "bytes", "MB/s")
		for _, pt := range pts {
			fmt.Fprintf(&sb, "  %10d %14.2f\n", pt.Bytes, pt.Value)
		}
	case "latency":
		pts, err := osu.LatencyOpts(p, sizes, o)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "# OSU MPI latency on %s (%s)\n# %10s %14s\n", p.Name, p.Inter.Name, "bytes", "us")
		for _, pt := range pts {
			fmt.Fprintf(&sb, "  %10d %14.2f\n", pt.Bytes, pt.Value*1e6)
		}
	default:
		return "", fmt.Errorf("unknown benchmark %q (want bw or latency)", bench)
	}
	return sb.String(), nil
}

func expandPlatforms(name string) ([]*platform.Platform, error) {
	if name == "all" {
		return []*platform.Platform{platform.Vayu(), platform.DCC(), platform.EC2()}, nil
	}
	p, err := platform.ByName(name)
	if err != nil {
		return nil, err
	}
	return []*platform.Platform{p}, nil
}

func expandBenches(name string) ([]string, error) {
	switch name {
	case "all":
		return []string{"bw", "latency"}, nil
	case "bw", "latency":
		return []string{name}, nil
	}
	return nil, fmt.Errorf("unknown benchmark %q (want bw, latency or all)", name)
}

func openCache(dir string) *sched.Cache {
	if dir == "" {
		return nil
	}
	cache, err := sched.OpenCache(dir)
	if err != nil {
		fatal(err)
	}
	return cache
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "osu:", err)
	os.Exit(1)
}
