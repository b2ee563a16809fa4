package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/apps/chaste"
	"repro/internal/apps/metum"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/ipm"
	"repro/internal/mpi"
	"repro/internal/npb"
	"repro/internal/npb/suite"
	"repro/internal/obs"
	"repro/internal/platform"
)

// stats is one operation's simulated statistics: the values checked
// against the reference. Every field is a pure function of (code, seed),
// so comparisons are exact.
type stats struct {
	VirtualS float64 `json:"virtual_s,omitempty"`
	CommPct  float64 `json:"comm_pct,omitempty"`
	AppS     float64 `json:"app_s,omitempty"`
	Msgs     int64   `json:"msgs,omitempty"`
	Bytes    int64   `json:"bytes,omitempty"`
	WaitNS   int64   `json:"recv_wait_ns,omitempty"`
	QueuedNS int64   `json:"recv_queued_ns,omitempty"`

	Jobs          int     `json:"jobs,omitempty"`
	Completed     int     `json:"completed,omitempty"`
	Killed        int     `json:"killed,omitempty"`
	Events        int     `json:"events,omitempty"`
	Clock         float64 `json:"clock,omitempty"`
	Started       int64   `json:"started,omitempty"`
	Backfilled    int64   `json:"backfilled,omitempty"`
	Interruptions int64   `json:"interruptions,omitempty"`
	Digest        string  `json:"digest,omitempty"`
}

// work is the operation's throughput unit: simulated point-to-point
// messages for an MPI point, jobs for a facility regime.
func (s stats) work() float64 {
	if s.Jobs > 0 {
		return float64(s.Jobs)
	}
	return float64(s.Msgs)
}

// op is one closed-loop operation: a simulation or a facility run. A
// nil trace runs it exactly as the program's own callers do.
type op interface {
	name() string
	// seed0 maps stats fields to the text the committed artefact shows
	// for this point at seed 0 (report.FormatFloat); nil when the point
	// is in no artefact.
	seed0() map[string]string
	execute(seed uint64, tr *opTrace) (stats, error)
}

// workload is a named set of operations built from the seed.
type workload struct {
	name string
	// setup resolves everything the timed phase needs; facility input
	// generation and broker calibration record their step times in sp.
	setup func(seed uint64, sp map[string]float64) ([]op, error)
}

var workloads = []workload{
	{"mpi64", setupMPI64},
	{"pdes-scale", setupPDESScale},
	{"facility", setupFacility},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (mpi64, pdes-scale, facility)", name)
}

// mpiOp is one platform run of an NPB skeleton or application proxy.
type mpiOp struct {
	label    string
	artefact map[string]string
	spec     core.RunSpec
	// body returns the per-rank function; rank 0 stores the
	// application's own total virtual time in app (skeletons leave it 0).
	body func(app *float64) func(c *mpi.Comm) error
}

func (o *mpiOp) name() string { return o.label }

func (o *mpiOp) seed0() map[string]string { return o.artefact }

func (o *mpiOp) execute(seed uint64, tr *opTrace) (stats, error) {
	reg := obs.NewRegistry()
	spec := o.spec
	spec.Seed = seed
	spec.Metrics = reg
	var app float64
	var res *mpi.Result
	var prof *ipm.Profile
	if tr == nil {
		out, err := core.Execute(spec, o.body(&app))
		if err != nil {
			return stats{}, err
		}
		res, prof = out.Result, out.Profile
	} else {
		var err error
		res, prof, err = tracedExecute(spec, o.body(&app), tr)
		if err != nil {
			return stats{}, err
		}
	}
	snap := reg.Snapshot(tr != nil)
	s := stats{
		VirtualS: res.Time,
		CommPct:  prof.CommPercent(),
		AppS:     app,
		Msgs:     snap["mpi_sends_total"].Value,
		Bytes:    snap["mpi_send_bytes_total"].Value,
		WaitNS:   snap["mpi_recv_wait_ns_total"].Value,
		QueuedNS: snap["mpi_recv_queued_ns_total"].Value,
	}
	if tr != nil {
		tr.addMPI(s, snap)
	}
	return s, nil
}

// tracedExecute is core.Execute rebuilt from its public steps, one span
// per step. Options are passed in the same order, so the simulated
// result is the one core.Execute produces; the checker asserts it.
func tracedExecute(spec core.RunSpec, fn func(c *mpi.Comm) error, tr *opTrace) (*mpi.Result, *ipm.Profile, error) {
	var nodes int
	err := tr.span("core.AutoNodes", func() (err error) {
		nodes, err = core.AutoNodes(spec)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	policy := spec.Policy
	if nodes > 0 && policy == cluster.Block {
		policy = cluster.Spread
	}
	var pl *cluster.Placement
	err = tr.span("cluster.Place", func() (err error) {
		pl, err = cluster.Place(spec.Platform, cluster.Spec{
			NP: spec.NP, Policy: policy, Nodes: nodes, MemPerRank: spec.MemPerRank,
		})
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var prof *ipm.Profiler
	_ = tr.span("ipm.New", func() error {
		prof = ipm.New(spec.NP)
		return nil
	})
	timed := newTimedTracer(prof, spec.NP)
	opts := []mpi.Option{mpi.WithTracer(timed), mpi.WithSeed(spec.Seed)}
	if spec.Runtime != mpi.Goroutine {
		opts = append(opts, mpi.WithRuntime(spec.Runtime))
	}
	if spec.EngineWorkers > 0 {
		opts = append(opts, mpi.WithEngineWorkers(spec.EngineWorkers))
	}
	if spec.Metrics != nil {
		opts = append(opts, mpi.WithMetrics(spec.Metrics))
	}
	var w *mpi.World
	err = tr.span("mpi.NewWorld", func() (err error) {
		w, err = mpi.NewWorld(spec.Platform, pl, opts...)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var res *mpi.Result
	run := tr.open("World.Run")
	res, err = w.Run(fn)
	tr.aggregate(run, "ipm.Profiler", timed.estimate())
	tr.close(run)
	tr.addAccounting(timed)
	if err != nil {
		return nil, nil, err
	}
	_ = tr.span("World.Release", func() error {
		w.Release()
		return nil
	})
	var profile *ipm.Profile
	_ = tr.span("Profiler.Snapshot", func() error {
		profile = prof.Snapshot(res)
		return nil
	})
	return res, profile, nil
}

func skeletonOp(kernel string, p *platform.Platform, np int, artefact map[string]string) (*mpiOp, error) {
	fn, err := suite.Skeleton(kernel)
	if err != nil {
		return nil, err
	}
	return &mpiOp{
		label:    fmt.Sprintf("%s.B.%d/%s", kernel, np, p.Name),
		artefact: artefact,
		spec:     core.RunSpec{Platform: p, NP: np},
		body: func(*float64) func(c *mpi.Comm) error {
			return func(c *mpi.Comm) error { return fn(c, npb.ClassB) }
		},
	}, nil
}

// table2NP64 is the np=64 row of the committed table2 (IPM %comm) in
// dcc, ec2, vayu order; MG is in fig4 only, which prints speedups.
var table2NP64 = map[string][3]string{
	"cg": {"56.3", "22.1", "5.754"},
	"ft": {"88.5", "40.1", "12.4"},
	"is": {"94.6", "57.4", "23.0"},
}

// setupMPI64 builds the paper's 32-64-rank points on the default
// engine: fig4/table2 skeletons at np=64, chaste32 on DCC and table3's
// MetUM placements at 32 ranks.
func setupMPI64(uint64, map[string]float64) ([]op, error) {
	var ops []op
	for _, k := range []string{"cg", "mg", "ft", "is"} {
		for i, p := range []*platform.Platform{platform.DCC(), platform.EC2(), platform.Vayu()} {
			var artefact map[string]string
			if row, ok := table2NP64[k]; ok {
				artefact = map[string]string{"comm_pct": row[i]}
			}
			o, err := skeletonOp(k, p, 64, artefact)
			if err != nil {
				return nil, err
			}
			ops = append(ops, o)
		}
	}
	ccfg := chaste.Default()
	ops = append(ops, &mpiOp{
		label:    "chaste.32/dcc",
		artefact: map[string]string{"comm_pct": "48.2"}, // chaste32
		spec:     core.RunSpec{Platform: platform.DCC(), NP: 32, MemPerRank: ccfg.MemPerRank(32)},
		body: func(app *float64) func(c *mpi.Comm) error {
			return func(c *mpi.Comm) error {
				s, err := chaste.Run(c, ccfg)
				if err == nil && c.Rank() == 0 {
					*app = s.Total
				}
				return err
			}
		},
	})
	ucfg := metum.Default()
	for _, v := range []struct {
		label string
		p     *platform.Platform
		nodes int
		time  string // table3 time(s)
	}{
		{"metum.32/vayu", platform.Vayu(), 0, "328.7"},
		{"metum.32/dcc", platform.DCC(), 0, "739.1"},
		{"metum.32/ec2", platform.EC2(), 2, "864.6"},
		{"metum.32/ec2-4", platform.EC2(), 4, "437.5"},
	} {
		ops = append(ops, &mpiOp{
			label:    v.label,
			artefact: map[string]string{"app_s": v.time},
			spec: core.RunSpec{Platform: v.p, NP: 32, Nodes: v.nodes,
				MemPerRank: ucfg.MemPerRank(32)},
			body: func(app *float64) func(c *mpi.Comm) error {
				return func(c *mpi.Comm) error {
					s, err := metum.Run(c, ucfg)
					if err == nil && c.Rank() == 0 {
						*app = s.Total
					}
					return err
				}
			},
		})
	}
	return ops, nil
}

// engineWorkers is the PDES worker bound: GOMAXPROCS, which the
// benchmark keeps at most the CPU count.
func engineWorkers() int { return runtime.GOMAXPROCS(0) }

// setupPDESScale builds the pdes1 quick-sweep points: class-B MG and EP
// at 1k-16k ranks on Vayu scaled out to host them, on the PDES engine.
func setupPDESScale(uint64, map[string]float64) ([]op, error) {
	var ops []op
	for _, pt := range []struct {
		kernel string
		np     int
		time   string // pdes1 virtual seconds
	}{{"mg", 1024, "0.134"}, {"ep", 1024, "0.103"}, {"ep", 4096, "0.026"}, {"ep", 16384, "0.00673"}} {
		o, err := skeletonOp(pt.kernel, platform.Scaled(platform.Vayu(), pt.np), pt.np,
			map[string]string{"virtual_s": pt.time})
		if err != nil {
			return nil, err
		}
		o.spec.Runtime = mpi.PDES
		o.spec.EngineWorkers = engineWorkers()
		ops = append(ops, o)
	}
	return ops, nil
}

// facilityOp is one streaming facility run over pre-generated jobs.
type facilityOp struct {
	regime string
	jobs   []facility.Job
	cfg    facility.Config
	// streamStats attaches the StreamSummary/StreamDigest consumers.
	streamStats bool
	artefact    map[string]string
}

func (o *facilityOp) name() string { return "facility/" + o.regime }

func (o *facilityOp) seed0() map[string]string { return o.artefact }

func (o *facilityOp) execute(seed uint64, tr *opTrace) (stats, error) {
	reg := obs.NewRegistry()
	cfg := o.cfg
	cfg.Metrics = reg
	var f *facility.Facility
	if err := tr.span("facility.New", func() (err error) {
		f, err = facility.New(cfg)
		return err
	}); err != nil {
		return stats{}, err
	}
	var completed, killed int
	var ss *facility.StreamSummary
	var sd *facility.StreamDigest
	emit := func(out facility.Outcome) {
		if out.State == facility.StateKilled {
			killed++
		} else {
			completed++
		}
	}
	if o.streamStats {
		ss = facility.NewStreamSummary(0, seed)
		sd = facility.NewStreamDigest()
		emit = func(out facility.Outcome) {
			ss.Observe(out)
			sd.Observe(out)
		}
	}
	var emitted time.Duration
	if tr != nil && o.streamStats {
		observe := emit
		emit = func(out facility.Outcome) {
			t0 := time.Now()
			observe(out)
			emitted += time.Since(t0)
		}
	}
	run := tr.open("Facility.RunStream")
	sr, err := f.RunStream(o.jobs, emit)
	if o.streamStats {
		tr.aggregate(run, "stream.Observe", emitted.Seconds())
	}
	tr.close(run)
	if err != nil {
		return stats{}, err
	}
	snap := reg.Snapshot(false)
	s := stats{
		Jobs: sr.Jobs, Completed: completed, Killed: killed,
		Events: sr.Events, Clock: sr.Clock,
		Started:       snap["facility_jobs_started_total"].Value,
		Backfilled:    snap["facility_jobs_backfilled_total"].Value,
		Interruptions: snap["facility_spot_interruptions_total"].Value,
	}
	if o.streamStats {
		sum := ss.Summary()
		s.Completed, s.Killed = sum.Completed, sum.Killed
		s.Digest = sd.Sum(sr.Clock, sr.Events)
	}
	tr.addFacility(o.regime, s)
	return s, nil
}

// timedStep runs fn and adds its wall seconds to sp[name].
func timedStep(sp map[string]float64, name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	sp[name] += time.Since(t0).Seconds()
	return err
}

// setupFacility generates both regimes' inputs: a deep HPC-only backlog
// with backfill and fairshare, and fac2's top rung (10^6 jobs, 10^5
// tenants, calibrated broker, spot market) exactly as the artefact
// builds it.
func setupFacility(seed uint64, sp map[string]float64) ([]op, error) {
	var backlog, routed []facility.Job
	if err := timedStep(sp, "facility.generate_s", func() (err error) {
		backlog, err = facility.Generate(facility.WorkloadSpec{
			Seed: seed, Jobs: 100000, Tenants: 10000, Slots: 512,
		})
		if err != nil {
			return err
		}
		routed, err = facility.Generate(facility.WorkloadSpec{
			Seed: seed, Jobs: 1000000, Tenants: 100000, Slots: 1024,
		})
		return err
	}); err != nil {
		return nil, err
	}
	var broker *facility.Broker
	if err := timedStep(sp, "facility.calibrate_s", func() (err error) {
		broker, err = facility.CalibrateBroker(facility.CalibrateOpts{Seed: seed})
		return err
	}); err != nil {
		return nil, err
	}
	var spot *facility.SpotConfig
	if err := timedStep(sp, "facility.spot_s", func() (err error) {
		spot, err = facility.MarketSpot(seed, 0.60, 24*28, 1<<28)
		return err
	}); err != nil {
		return nil, err
	}
	return []op{
		&facilityOp{
			regime: "backlog",
			jobs:   backlog,
			cfg: facility.Config{
				Slots:    [facility.NumPools]int{512, 0, 0},
				Backfill: true, Fairshare: true,
			},
		},
		&facilityOp{
			regime: "routed",
			jobs:   routed,
			cfg: facility.Config{
				Slots:    [facility.NumPools]int{1024, 512, 512},
				Backfill: true, Fairshare: true,
				Broker: broker, Spot: spot,
				Prices: [facility.NumPools]float64{0, 0.34, 0.68},
			},
			streamStats: true,
			artefact:    map[string]string{"digest12": "83894d3674f9"}, // fac2 10^6 rung
		},
	}, nil
}
