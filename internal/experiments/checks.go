package experiments

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/npb"
	"repro/internal/platform"
	"repro/internal/sched"
)

// Check is one machine-verifiable claim from the paper.
type Check struct {
	ID     string // experiment id, e.g. "E1"
	Claim  string // the paper's statement being tested
	Passed bool
	Detail string // measured values
}

// ratio helpers for readable detail strings.
func between(v, lo, hi float64) bool { return v >= lo && v <= hi }

// checkGroup is one independently schedulable batch of claims; each group
// is a pure function of the model, so groups run in parallel.
type checkGroup struct {
	ID  string
	Run func(x *Ctx) ([]Check, error)
}

// checkAdder collects claims with formatted detail strings.
type checkAdder struct{ checks []Check }

func (a *checkAdder) add(id, claim string, passed bool, detail string, args ...any) {
	a.checks = append(a.checks, Check{ID: id, Claim: claim, Passed: passed,
		Detail: fmt.Sprintf(detail, args...)})
}

// checkGroups returns the paper's headline claims, grouped by the
// measurements they share, in report order.
func checkGroups() []checkGroup {
	return []checkGroup{
		{ID: "E1", Run: checkE1Bandwidth},
		{ID: "E2", Run: checkE2Latency},
		{ID: "E3", Run: checkE3SerialCalibration},
		{ID: "E4", Run: checkE4Scaling},
		{ID: "E5", Run: checkE5CommPercent},
		{ID: "E8", Run: checkE8MetUM},
		{ID: "E10", Run: checkE10Chaste},
	}
}

// checkE1Bandwidth: bandwidth peaks and ordering (Figure 1).
func checkE1Bandwidth(x *Ctx) ([]Check, error) {
	var a checkAdder
	bw := map[string]float64{}
	for _, p := range platform.All() {
		v, err := x.bandwidthAt(p, 4<<20)
		if err != nil {
			return nil, err
		}
		bw[p.Name] = v
	}
	a.add("E1", "OSU peak bandwidth ~3200/560/190 MB/s (vayu/ec2/dcc)",
		between(bw["vayu"], 2900, 3500) && between(bw["ec2"], 500, 620) && between(bw["dcc"], 170, 210),
		"vayu=%.0f ec2=%.0f dcc=%.0f MB/s", bw["vayu"], bw["ec2"], bw["dcc"])
	return a.checks, nil
}

// checkE2Latency: latency ordering and DCC fluctuation (Figure 2).
func checkE2Latency(x *Ctx) ([]Check, error) {
	var a checkAdder
	lat := map[string]float64{}
	for _, p := range platform.All() {
		us, err := x.latencyAt(p, 1)
		if err != nil {
			return nil, err
		}
		lat[p.Name] = us
	}
	a.add("E2", "1-byte latency: vayu microseconds << ec2 << dcc",
		lat["vayu"] < 5 && lat["vayu"] < lat["ec2"] && lat["ec2"] < lat["dcc"],
		"vayu=%.1f ec2=%.1f dcc=%.1f us", lat["vayu"], lat["ec2"], lat["dcc"])
	return a.checks, nil
}

// checkE3SerialCalibration: serial walltimes against Figure 3's DCC column.
func checkE3SerialCalibration(x *Ctx) ([]Check, error) {
	var a checkAdder
	fig3 := map[string]float64{"bt": 1696.9, "ep": 141.5, "cg": 244.9, "ft": 327.6,
		"is": 8.6, "lu": 1514.7, "mg": 72.0, "sp": 1936.1}
	kernels := make([]string, 0, len(fig3))
	for name := range fig3 {
		kernels = append(kernels, name)
	}
	sort.Strings(kernels)
	worst := 0.0
	for _, name := range kernels {
		want := fig3[name]
		got, err := x.runSkeleton(name, platform.DCC(), 1, npb.ClassB)
		if err != nil {
			return nil, err
		}
		rel := got/want - 1
		if rel < 0 {
			rel = -rel
		}
		if rel > worst {
			worst = rel
		}
	}
	a.add("E3", "NPB class B serial DCC walltimes within 10% of Figure 3",
		worst < 0.10, "worst relative error %.1f%%", worst*100)
	return a.checks, nil
}

// checkE4Scaling: the Figure 4 scaling crossovers.
func checkE4Scaling(x *Ctx) ([]Check, error) {
	var a checkAdder
	epVayu64, err := x.speedupAt("ep", platform.Vayu(), 64)
	if err != nil {
		return nil, err
	}
	a.add("E4a", "EP near-linear on vayu", epVayu64 > 50, "speedup@64 = %.1f", epVayu64)
	ftDCC64, err := x.speedupAt("ft", platform.DCC(), 64)
	if err != nil {
		return nil, err
	}
	ftVayu64, err := x.speedupAt("ft", platform.Vayu(), 64)
	if err != nil {
		return nil, err
	}
	a.add("E4b", "FT: vayu almost linear, dcc poor", ftVayu64 > 40 && ftDCC64 < 10,
		"vayu=%.1f dcc=%.1f", ftVayu64, ftDCC64)
	isBest := 0.0
	for _, p := range platform.All() {
		s, err := x.speedupAt("is", p, 64)
		if err != nil {
			return nil, err
		}
		if s > isBest {
			isBest = s
		}
	}
	a.add("E4c", "IS does not scale well on any cluster", isBest < 32, "best speedup@64 = %.1f", isBest)
	cgD8, err := x.speedupAt("cg", platform.DCC(), 8)
	if err != nil {
		return nil, err
	}
	cgV8, err := x.speedupAt("cg", platform.Vayu(), 8)
	if err != nil {
		return nil, err
	}
	a.add("E4d", "CG speedup dips at 8 on DCC (NUMA masking)", cgD8 < 0.8*cgV8,
		"dcc=%.1f vayu=%.1f at np=8", cgD8, cgV8)
	return a.checks, nil
}

// checkE5CommPercent: Table II %comm at np=64.
func checkE5CommPercent(x *Ctx) ([]Check, error) {
	var a checkAdder
	isDCC, err := x.commAt("is", platform.DCC(), 64)
	if err != nil {
		return nil, err
	}
	cgVayu, err := x.commAt("cg", platform.Vayu(), 64)
	if err != nil {
		return nil, err
	}
	a.add("E5", "Table II: IS on DCC spends almost all walltime in comm at 64; vayu CG stays moderate",
		isDCC > 85 && cgVayu < 30, "IS dcc=%.1f%% CG vayu=%.1f%%", isDCC, cgVayu)
	return a.checks, nil
}

// checkE8MetUM: the Table III ratios.
func checkE8MetUM(x *Ctx) ([]Check, error) {
	var a checkAdder
	_, vo, err := x.umRun(platform.Vayu(), 32, 0)
	if err != nil {
		return nil, err
	}
	_, do, err := x.umRun(platform.DCC(), 32, 0)
	if err != nil {
		return nil, err
	}
	_, eo, err := x.umRun(platform.EC2(), 32, 2)
	if err != nil {
		return nil, err
	}
	_, fo, err := x.umRun(platform.EC2(), 32, 4)
	if err != nil {
		return nil, err
	}
	rcompD := do.Profile.Comp.Sum() / vo.Profile.Comp.Sum()
	rcommD := do.Profile.Comm.Sum() / vo.Profile.Comm.Sum()
	rcompE := eo.Profile.Comp.Sum() / vo.Profile.Comp.Sum()
	rcompF := fo.Profile.Comp.Sum() / vo.Profile.Comp.Sum()
	a.add("E8a", "Table III rcomp ~1.37 (dcc), ~2.39 (ec2), ~1.17 (ec2-4)",
		between(rcompD, 1.25, 1.5) && between(rcompE, 2.1, 2.6) && between(rcompF, 1.1, 1.3),
		"dcc=%.2f ec2=%.2f ec2-4=%.2f", rcompD, rcompE, rcompF)
	a.add("E8b", "Table III rcomm ~6.7 (dcc)", between(rcommD, 5, 8.5), "rcomm=%.2f", rcommD)
	a.add("E8c", "EC2-4 nearly twice as fast as EC2 at 32 cores",
		between(eo.Time()/fo.Time(), 1.6, 2.4), "ratio=%.2f", eo.Time()/fo.Time())
	return a.checks, nil
}

// checkE10Chaste: the Chaste 32-core prose numbers.
func checkE10Chaste(x *Ctx) ([]Check, error) {
	var a checkAdder
	_, cvo, err := x.chasteRun(platform.Vayu(), 32)
	if err != nil {
		return nil, err
	}
	_, cdo, err := x.chasteRun(platform.DCC(), 32)
	if err != nil {
		return nil, err
	}
	a.add("E10", "Chaste at 32: ~48% comm on DCC, ~11% on Vayu",
		between(cdo.Profile.CommPercent(), 38, 58) && cvo.Profile.CommPercent() < 20,
		"dcc=%.1f%% vayu=%.1f%%", cdo.Profile.CommPercent(), cvo.Profile.CommPercent())
	return a.checks, nil
}

// checksFile is the single artefact file a check job produces.
const checksFile = "checks.json"

// CheckJobs converts every claim group into a scheduler job whose output
// file is the group's JSON-encoded []Check. Claims always evaluate at the
// full sweep (their thresholds are calibrated against the paper's full
// parameter space).
func CheckJobs() []sched.Job {
	groups := checkGroups()
	jobs := make([]sched.Job, 0, len(groups))
	for _, g := range groups {
		g := g
		jobs = append(jobs, sched.Job{
			ID:  g.ID,
			Key: cacheKey("check:"+g.ID, SweepFull, 0, fault.Params{}),
			Run: func(ctx *sched.Ctx) (map[string][]byte, error) {
				checks, err := g.Run(&Ctx{Sweep: SweepFull, Meter: ctx.Meter()})
				if err != nil {
					return nil, err
				}
				raw, err := json.Marshal(checks)
				if err != nil {
					return nil, err
				}
				return map[string][]byte{checksFile: raw}, nil
			},
		})
	}
	return jobs
}

// DecodeChecks extracts the claims from one check job's output files.
func DecodeChecks(files map[string][]byte) ([]Check, error) {
	raw, ok := files[checksFile]
	if !ok {
		return nil, fmt.Errorf("experiments: check result missing %s", checksFile)
	}
	var checks []Check
	if err := json.Unmarshal(raw, &checks); err != nil {
		return nil, fmt.Errorf("experiments: decode checks: %w", err)
	}
	return checks, nil
}

// RunChecksScheduled evaluates the reproduction's headline claims
// against the paper and returns one result per claim, in report order.
// It is the programmatic core of `cmd/repro -check`; the claim groups
// execute on the scheduler with the given options (worker-pool size,
// result cache). Claim order in the returned slice is deterministic
// regardless of scheduling.
func RunChecksScheduled(opt sched.Options) ([]Check, error) {
	results, err := sched.Run(CheckJobs(), opt)
	if err != nil {
		return nil, err
	}
	var all []Check
	for _, r := range results {
		checks, err := DecodeChecks(r.Files)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.ID, err)
		}
		all = append(all, checks...)
	}
	return all, nil
}
