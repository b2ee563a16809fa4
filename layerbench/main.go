// Command layerbench is the repository's benchmark: three seeded
// workloads built from the paper's artefact points and the batch
// facility, run as a closed loop in one process (one simulation at a
// time, each starting when the previous one returns). It checks every
// simulated result against a shipped reference, prints end-to-end
// metrics, and with -trace 1 a per-layer decomposition from spans
// around the benchmark's own calls into each layer, the program's
// obs.Registry counters, runtime/metrics and a CPU profile.
//
// Run it from the repository root through layerbench/run.sh:
//
//	bash layerbench/run.sh --workload mpi64 --seed 0 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See layerbench/README.md.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/perfbench"
)

//go:embed layers.txt
var layerTable string

// Paths relative to the repository root, the benchmark's working
// directory.
const (
	refPath  = "layerbench/reference.json"
	traceDir = ".bench_build/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		wlName  = flag.String("workload", "", "workload: mpi64, pdes-scale or facility")
		seed    = flag.Uint64("seed", 0, "workload seed (0 reproduces the committed artefacts)")
		seconds = flag.Float64("seconds", 20, "measured seconds (at least one full pass of the workload)")
		traced  = flag.Int("trace", 0, "1 = per-layer run: an untraced and a traced phase, half the seconds each")
		record  = flag.Bool("record", false, "run one pass and store its statistics as the seed's reference")
	)
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	wl, err := workloadByName(*wlName)
	if err != nil {
		return err
	}
	rules, err := parseLayerTable(layerTable)
	if err != nil {
		return err
	}
	printEnv()

	ops, setupS, setupSpans, refs, err := setup(wl, *seed, *record)
	if err != nil {
		return err
	}
	chk := &checker{seed: *seed, ref: refs, seen: map[string]stats{}}
	if *record {
		return recordReference(wl, *seed, ops, chk)
	}

	budget := time.Duration(*seconds * float64(time.Second))
	steal0, total0 := cpuSteal()
	// On a shared VM, time the hypervisor gave the vCPUs to other guests
	// inflates wall times; the report says how much there was.
	printSteal := func() {
		steal1, total1 := cpuSteal()
		fmt.Printf("host steal: %.1f%% of CPU time during the run\n", 100*ratio(float64(steal1-steal0), float64(total1-total0)))
	}
	if *traced == 0 {
		ph, err := runPhase(ops, *seed, budget, nil, chk)
		if err != nil {
			return err
		}
		ph.printOps(ops)
		printSteal()
		m := endToEnd(ph, ops, setupS, ph.peakRSS(ops))
		return emit(chk, m, wl.name)
	}

	// Per-layer run: the untraced phase is the baseline for the tracing
	// overhead and for the traced phase's simulated statistics.
	plain, err := runPhase(ops, *seed, budget/2, nil, chk)
	if err != nil {
		return err
	}
	log := &spanLog{}
	var cpu bytes.Buffer
	before := readRuntime()
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return err
	}
	log.epoch = time.Now()
	tr, err := runPhase(ops, *seed, budget/2, log, chk)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	after := readRuntime()

	m, err := perLayer(plain, tr, ops, setupSpans, before, after, cpu.Bytes(), rules, chk)
	if err != nil {
		return err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s.seed%d", wl.name, *seed))
	if err := log.writeSpans(base + ".spans.jsonl"); err != nil {
		return err
	}
	if err := os.WriteFile(base+".cpu.pb.gz", cpu.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("trace: spans in %s.spans.jsonl, CPU profile in %s.cpu.pb.gz\n", base, base)
	printSteal()
	return emit(chk, m, wl.name)
}

// printEnv prints the environment stamp.
func printEnv() {
	env := perfbench.Env{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GitRev:     obs.GitRev(),
	}
	rev := env.GitRev
	if rev == "" {
		rev = "unknown"
	}
	fmt.Printf("env: go=%s gomaxprocs=%d num_cpu=%d git_rev=%s engine_workers=%d fingerprint=%s\n",
		env.GoVersion, env.GOMAXPROCS, env.NumCPU, rev, engineWorkers(), env.Fingerprint())
}

// setupReps bounds how often set-up is repeated for the setup_s median:
// at least minSetupReps times, then until maxSetupReps or setupBudget.
const (
	minSetupReps = 5
	maxSetupReps = 400
	setupBudget  = time.Second
)

// setup runs the workload's set-up (reference loading included) several
// times and returns the last repetition's operations with the median
// set-up wall time and median per-step times.
func setup(wl workload, seed uint64, record bool) ([]op, float64, map[string]float64, map[string]stats, error) {
	var (
		ops   []op
		refs  map[string]stats
		walls []float64
		steps = map[string][]float64{}
		spent time.Duration
	)
	for rep := 0; rep < maxSetupReps && (rep < minSetupReps || spent < setupBudget); rep++ {
		// Start every repetition from the same cold heap: collected,
		// and returned to the OS, as in a fresh process.
		ops, refs = nil, nil
		debug.FreeOSMemory()
		sp := map[string]float64{}
		t0 := time.Now()
		all, err := loadReferences(refPath)
		if err != nil && !(record && os.IsNotExist(err)) {
			return nil, 0, nil, nil, err
		}
		refs = all[wl.name][strconv.FormatUint(seed, 10)]
		ops, err = wl.setup(seed, sp)
		if err != nil {
			return nil, 0, nil, nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		d := time.Since(t0)
		spent += d
		walls = append(walls, d.Seconds())
		for k, v := range sp {
			steps[k] = append(steps[k], v)
		}
	}
	medSteps := map[string]float64{}
	for k, v := range steps {
		medSteps[k] = median(v)
	}
	fmt.Printf("setup: %d repetitions, median %.4f s\n", len(walls), median(walls))
	return ops, median(walls), medSteps, refs, nil
}

// referenceFile maps workload -> seed -> operation -> statistics.
type referenceFile map[string]map[string]map[string]stats

func loadReferences(path string) (referenceFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf referenceFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// recordReference runs one checked pass and stores its statistics as
// the seed's reference. It refuses to record a pass that failed a check.
func recordReference(wl workload, seed uint64, ops []op, chk *checker) error {
	chk.ref = nil
	if _, err := runPhase(ops, seed, 0, nil, chk); err != nil {
		return err
	}
	if chk.failed > 0 {
		return fmt.Errorf("not recording seed %d: %d checks failed", seed, chk.failed)
	}
	rf, err := loadReferences(refPath)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	if rf == nil {
		rf = referenceFile{}
	}
	if rf[wl.name] == nil {
		rf[wl.name] = map[string]map[string]stats{}
	}
	rf[wl.name][strconv.FormatUint(seed, 10)] = chk.seen
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(refPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("recorded %d operations of %s seed %d in %s\n", len(chk.seen), wl.name, seed, refPath)
	return nil
}

// phase is one timed loop over the workload's operations.
type phase struct {
	walls map[string][]float64 // per operation: wall seconds of each execution
	rss   map[string][]float64 // per operation: peak resident MB of each execution
	work  map[string]float64   // per operation: messages or jobs of one execution
	vals  map[string][]map[string]float64
	hist  map[string]int64
	execs int
	// forced is what the between-operation collections cost, so the
	// runtime deltas can leave it out.
	forced runtimeStats
}

// isolate collects the heap and returns it to the OS before an
// operation, so every execution starts from the same heap (the set-up's
// live data) and pays for its own garbage and page faults only.
func (ph *phase) isolate() {
	before := readRuntime()
	debug.FreeOSMemory()
	after := readRuntime()
	ph.forced.gcCycles += after.gcCycles - before.gcCycles
	ph.forced.gcCPU += after.gcCPU - before.gcCPU
}

// runPhase executes the operations in order, round and round, until
// budget has elapsed and at least one full pass is done. Errors and
// mismatches are counted by the checker; they do not stop the loop.
func runPhase(ops []op, seed uint64, budget time.Duration, log *spanLog, chk *checker) (phase, error) {
	ph := phase{walls: map[string][]float64{}, rss: map[string][]float64{}, work: map[string]float64{},
		vals: map[string][]map[string]float64{}, hist: map[string]int64{}}
	start := time.Now()
	for i := 0; i < len(ops) || time.Since(start) < budget; i++ {
		o := ops[i%len(ops)]
		ph.isolate()
		if err := resetPeakRSS(); err != nil {
			return ph, fmt.Errorf("resetting peak RSS: %w", err)
		}
		var tr *opTrace
		if log != nil {
			tr = log.begin(ph.execs, o.name())
		}
		t0 := time.Now()
		s, err := o.execute(seed, tr)
		wall := time.Since(t0).Seconds()
		rss, rssErr := peakRSSMB()
		if rssErr != nil {
			return ph, rssErr
		}
		ph.execs++
		regime := ""
		if fo, ok := o.(*facilityOp); ok {
			regime = fo.regime
		}
		tr.finish(regime)
		if !chk.check(o.name(), o.seed0(), s, err) {
			continue
		}
		ph.walls[o.name()] = append(ph.walls[o.name()], wall)
		ph.rss[o.name()] = append(ph.rss[o.name()], rss)
		ph.work[o.name()] = s.work()
		if tr != nil {
			ph.vals[o.name()] = append(ph.vals[o.name()], tr.vals)
			for k, n := range tr.hist {
				ph.hist[k] += n
			}
		}
	}
	return ph, nil
}

// passWall is the wall time of one pass over the operations: the sum of
// each operation's median execution time.
func (ph phase) passWall(ops []op) float64 {
	total := 0.0
	for _, o := range ops {
		total += median(ph.walls[o.name()])
	}
	return total
}

// printOps prints each operation's execution count and wall times.
func (ph phase) printOps(ops []op) {
	for _, o := range ops {
		w := ph.walls[o.name()]
		fmt.Printf("op %-24s n=%d median=%.4fs walls=%.4f rss_mb=%.1f\n", o.name(), len(w), median(w), w, ph.rss[o.name()])
	}
}

// peakRSS is the largest per-operation median peak resident set: the
// memory the workload's hungriest operation needs, robust to where the
// garbage collector happened to run in any one execution.
func (ph phase) peakRSS(ops []op) float64 {
	peak := 0.0
	for _, o := range ops {
		peak = math.Max(peak, median(ph.rss[o.name()]))
	}
	return peak
}

// passWork is the messages or jobs one pass performs.
func (ph phase) passWork(ops []op) float64 {
	total := 0.0
	for _, o := range ops {
		total += ph.work[o.name()]
	}
	return total
}

// perPass sums each operation's mean per-execution quantity: the value
// for one pass over the workload.
func (ph phase) perPass(ops []op) map[string]float64 {
	out := map[string]float64{}
	for _, o := range ops {
		runs := ph.vals[o.name()]
		for _, v := range runs {
			for _, k := range sortedKeys(v) {
				out[k] += v[k] / float64(len(runs))
			}
		}
	}
	return out
}

// passes is how many full passes the phase's executions amount to.
func (ph phase) passes(ops []op) float64 {
	return float64(ph.execs) / float64(len(ops))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func endToEnd(ph phase, ops []op, setupS, rssMB float64) map[string]metric {
	run := ph.passWall(ops)
	return map[string]metric{
		"run_s":       {run, "s"},
		"setup_s":     {setupS, "s"},
		"work_per_s":  {ratio(ph.passWork(ops), run), "1/s"},
		"peak_rss_mb": {rssMB, "MB"},
	}
}

// perLayer derives the per-layer metrics from the traced phase, with
// the untraced phase as the overhead baseline.
func perLayer(plain, tr phase, ops []op, setupSpans map[string]float64,
	before, after runtimeStats, cpu []byte, rules []layerRule, chk *checker) (map[string]metric, error) {
	v := tr.perPass(ops)
	m := map[string]metric{}
	put := func(name, unit string, x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		m[name] = metric{x, unit}
	}
	for _, name := range []string{"core.auto_nodes_s", "cluster.place_s", "ipm.new_s",
		"mpi.world_new_s", "mpi.run_s", "mpi.release_s", "ipm.call_s", "ipm.snapshot_s",
		"facility.new_s", "facility.run_s.backlog", "facility.run_s.routed", "facility.stats_s"} {
		put(name, "s", v[name])
	}
	for _, name := range []string{"facility.generate_s", "facility.calibrate_s", "facility.spot_s"} {
		put(name, "s", setupSpans[name])
	}
	put("mpi.send_bytes", "bytes", v["mpi.send_bytes"])
	for _, name := range []string{"mpi.sends", "mpi.eager", "mpi.rendezvous",
		"ipm.calls", "facility.events.backlog", "facility.events.routed", "facility.started",
		"facility.backfilled", "facility.killed", "facility.interruptions"} {
		put(name, "count", v[name])
	}
	for _, name := range []string{"mpi.virtual_s", "mpi.recv_wait_vs", "mpi.recv_queued_vs"} {
		put(name, "virtual_s", v[name])
	}
	put("mpi.ns_per_msg", "ns", ratio(v["mpi.run_s"]*1e9, v["mpi.sends"]))
	put("mpi.pool_miss_ratio", "ratio", ratio(v["mpi.pool_misses"], v["mpi.pool_leases"]))
	put("mpi.inbox_depth_p50", "count", histQuantile(tr.hist, 0.50))
	put("mpi.inbox_depth_p99", "count", histQuantile(tr.hist, 0.99))
	put("ipm.ns_per_call", "ns", ratio(v["ipm.sampled_ns"], v["ipm.sampled_calls"]))
	for _, r := range []string{"backlog", "routed"} {
		put("facility.ns_per_event."+r, "ns", ratio(v["facility.run_s."+r]*1e9, v["facility.events."+r]))
	}
	put("facility.backfill_ratio", "ratio", ratio(v["facility.backfilled"], v["facility.started"]))

	// Throughput the end-to-end work_per_s merges, per unit, measured in
	// the untraced phase.
	msgs, jobsPerS := 0.0, map[string]float64{}
	for _, o := range ops {
		if fo, ok := o.(*facilityOp); ok {
			jobsPerS[fo.regime] = ratio(plain.work[o.name()], median(plain.walls[o.name()]))
		} else {
			msgs += plain.work[o.name()]
		}
	}
	put("mpi.msgs_per_s", "1/s", ratio(msgs, plain.passWall(ops)))
	put("facility.jobs_per_s.backlog", "1/s", jobsPerS["backlog"])
	put("facility.jobs_per_s.routed", "1/s", jobsPerS["routed"])

	passes := tr.passes(ops)
	put("runtime.alloc_mb", "MB", float64(after.allocBytes-before.allocBytes)/passes/(1<<20))
	put("runtime.alloc_objects", "count", float64(after.allocObjects-before.allocObjects)/passes)
	put("runtime.gc_cycles", "count", float64(after.gcCycles-before.gcCycles-tr.forced.gcCycles)/passes)
	put("runtime.gc_cpu_s", "s", (after.gcCPU-before.gcCPU-tr.forced.gcCPU)/passes)
	put("runtime.sched_wait_p50_us", "us", schedWaitQuantile(before, after, 0.50))
	put("runtime.sched_wait_p99_us", "us", schedWaitQuantile(before, after, 0.99))

	prof, err := parseProfile(cpu)
	if err != nil {
		return nil, err
	}
	shares, unmapped, samples := layerShares(prof, rules)
	mapped := 0.0
	for _, l := range layers {
		put("cpu."+l, "ratio", shares[l])
		mapped += shares[l]
	}
	put("cpu.mapped", "ratio", mapped)
	fmt.Printf("cpu profile: %d samples, %.1f%% mapped to layers\n", samples, 100*mapped)
	for _, pkg := range sortedKeys(unmapped) {
		fmt.Printf("cpu profile: unmapped package %s: %d samples\n", pkg, unmapped[pkg])
	}
	if samples > 0 && mapped < 0.95 {
		chk.fail("cpu-profile", fmt.Sprintf("layer table maps %.1f%% of samples, need 95%%", 100*mapped))
	}

	put("trace.overhead_ratio", "ratio", ratio(tr.passWall(ops), plain.passWall(ops)))
	put("fail_ratio", "ratio", ratio(float64(chk.failed), float64(chk.attempted)))
	return m, nil
}

// emit prints the metrics table and the final JSON line.
func emit(chk *checker, m map[string]metric, wl string) error {
	for _, name := range sortedKeys(m) {
		fmt.Printf("%-32s %16.6g %s\n", name, m[name].Value, m[name].Unit)
	}
	fmt.Printf("%s: %d operations, %d failed, reference: %s\n", wl, chk.attempted, chk.failed, chk.refNote())
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{chk.failed == 0 && chk.attempted > 0, chk.attempted, chk.failed, m})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// cpuSteal returns the steal and total jiffies of all CPUs from
// /proc/stat (zeros when unavailable).
func cpuSteal() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		n, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 8 {
			steal = n
		}
	}
	return steal, total
}

// resetPeakRSS resets the process's peak resident set (VmHWM) to its
// current resident set, so the next reading is one operation's peak.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// ratio is a/b, or 0 when b is 0 (a layer or operation the run did
// not exercise, or one whose every execution failed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
