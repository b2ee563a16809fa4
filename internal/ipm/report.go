package ipm

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Report writes an IPM-style job summary banner: the familiar
// "##IPMv0.98####..." block with per-region and per-call tables that the
// paper's methodology is built on.
func (pr *Profile) Report(w io.Writer, jobname string) error {
	var b strings.Builder
	bar := strings.Repeat("#", 70)
	fmt.Fprintf(&b, "%s\n", bar)
	fmt.Fprintf(&b, "# IPM-style summary: %s\n", jobname)
	fmt.Fprintf(&b, "# tasks: %d\n", pr.NP)
	fmt.Fprintf(&b, "# wallclock (max): %12.4f s\n", pr.Time())
	fmt.Fprintf(&b, "# wallclock (avg): %12.4f s\n", pr.Wall.Mean())
	fmt.Fprintf(&b, "# %%comm:           %12.2f\n", pr.CommPercent())
	fmt.Fprintf(&b, "# %%io:             %12.2f\n", pr.IOPercent())
	fmt.Fprintf(&b, "# %%load imbalance: %12.2f\n", pr.LoadImbalancePercent())
	if pr.Restarts > 0 || pr.Checkpoints > 0 {
		fmt.Fprintf(&b, "# restarts:        %12d\n", pr.Restarts)
		fmt.Fprintf(&b, "# checkpoints:     %12d\n", pr.Checkpoints)
		fmt.Fprintf(&b, "# lost work:       %12.4f s\n", pr.LostWork)
		fmt.Fprintf(&b, "# restart cost:    %12.4f s\n", pr.RestartOverhead)
		fmt.Fprintf(&b, "# %%lost:           %12.2f\n", pr.LostWorkPercent())
	}
	fmt.Fprintf(&b, "%s\n", bar)

	fmt.Fprintf(&b, "# regions%s\n", strings.Repeat(" ", 20))
	fmt.Fprintf(&b, "#   %-14s %12s %12s %12s %8s\n", "region", "comp(s)", "comm(s)", "io(s)", "%comm")
	for _, name := range pr.RegionNames() {
		comp, comm, ioT := pr.Region(name)
		fmt.Fprintf(&b, "#   %-14s %12.3f %12.3f %12.3f %8.1f\n",
			name, comp.Sum(), comm.Sum(), ioT.Sum(), pr.RegionCommPercent(name))
	}
	fmt.Fprintf(&b, "%s\n", bar)

	fmt.Fprintf(&b, "#   %-14s %10s %14s %16s\n", "call", "count", "time(s)", "bytes")
	names := make([]string, 0, len(pr.Calls))
	for n := range pr.Calls {
		names = append(names, n)
	}
	// Largest time first, the IPM convention.
	sort.Slice(names, func(i, j int) bool { return pr.Calls[names[i]].Time > pr.Calls[names[j]].Time })
	for _, n := range names {
		cs := pr.Calls[n]
		fmt.Fprintf(&b, "#   %-14s %10d %14.4f %16d\n", n, cs.Count, cs.Time, cs.Bytes)
	}

	sizes, counts := pr.SizeHistogram()
	if len(sizes) > 0 {
		fmt.Fprintf(&b, "%s\n# message size histogram (bucket upper bound -> messages)\n", bar)
		for i := range sizes {
			fmt.Fprintf(&b, "#   %10d B %10d\n", sizes[i], counts[i])
		}
	}
	fmt.Fprintf(&b, "%s\n", bar)
	_, err := io.WriteString(w, b.String())
	return err
}

// jsonProfile is the serialised form of a Profile.
type jsonProfile struct {
	NP       int                   `json:"np"`
	Wall     []float64             `json:"wall_seconds"`
	Comm     []float64             `json:"comm_seconds"`
	Comp     []float64             `json:"compute_seconds"`
	IO       []float64             `json:"io_seconds"`
	Calls    map[string]CallStats  `json:"calls"`
	Regions  map[string]jsonRegion `json:"regions"`
	HistSize []int                 `json:"msg_hist_bytes"`
	HistCnt  []int                 `json:"msg_hist_count"`

	Restarts        int     `json:"restarts,omitempty"`
	Checkpoints     int     `json:"checkpoints,omitempty"`
	LostWork        float64 `json:"lost_work_seconds,omitempty"`
	RestartOverhead float64 `json:"restart_overhead_seconds,omitempty"`
}

type jsonRegion struct {
	Comp float64 `json:"compute_seconds"`
	Comm float64 `json:"comm_seconds"`
	IO   float64 `json:"io_seconds"`
}

// MarshalJSON serialises the profile for external tooling.
func (pr *Profile) MarshalJSON() ([]byte, error) {
	jp := jsonProfile{
		NP:      pr.NP,
		Wall:    pr.Wall,
		Comm:    pr.Comm,
		Comp:    pr.Comp,
		IO:      pr.IO,
		Calls:   map[string]CallStats{},
		Regions: map[string]jsonRegion{},
	}
	for k, v := range pr.Calls {
		jp.Calls[k] = v
	}
	for _, name := range pr.RegionNames() {
		comp, comm, ioT := pr.Region(name)
		jp.Regions[name] = jsonRegion{Comp: comp.Sum(), Comm: comm.Sum(), IO: ioT.Sum()}
	}
	jp.HistSize, jp.HistCnt = pr.SizeHistogram()
	jp.Restarts = pr.Restarts
	jp.Checkpoints = pr.Checkpoints
	jp.LostWork = pr.LostWork
	jp.RestartOverhead = pr.RestartOverhead
	return json.Marshal(jp)
}
