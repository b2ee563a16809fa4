package experiments

import (
	"fmt"

	"repro/internal/npb"
	"repro/internal/platform"
	"repro/internal/report"
)

// This file extends the paper's evaluation beyond its machines: the
// class-B skeleton scaling study of Figure 4 is continued to worlds of
// up to 16384 virtual ranks, past Vayu's 11936 physical slots, on a
// what-if scaled platform (platform.Scaled). The artefact is registered
// as "pdes1"; the name and the figure title keep the study's original
// label, from when it ran on a separate discrete-event rank engine.

// pdesEPNPs returns the EP rank counts of the large-scale sweep.
func (x *Ctx) pdesEPNPs() []int {
	switch x.Sweep {
	case SweepSmoke:
		// The smoke sweep regenerates under the race detector in the
		// golden tests; stay small while keeping the doubling shape.
		return []int{64, 128, 256}
	case SweepQuick:
		return []int{1024, 4096, 16384}
	}
	return []int{1024, 2048, 4096, 8192, 16384}
}

// pdesMGNPs returns the MG rank counts. The communication-heavy kernels
// cost real wall time per sweep point at these sizes (MG's V-cycle moves
// ~1k messages per rank; CG's solver several times that), so MG carries
// the communicating-kernel curve and stops at 2048 ranks — EP carries it
// to 16384.
func (x *Ctx) pdesMGNPs() []int {
	switch x.Sweep {
	case SweepSmoke:
		return []int{64, 256}
	case SweepQuick:
		return []int{1024}
	}
	return []int{1024, 2048}
}

// FigE13PDESScale produces the extension figure: NPB class-B skeleton
// virtual walltimes at 1024-16384 ranks on a Vayu scaled out to host
// each rank count.
func (x *Ctx) FigE13PDESScale() (*report.Figure, error) {
	fig := &report.Figure{
		Title:  "Fig E13: NPB class B skeleton walltime at 1k-16k ranks (PDES engine, scaled vayu)",
		XLabel: "# of ranks", YLabel: "seconds", LogX: true, LogY: true,
	}
	kernels := []struct {
		name string
		nps  []int
	}{
		{"ep", x.pdesEPNPs()},
		{"mg", x.pdesMGNPs()},
	}
	for _, k := range kernels {
		s := &report.Series{Name: k.name}
		for _, np := range k.nps {
			if !npb.ValidProcs(k.name, np) {
				return nil, fmt.Errorf("experiments: %s does not accept np=%d", k.name, np)
			}
			p := platform.Scaled(platform.Vayu(), np)
			d, err := x.runSkeleton(k.name, p, np, npb.ClassB)
			if err != nil {
				return nil, err
			}
			s.Add(float64(np), d)
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}
