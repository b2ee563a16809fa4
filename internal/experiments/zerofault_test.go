package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestZeroFaultResilientMatchesSeedArtefacts regenerates fig5 (Chaste
// speedup), fig6 (MetUM speedup) and pdes1 (E13, NPB skeletons at
// 1k-16k ranks) at the full sweep with every run forced through the
// checkpoint/restart machinery — but with no fault plan — and
// byte-compares the output against the committed seed artefacts in
// results/. This is the repo-level statement of the zero-fault identity:
// wrapping an execution in mpi.RunResilient is observationally free
// until a fault actually fires. The committed pdes1 bytes were produced
// by a separate discrete-event rank engine, so they also hold today's
// engine to an independent oracle at 16384 ranks.
//
// The full Chaste sweep dominates the ~45 s runtime, so the test is
// skipped in -short mode and under the race detector (the runtime-level
// identity stays covered there by mpi's TestRunResilientZeroFaultBitIdentical).
func TestZeroFaultResilientMatchesSeedArtefacts(t *testing.T) {
	if testing.Short() {
		t.Skip("full-sweep regeneration skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full-sweep regeneration skipped under the race detector")
	}
	for _, id := range []string{"fig5", "fig6", "pdes1"} {
		sel, err := Select([]string{id})
		if err != nil {
			t.Fatal(err)
		}
		files, err := sel[0].Gen(&Ctx{Sweep: SweepFull, ForceResilient: true})
		if err != nil {
			t.Fatalf("%s under forced resilience: %v", id, err)
		}
		if len(files) == 0 {
			t.Fatalf("%s produced no files", id)
		}
		for name, got := range files {
			want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
			if err != nil {
				t.Fatalf("seed artefact for %s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: zero-fault resilient regeneration differs from the seed artefact", name)
			}
		}
	}
}
