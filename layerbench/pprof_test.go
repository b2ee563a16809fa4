package main

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerTableParses(t *testing.T) {
	rules, err := parseLayerTable(layerTable)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) == 0 {
		t.Fatal("empty layer table")
	}
	if _, err := parseLayerTable("frame repro/internal/mpi. nosuchlayer\n"); err == nil {
		t.Error("unknown layer accepted")
	}
}

func TestClassifyTiers(t *testing.T) {
	rules, err := parseLayerTable(layerTable)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		// The innermost repository frame owns runtime work it called.
		{[]string{"runtime.mallocgc", "repro/internal/mpi.(*Comm).sendMsg", "repro/internal/npb/cg.run"}, "msgplane"},
		{[]string{"repro/internal/pdes.(*Queue).siftDown", "repro/internal/mpi.(*Comm).recvRaw"}, "engine"},
		{[]string{"math.Exp", "repro/internal/sim.(*RNG).Exp", "repro/internal/netmodel.TransferShared"}, "link"},
		{[]string{"repro/internal/mpi.(*World).startEngine", "repro/internal/mpi.(*World).Run"}, "engine"},
		// GC work is GC whoever allocated.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcAssistAlloc", "repro/internal/mpi.(*Comm).Send"}, "gc"},
		// Runtime work without a repository caller is the scheduler's.
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}, "sched"},
		{[]string{"encoding/json.Unmarshal"}, ""},
	} {
		if got := classify(rules, tc.stack); got != tc.want {
			t.Errorf("classify(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestParseOwnProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for i, stack := range prof.stacks {
		total += prof.counts[i]
		for _, fn := range stack {
			if strings.HasSuffix(fn, ".spin") {
				inSpin += prof.counts[i]
				break
			}
		}
	}
	if total == 0 || inSpin < total/2 {
		t.Fatalf("%d samples, %d in spin: the reader lost stacks", total, inSpin)
	}
	rules, err := parseLayerTable(layerTable)
	if err != nil {
		t.Fatal(err)
	}
	shares, unmapped, _ := layerShares(prof, rules)
	if shares["other"] < 0.5 {
		t.Errorf("benchmark's own frames should land in other: shares %v, unmapped %v", shares, unmapped)
	}
}
