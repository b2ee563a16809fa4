package mpi

import (
	"fmt"
	"runtime"
	"strings"

	"repro/internal/pdes"
)

// Runtime selects the execution engine that multiplexes a world's ranks.
// Both runtimes execute the same rank programs over the same message
// plane and cost models, and — because every workload in this repository
// receives on explicit (source, tag) channels, making each run a Kahn
// process network — they produce byte-identical virtual-time results.
// The goroutine runtime is the small-np correctness oracle; the PDES
// runtime is the scalable engine for worlds of 10k+ virtual ranks.
type Runtime int

const (
	// Goroutine runs one OS-scheduled goroutine per rank, with receives
	// blocking on condition variables. Simple and well-tested, but every
	// rank occupies a goroutine stack and the OS scheduler decides the
	// interleaving, which caps practical world sizes.
	Goroutine Runtime = iota
	// PDES runs ranks as coroutines parked and resumed by a conservative
	// discrete-event engine (package pdes): at most a bounded number of
	// ranks execute concurrently and resumption follows a deterministic
	// virtual-time event queue. Like the goroutine runtime, it diagnoses
	// a world with every live rank blocked the moment it quiesces.
	PDES
)

// String names the runtime the way the -runtime flags spell it.
func (r Runtime) String() string {
	switch r {
	case Goroutine:
		return "goroutine"
	case PDES:
		return "pdes"
	}
	return fmt.Sprintf("runtime(%d)", int(r))
}

// RuntimeByName parses a -runtime flag value ("" selects Goroutine).
func RuntimeByName(s string) (Runtime, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "goroutine":
		return Goroutine, nil
	case "pdes", "event", "events":
		return PDES, nil
	}
	return Goroutine, fmt.Errorf("mpi: unknown runtime %q (want goroutine or pdes)", s)
}

// WithRuntime selects the world's execution engine (default Goroutine).
func WithRuntime(r Runtime) Option { return func(w *World) { w.runtime = r } }

// WithEngineWorkers bounds how many ranks the PDES engine executes
// concurrently (default GOMAXPROCS; values <= 0 restore the default).
// The bound affects only wall-clock speed — results are identical at any
// worker count, which the parity tests assert.
func WithEngineWorkers(n int) Option { return func(w *World) { w.engWorkers = n } }

// startEngine installs a fresh PDES engine for one Run. The engine is
// per-Run state: each Run of a reusable world gets its own event queue
// and proc table.
func (w *World) startEngine() *pdes.Engine {
	workers := w.engWorkers
	if workers <= 0 {
		// The whole point of the engine at 10k+ ranks is that only a
		// handful of rank goroutines are runnable at once; default to the
		// machine's parallelism rather than pdes.New's "unbounded".
		workers = runtime.GOMAXPROCS(0)
	}
	eng := pdes.New(w.np, workers)
	eng.OnStall(func([]int) { w.quiesce() })
	w.eng.Store(eng)
	return eng
}

// engine returns the Run-scoped PDES engine, or nil under the goroutine
// runtime.
func (w *World) engine() *pdes.Engine {
	e, _ := w.eng.Load().(*pdes.Engine)
	return e
}
