package mpi

// Deprecated: every world runs on the one goroutine-per-rank engine.
// Runtime, its constants and both options are kept only so the benchmark
// harness, which still spells them, keeps building; the options are
// no-ops.
type Runtime int

// Deprecated: see Runtime.
const (
	Goroutine Runtime = iota
	PDES
)

// Deprecated: WithRuntime is a no-op.
func WithRuntime(Runtime) Option { return func(*World) {} }

// Deprecated: WithEngineWorkers is a no-op.
func WithEngineWorkers(int) Option { return func(*World) {} }
