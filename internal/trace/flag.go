package trace

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/mpi"
)

// Multi collects several recordings — restart incarnations, the runs of
// a sweep — and merges them into one Chrome trace file with one pid per
// recording, in registration order.
type Multi struct {
	mu   sync.Mutex
	recs []*Recorder
}

// New registers and returns a fresh recorder for np ranks.
func (m *Multi) New(np int) *Recorder {
	rec := New(np)
	m.mu.Lock()
	m.recs = append(m.recs, rec)
	m.mu.Unlock()
	return rec
}

// Len returns the number of registered recordings.
func (m *Multi) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.recs)
}

// WriteChrome streams every recording, pid i = i-th registered run.
func (m *Multi) WriteChrome(w io.Writer) error {
	m.mu.Lock()
	recs := append([]*Recorder(nil), m.recs...)
	m.mu.Unlock()
	return writeChromeRuns(w, recs)
}

// FlagSink is the shared handler behind the uniform -trace flag of the
// cmd binaries: it registers the flag, hands out recorders while a run
// executes, and flushes everything recorded to the named file at exit.
// With the flag unset every method is a cheap no-op, and Tracer returns
// a true nil interface (not a typed-nil *Recorder), so callers can pass
// it to mpi.Tee / RunSpec unconditionally.
type FlagSink struct {
	path  string
	multi Multi
}

// AddFlag registers -trace on the default flag set and returns the sink.
// Call before flag.Parse.
func AddFlag() *FlagSink {
	s := &FlagSink{}
	flag.StringVar(&s.path, "trace", "",
		"write a Chrome trace-event JSON timeline to this file")
	return s
}

// Active reports whether -trace was set.
func (s *FlagSink) Active() bool { return s.path != "" }

// Recorder returns a fresh recorder registered with the sink, or nil
// when tracing is off.
func (s *FlagSink) Recorder(np int) *Recorder {
	if !s.Active() {
		return nil
	}
	return s.multi.New(np)
}

// Tracer is Recorder wrapped as an mpi.Tracer that is interface-nil
// when tracing is off.
func (s *FlagSink) Tracer(np int) mpi.Tracer {
	if rec := s.Recorder(np); rec != nil {
		return rec
	}
	return nil
}

// Flush writes the merged Chrome trace to the -trace path; a no-op when
// tracing is off.
func (s *FlagSink) Flush() error {
	if !s.Active() {
		return nil
	}
	f, err := os.Create(s.path)
	if err != nil {
		return err
	}
	werr := s.multi.WriteChrome(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("trace: writing %s: %w", s.path, werr)
	}
	return nil
}
