// Package trace records per-rank virtual-time event timelines from the
// mpi runtime and exports them in the Chrome trace-event JSON format
// (chrome://tracing, Perfetto), giving the visual per-process breakdown
// the paper draws from IPM (its Figure 7) at full event resolution.
// Recorded timelines also feed the obs wait-state and critical-path
// analyzer via Timeline().
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"

	"repro/internal/mpi"
	"repro/internal/obs"
)

// Event is one timeline slice, aliased to the neutral obs.Event so the
// analyzer consumes recorder output (and parsed Chrome files) through
// one type without obs importing the runtime.
type Event = obs.Event

// rankTrace is one rank's private recording state. The tracer contract
// guarantees calls for a rank are sequential, so the mutex only orders
// that rank's appends against cross-goroutine readers (Events,
// WriteChrome after the run) — ranks never contend with each other.
type rankTrace struct {
	mu     sync.Mutex
	events []Event
	region string
	_      [64]byte // keep adjacent ranks' hot state off one cache line
}

// Recorder implements mpi.Tracer and accumulates events per rank.
type Recorder struct {
	ranks []rankTrace
}

var _ mpi.Tracer = (*Recorder)(nil)

// New creates a recorder for np ranks.
func New(np int) *Recorder {
	return &Recorder{ranks: make([]rankTrace, np)}
}

// NP returns the number of ranks the recorder was created for.
func (r *Recorder) NP() int { return len(r.ranks) }

// Call implements mpi.Tracer.
func (r *Recorder) Call(rank int, rec mpi.CallRecord) {
	rt := &r.ranks[rank]
	rt.mu.Lock()
	rt.events = append(rt.events, Event{
		Rank: rank, Name: rec.Name, Kind: "comm", Region: rec.Region,
		Start: rec.Start, Dur: rec.Dur, Bytes: rec.Bytes,
		Wait: rec.Wait, Queued: rec.Queued, Peer: rec.Peer,
	})
	rt.mu.Unlock()
}

// Advance implements mpi.Tracer.
func (r *Recorder) Advance(rank int, kind string, start, dur float64) {
	rt := &r.ranks[rank]
	rt.mu.Lock()
	rt.events = append(rt.events, Event{
		Rank: rank, Name: kind, Kind: kind, Region: rt.region,
		Start: start, Dur: dur, Peer: -1,
	})
	rt.mu.Unlock()
}

// Region implements mpi.Tracer.
func (r *Recorder) Region(rank int, name string, at float64) {
	rt := &r.ranks[rank]
	rt.mu.Lock()
	rt.region = name
	rt.mu.Unlock()
}

// Events returns a copy of one rank's timeline.
func (r *Recorder) Events(rank int) []Event {
	rt := &r.ranks[rank]
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]Event(nil), rt.events...)
}

// Count returns the total recorded events.
func (r *Recorder) Count() int {
	n := 0
	for rank := range r.ranks {
		rt := &r.ranks[rank]
		rt.mu.Lock()
		n += len(rt.events)
		rt.mu.Unlock()
	}
	return n
}

// chromeEvent is the trace-event JSON schema ("X" = complete event).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChrome writes the whole timeline in Chrome trace-event format.
// Virtual seconds map to trace microseconds so second-scale runs render
// comfortably. Events stream to the encoder one at a time — memory stays
// O(1) in the event count — ordered deterministically by (rank, start).
func (r *Recorder) WriteChrome(w io.Writer) error {
	return writeChromeRuns(w, []*Recorder{r})
}

// writeChromeRuns streams one or more recordings, with the i-th
// recording's events under pid i.
func writeChromeRuns(w io.Writer, runs []*Recorder) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	for pid, rec := range runs {
		for rank := range rec.ranks {
			evs := rec.Events(rank)
			sort.SliceStable(evs, func(i, j int) bool { return evs[i].Start < evs[j].Start })
			for _, e := range evs {
				ce := chromeEvent{
					Name: e.Name, Cat: e.Kind, Ph: "X",
					TS: e.Start * 1e6, Dur: e.Dur * 1e6,
					PID: pid, TID: rank,
					Args: chromeArgs(e),
				}
				b, err := json.Marshal(ce)
				if err != nil {
					return err
				}
				if !first {
					if err := bw.WriteByte(','); err != nil {
						return err
					}
				}
				first = false
				if _, err := bw.Write(b); err != nil {
					return err
				}
			}
		}
	}
	if _, err := bw.WriteString("],\"displayTimeUnit\":\"ms\"}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// chromeArgs renders the event's metadata as string args. Wait-state
// floats use strconv's shortest round-trippable form so obs can parse
// them back exactly.
func chromeArgs(e Event) map[string]string {
	if e.Region == "" && e.Bytes <= 0 && e.Wait <= 0 && e.Queued <= 0 {
		return nil
	}
	args := map[string]string{}
	if e.Region != "" {
		args["region"] = e.Region
	}
	if e.Bytes > 0 {
		args["bytes"] = fmt.Sprintf("%d", e.Bytes)
	}
	if e.Wait > 0 {
		args["wait"] = strconv.FormatFloat(e.Wait, 'g', -1, 64)
		if e.Peer >= 0 {
			args["peer"] = strconv.Itoa(e.Peer)
		}
	}
	if e.Queued > 0 {
		args["queued"] = strconv.FormatFloat(e.Queued, 'g', -1, 64)
	}
	return args
}
