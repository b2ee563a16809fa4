package main

import (
	"fmt"

	"repro/internal/report"
)

// checker verifies every operation's simulated statistics. A mismatch
// counts the operation as failed; it never stops the run.
type checker struct {
	seed uint64
	// ref is the shipped reference for this workload and seed (nil when
	// the seed has none: then repeat determinism and the invariants are
	// what is checked).
	ref map[string]stats
	// seen holds each operation's first statistics in this process;
	// later executions, the traced ones included, must equal them.
	seen      map[string]stats
	attempted int
	failed    int
}

func (c *checker) fail(op, why string) {
	c.failed++
	fmt.Printf("FAIL %s: %s\n", op, why)
}

// check records one execution and reports whether it passed. seed0
// holds the values a seed-0 execution must print as a committed
// artefact does.
func (c *checker) check(op string, seed0 map[string]string, s stats, err error) bool {
	c.attempted++
	if err != nil {
		c.fail(op, err.Error())
		return false
	}
	if why := invariant(s); why != "" {
		c.fail(op, why)
		return false
	}
	if ref, ok := c.ref[op]; ok && s != ref {
		c.fail(op, fmt.Sprintf("statistics differ from the reference:\n  got  %+v\n  want %+v", s, ref))
		return false
	}
	if first, ok := c.seen[op]; ok && s != first {
		c.fail(op, fmt.Sprintf("statistics differ from this run's first execution:\n  got  %+v\n  want %+v", s, first))
		return false
	}
	c.seen[op] = s
	if c.seed == 0 {
		for _, field := range sortedKeys(seed0) {
			if got, want := artefactField(s, field), seed0[field]; got != want {
				c.fail(op, fmt.Sprintf("seed-0 %s %s, committed artefact has %s", field, got, want))
				return false
			}
		}
	}
	return true
}

// invariant checks what must hold whatever the seed.
func invariant(s stats) string {
	if s.Jobs > 0 {
		if s.Completed+s.Killed != s.Jobs {
			return fmt.Sprintf("conservation: %d completed + %d killed != %d jobs", s.Completed, s.Killed, s.Jobs)
		}
		if s.Started != int64(s.Jobs) {
			return fmt.Sprintf("%d jobs started of %d", s.Started, s.Jobs)
		}
		return ""
	}
	if s.VirtualS <= 0 || s.Msgs <= 0 || s.CommPct <= 0 || s.CommPct >= 100 {
		return fmt.Sprintf("implausible simulation statistics %+v", s)
	}
	return ""
}

func artefactField(s stats, field string) string {
	switch field {
	case "comm_pct":
		return report.FormatFloat(s.CommPct)
	case "app_s":
		return report.FormatFloat(s.AppS)
	case "virtual_s":
		return report.FormatFloat(s.VirtualS)
	case "digest12":
		if len(s.Digest) < 12 {
			return s.Digest
		}
		return s.Digest[:12]
	}
	return "?"
}

// refNote says what the statistics were checked against.
func (c *checker) refNote() string {
	if c.ref != nil {
		return fmt.Sprintf("shipped for seed %d", c.seed)
	}
	return fmt.Sprintf("none shipped for seed %d (repeat determinism and invariants checked)", c.seed)
}
