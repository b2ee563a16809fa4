package mpi

import (
	"fmt"
	"testing"

	"repro/internal/platform"
)

func TestAlltoallv(t *testing.T) {
	// Rank r sends r+1 elements (value 100r+d) to each destination d.
	const np = 4
	run(t, platform.Vayu(), np, func(c *Comm) error {
		r := c.Rank()
		sendCounts := make([]int, np)
		recvCounts := make([]int, np)
		var send []float64
		for d := 0; d < np; d++ {
			sendCounts[d] = r + 1
			for k := 0; k < r+1; k++ {
				send = append(send, float64(100*r+d))
			}
		}
		total := 0
		for s := 0; s < np; s++ {
			recvCounts[s] = s + 1
			total += s + 1
		}
		recv := make([]float64, total)
		c.Alltoallv(send, sendCounts, recv, recvCounts)
		off := 0
		for s := 0; s < np; s++ {
			for k := 0; k < s+1; k++ {
				if recv[off] != float64(100*s+r) {
					return fmt.Errorf("rank %d: from %d got %v, want %v", r, s, recv[off], 100*s+r)
				}
				off++
			}
		}
		return nil
	})
}

func TestAlltoallvCountMismatchPanics(t *testing.T) {
	_, err := RunOn(platform.Vayu(), 2, func(c *Comm) error {
		send := []float64{1, 2}
		recv := make([]float64, 2)
		// Wrong recvCounts: rank claims to expect 2 from each but peers
		// send 1.
		c.Alltoallv(send, []int{1, 1}, recv, []int{2, 2})
		return nil
	})
	if err == nil {
		t.Fatal("count mismatch should fail the run")
	}
}

func TestAlltoallvN(t *testing.T) {
	const np = 5
	run(t, platform.DCC(), np, func(c *Comm) error {
		sendBytes := make([]int, np)
		for d := 0; d < np; d++ {
			sendBytes[d] = 100 * (c.Rank() + 1)
		}
		got := c.AlltoallvN(sendBytes)
		for s := 0; s < np; s++ {
			if got[s] != 100*(s+1) {
				return fmt.Errorf("rank %d: from %d got %d bytes, want %d", c.Rank(), s, got[s], 100*(s+1))
			}
		}
		return nil
	})
}

func TestReduceScatterBlock(t *testing.T) {
	const np = 4
	run(t, platform.Vayu(), np, func(c *Comm) error {
		// data[p*n] where each rank contributes its rank value everywhere.
		data := make([]float64, np*2)
		for i := range data {
			data[i] = float64(c.Rank())
		}
		recv := make([]float64, 2)
		c.ReduceScatterBlock(Sum, data, recv)
		want := float64(np*(np-1)) / 2 // 0+1+2+3
		if recv[0] != want || recv[1] != want {
			return fmt.Errorf("rank %d: recv=%v, want %v", c.Rank(), recv, want)
		}
		return nil
	})
}

func TestScan(t *testing.T) {
	const np = 6
	run(t, platform.Vayu(), np, func(c *Comm) error {
		data := []float64{float64(c.Rank() + 1)}
		c.Scan(Sum, data)
		want := float64((c.Rank() + 1) * (c.Rank() + 2) / 2)
		if data[0] != want {
			return fmt.Errorf("rank %d: scan=%v, want %v", c.Rank(), data[0], want)
		}
		return nil
	})
}

func TestExscan(t *testing.T) {
	const np = 5
	run(t, platform.Vayu(), np, func(c *Comm) error {
		data := []float64{float64(c.Rank() + 1)}
		c.Exscan(Sum, data)
		want := float64(c.Rank() * (c.Rank() + 1) / 2) // sum of 1..rank
		if data[0] != want {
			return fmt.Errorf("rank %d: exscan=%v, want %v", c.Rank(), data[0], want)
		}
		return nil
	})
}

func TestScanSingleRank(t *testing.T) {
	run(t, platform.Vayu(), 1, func(c *Comm) error {
		data := []float64{7}
		c.Scan(Sum, data)
		if data[0] != 7 {
			return fmt.Errorf("scan on 1 rank changed data: %v", data[0])
		}
		c.Exscan(Sum, data)
		if data[0] != 0 {
			return fmt.Errorf("exscan on 1 rank should zero: %v", data[0])
		}
		return nil
	})
}
