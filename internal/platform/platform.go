// Package platform assembles the CPU, network, I/O and noise models into
// descriptions of the three experimental platforms from Table I of the
// paper: the Vayu supercomputer, the DCC private VMware cloud and an
// Amazon EC2 cc1.4xlarge StarCluster.
package platform

import (
	"fmt"

	"repro/internal/cpumodel"
	"repro/internal/iomodel"
	"repro/internal/netmodel"
	"repro/internal/sim"
)

// Platform describes one compute platform.
type Platform struct {
	Name  string
	Nodes int // nodes available to jobs

	CPU        cpumodel.CPU
	MemPerNode int64 // bytes of RAM per node

	Inter netmodel.Link // inter-node interconnect
	Intra netmodel.Link // intra-node (shared-memory) transport
	FS    iomodel.FS    // shared filesystem

	// Virtualised marks guest-VM platforms (DCC, EC2); it selects the
	// virtualised shared-memory path and enables hypervisor noise.
	Virtualised bool

	// NUMAPinned is true when the MPI runtime can enforce NUMA affinity
	// (possible on Vayu, masked by the hypervisor on DCC/EC2).
	NUMAPinned bool

	// ComputeOverhead is a multiplier (>= 1) on all computation time,
	// modelling the virtualisation tax measured by the paper's Table III
	// computation ratios (EC2-4's rcomp of 1.17 at identical clocks).
	ComputeOverhead float64

	// ComputeJitter perturbs every computation charge (OS noise, HT
	// sibling interference, hypervisor scheduling).
	ComputeJitter sim.Jitter

	// Seed namespaces all random streams drawn on this platform.
	Seed uint64
}

// Validate reports configuration errors in the platform description.
func (p *Platform) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("platform: empty name")
	}
	if p.Nodes <= 0 {
		return fmt.Errorf("platform %s: need at least one node", p.Name)
	}
	if p.MemPerNode <= 0 {
		return fmt.Errorf("platform %s: MemPerNode must be positive", p.Name)
	}
	if p.ComputeOverhead < 1 {
		return fmt.Errorf("platform %s: ComputeOverhead must be >= 1", p.Name)
	}
	if err := p.CPU.Validate(); err != nil {
		return fmt.Errorf("platform %s: %w", p.Name, err)
	}
	if err := p.Inter.Validate(); err != nil {
		return fmt.Errorf("platform %s: %w", p.Name, err)
	}
	if err := p.Intra.Validate(); err != nil {
		return fmt.Errorf("platform %s: %w", p.Name, err)
	}
	if err := p.FS.Validate(); err != nil {
		return fmt.Errorf("platform %s: %w", p.Name, err)
	}
	return nil
}

// SlotsPerNode returns the schedulable slots per node (16 on EC2 where
// HyperThreading is exposed, 8 elsewhere).
func (p *Platform) SlotsPerNode() int { return p.CPU.Slots() }

// MaxRanks returns the total schedulable slots on the platform.
func (p *Platform) MaxRanks() int { return p.Nodes * p.SlotsPerNode() }

// Link returns the transport used between two nodes (intra-node transport
// when they are the same node).
func (p *Platform) Link(nodeA, nodeB int) *netmodel.Link {
	if nodeA == nodeB {
		return &p.Intra
	}
	return &p.Inter
}

const gb = int64(1) << 30

// nehalem returns the common Nehalem-EP CPU description used by all three
// platforms, at the given clock and memory speed. The E5520 (DCC) pairs
// its slower clock with slower DDR3, which is why the paper found the
// DCC/Vayu computation ratio "closely reflects the ratio of clock
// frequencies ... quite uniform across all sections" even for
// memory-bound code.
func nehalem(name string, clockHz, memBWPerSocket, coreMemBW float64, ht bool, numaPenalty float64) cpumodel.CPU {
	return cpumodel.CPU{
		Name:           name,
		ClockHz:        clockHz,
		FlopsPerCycle:  4,
		Efficiency:     0.11, // sustained fraction of peak for these codes
		Sockets:        2,
		CoresPerSocket: 4,
		HyperThreading: ht,
		HTBonus:        0.15,
		MemBWPerSocket: memBWPerSocket,
		CoreMemBW:      coreMemBW,
		NUMAPenalty:    numaPenalty,
	}
}

// Vayu returns the model of the Vayu supercomputer: 1492 Sun X6275 blades
// with dual Xeon X5570 (2.93 GHz), 24 GB/node, QDR InfiniBand and Lustre.
func Vayu() *Platform {
	return &Platform{
		Name:            "vayu",
		Nodes:           1492,
		CPU:             nehalem("Xeon X5570", 2.93e9, 17e9, 8.5e9, false, 1.0),
		MemPerNode:      24 * gb,
		Inter:           netmodel.QDRInfiniBand(),
		Intra:           netmodel.SharedMemory(false),
		FS:              iomodel.Lustre(),
		Virtualised:     false,
		NUMAPinned:      true, // OpenMPI on Vayu enforces NUMA affinity
		ComputeOverhead: 1.0,
		ComputeJitter:   sim.Jitter{Sigma: 0.012},
		Seed:            sim.SeedString("vayu"),
	}
}

// DCC returns the model of the DCC private cloud: 8 Dell M610 blades
// running VMware ESX, one 8-core guest per blade with dual Xeon E5520
// (2.27 GHz), 40 GB/node, an E1000 GigE vNIC behind the vSwitch, and NFS.
// The hypervisor masks NUMA from the guest, so no affinity is possible.
func DCC() *Platform {
	return &Platform{
		Name:            "dcc",
		Nodes:           8,
		CPU:             nehalem("Xeon E5520", 2.27e9, 12.8e9, 6.4e9, false, 0.62),
		MemPerNode:      40 * gb,
		Inter:           netmodel.GigEVSwitch(),
		Intra:           netmodel.SharedMemory(true),
		FS:              iomodel.NFSDCC(),
		Virtualised:     true,
		NUMAPinned:      false,
		ComputeOverhead: 1.06,
		ComputeJitter: sim.Jitter{
			Sigma:     0.035,
			SpikeProb: 0.002,
			SpikeMin:  0.5e-3,
			SpikeMax:  8e-3,
		},
		Seed: sim.SeedString("dcc"),
	}
}

// EC2 returns the model of the Amazon EC2 HPC cluster: 4 cc1.4xlarge
// instances (dual Xeon X5570, HyperThreading exposed as 16 slots),
// 20 GB/node, 10GigE in a cluster placement group under Xen, and NFS.
func EC2() *Platform {
	cpu := nehalem("Xeon X5570 (cc1.4xlarge)", 2.93e9, 17e9, 8.5e9, true, 0.88)
	cpu.HTBonus = 0 // "little benefit was gained from hyperthreading"
	return &Platform{
		Name:            "ec2",
		Nodes:           4,
		CPU:             cpu,
		MemPerNode:      20 * gb,
		Inter:           netmodel.TenGigEXen(),
		Intra:           netmodel.SharedMemory(true),
		FS:              iomodel.NFSEC2(),
		Virtualised:     true,
		NUMAPinned:      false,
		ComputeOverhead: 1.17,
		ComputeJitter: sim.Jitter{
			Sigma:     0.07,
			SpikeProb: 0.004,
			SpikeMin:  0.3e-3,
			SpikeMax:  6e-3,
		},
		Seed: sim.SeedString("ec2"),
	}
}

// Scaled returns a copy of p with enough nodes to host at least np
// ranks, for what-if scaling studies beyond the paper's machines (the
// E13 study's 10k+ rank worlds need more slots than even Vayu's 1492
// blades offer). Every per-node characteristic — CPU, memory, links,
// filesystem, jitter, seed — is left untouched, so results at np within
// the stock node count are identical to the unscaled platform; the name
// gains a "-s<nodes>" suffix only when the node count actually grows, to
// keep scaled results from aliasing stock ones in caches and manifests.
func Scaled(p *Platform, np int) *Platform {
	s := *p
	nodes := (np + s.SlotsPerNode() - 1) / s.SlotsPerNode()
	if nodes > s.Nodes {
		s.Nodes = nodes
		s.Name = fmt.Sprintf("%s-s%d", p.Name, nodes)
	}
	return &s
}

// All returns the three paper platforms in presentation order (DCC, EC2,
// Vayu — the column order of Table I).
func All() []*Platform {
	return []*Platform{DCC(), EC2(), Vayu()}
}

// ByName returns the named platform (case-sensitive: "vayu", "dcc", "ec2"),
// or an error.
func ByName(name string) (*Platform, error) {
	switch name {
	case "vayu":
		return Vayu(), nil
	case "dcc":
		return DCC(), nil
	case "ec2":
		return EC2(), nil
	}
	return nil, fmt.Errorf("platform: unknown platform %q (want vayu, dcc or ec2)", name)
}
