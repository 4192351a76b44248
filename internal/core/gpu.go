package core

import (
	"context"
	"fmt"

	"varpower/internal/cluster"
	"varpower/internal/hw/gpu"
	"varpower/internal/hw/module"
	"varpower/internal/telemetry"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// KernelFor derives the GPU kernel profile of a benchmark's offloaded
// portion from its CPU power profile: compute-bound codes (high frequency
// sensitivity) push boards close to TDP with an SM-heavy power mix, while
// bandwidth-bound codes draw less total power with a larger device-memory
// share. The derivation keeps existing workload names usable on hybrid
// systems without a second benchmark registry.
func KernelFor(bench *workload.Benchmark, arch *module.Arch, garch *gpu.Arch) gpu.KernelProfile {
	s := bench.FrequencySensitivity(arch)
	util := 0.72 + 0.22*s // fraction of TDP the average device draws at ClockNom
	total := util * float64(garch.TDP)
	mem := total * (0.15 + 0.25*(1-s))
	sm := total - mem
	dynFrac := 0.55
	if cpu := float64(bench.Profile.DynPower + bench.Profile.StaticPower); cpu > 0 {
		dynFrac = float64(bench.Profile.DynPower) / cpu
	}
	return gpu.KernelProfile{
		Kernel:           bench.Name,
		DynPower:         units.Watts(sm * dynFrac),
		StaticPower:      units.Watts(sm * (1 - dynFrac)),
		MemPower:         units.Watts(mem),
		ClockSensitivity: 0.55 + 0.4*s,
		ResidualSigma:    bench.Profile.ResidualSigma,
	}
}

// GPUFraction is the share of a benchmark's work the hybrid port offloads
// to the device class: compute-bound codes offload most of their work,
// bandwidth/communication-bound codes less. At nominal clocks the CPU and
// GPU phases overlap, so the class time contributions are
// (1−g)·T and g·T respectively — what makes the class split a balancing
// problem rather than a fixed ratio.
func GPUFraction(bench *workload.Benchmark, arch *module.Arch) float64 {
	return units.Clamp(0.35+0.5*bench.FrequencySensitivity(arch), 0.3, 0.85)
}

// GPUPVTEntry stores one device's variation scales: measured board power
// divided by the population average, at the nominal and minimum SM clocks.
type GPUPVTEntry struct {
	DeviceID int     `json:"device"`
	PowerMax float64 `json:"power_max"`
	PowerMin float64 `json:"power_min"`
}

func (e GPUPVTEntry) reading() reading {
	return reading{id: e.DeviceID, n: 1, v: [2][2]float64{{e.PowerMax}, {e.PowerMin}}}
}

func (GPUPVTEntry) withReading(r reading) GPUPVTEntry {
	return GPUPVTEntry{DeviceID: r.id, PowerMax: r.v[0][0], PowerMin: r.v[1][0]}
}

// GPUPVT is the install-time, application-independent Power Variation Table
// of a system's GPU device class.
type GPUPVT struct {
	System string `json:"system"`
	Kernel string `json:"kernel"`
	table[GPUPVTEntry]
}

// GenerateGPUPVT builds the device-class table by test-running the
// microbenchmark's kernel on every device at the nominal and minimum SM
// clocks, then normalising by the population average — GeneratePVT's
// install-time sweep, with its MAD outlier quarantine under fault
// injection. Deterministic for every worker count.
func GenerateGPUPVT(ctx context.Context, sys *cluster.System, workers int) (*GPUPVT, error) {
	n := sys.NumGPUs()
	if n == 0 {
		return nil, fmt.Errorf("core: %s has no GPU device class", sys.Spec.Name)
	}
	span := telemetry.StartSpan("gpupvt.generate").Annotate("%s devices=%d", sys.Spec.Name, n)
	defer span.End()
	micro := workload.PVTMicrobenchmark()
	t, err := sweep[GPUPVTEntry](ctx, gpuClass{sys.Spec.GPU.Arch}, sys, micro, n, workers)
	if err != nil {
		return nil, err
	}
	return &GPUPVT{System: sys.Spec.Name, Kernel: micro.Name, table: t}, nil
}

// GPUPMTEntry holds the two power parameters predicted (or measured) for
// one device: board power at the nominal and minimum SM clocks.
type GPUPMTEntry struct {
	DeviceID int
	PowerMax units.Watts
	PowerMin units.Watts
}

func (e GPUPMTEntry) reading() reading {
	return reading{id: e.DeviceID, n: 1, v: [2][2]float64{{float64(e.PowerMax)}, {float64(e.PowerMin)}}}
}

func (GPUPMTEntry) withReading(r reading) GPUPMTEntry {
	return GPUPMTEntry{DeviceID: r.id, PowerMax: units.Watts(r.v[0][0]), PowerMin: units.Watts(r.v[1][0])}
}

// GPUPMT is the application-dependent Power Model Table of the GPU class.
type GPUPMT struct {
	Kernel  string
	Entries []GPUPMTEntry
}

// GPUAlloc is the power allocation derived for one device.
type GPUAlloc struct {
	DeviceID int
	Power    units.Watts
}

// GPUAllocation is the α-solve output for the GPU class under its class
// budget: the same linear program as the CPU side with the SM-clock ladder
// standing in for the P-state ladder.
type GPUAllocation struct {
	Alpha       float64
	Clock       units.Hertz
	Feasible    bool
	Clamped     bool
	Constrained bool
	Entries     []GPUAlloc
	Budget      units.Watts
}

// TotalPredicted sums the per-device allocations.
func (a *GPUAllocation) TotalPredicted() units.Watts {
	var sum units.Watts
	for _, e := range a.Entries {
		sum += e.Power
	}
	return sum
}
