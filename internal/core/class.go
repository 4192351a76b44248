package core

import (
	"fmt"

	"varpower/internal/cluster"
	"varpower/internal/hw/gpu"
	"varpower/internal/hw/module"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// deviceClass is what differs between the device classes the calibration
// pipeline (calibrate.go) runs over: cpuClass for the paper's CPU+DRAM
// modules, gpuClass for accelerator boards.
type deviceClass interface {
	// noun names one device of the class in messages.
	noun() string
	// probe runs bench on device id at the top and at the bottom of the
	// class's ladder — the paper's two test runs.
	probe(sys *cluster.System, bench *workload.Benchmark, id int) (reading, error)
	// ladder is the control range α interpolates over.
	ladder() (bottom, top units.Hertz)
	// naive is the spec-sheet row of the variation-unaware Naive model.
	naive() reading
	// weights ranks devices for the test runs, one weight per component;
	// its length is the class's component count.
	weights() []float64
	// sweepRetries is the extra probes a faulty install sweep grants a
	// failing device before quarantining it; 0 makes the failure fatal.
	sweepRetries() int
}

// cpuClass is the paper's device class: modules of a CPU package and its
// DRAM, pinned to P-states between fmin and fnom.
type cpuClass struct{ arch *module.Arch }

// cpuWeights rank DRAM scales at a quarter of CPU scales.
var cpuWeights = []float64{1, 0.25}

// Naive model constants (Section 6): the variation-unaware scheme takes
// Pcpu_max/Pdram_max from the architecture's TDP values and uses the
// empirically observed degradation threshold of 40 W CPU / 10 W DRAM as the
// minimum-frequency powers. The thresholds are HA8K numbers; other
// architectures scale by TDP ratio.
const (
	naiveCPUMinRef  = 40.0
	naiveDramMinRef = 10.0
	naiveRefTDP     = 130.0
	naiveRefDram    = 62.0
)

func (cpuClass) noun() string       { return "module" }
func (cpuClass) weights() []float64 { return cpuWeights }
func (cpuClass) sweepRetries() int  { return 2 }

func (c cpuClass) ladder() (bottom, top units.Hertz) { return c.arch.FMin, c.arch.FNom }

func (cpuClass) probe(sys *cluster.System, bench *workload.Benchmark, id int) (reading, error) {
	pair, err := RunTestPair(sys, bench, id)
	return pair.reading(), err
}

func (c cpuClass) naive() reading {
	return reading{n: 2, v: [2][2]float64{
		{float64(c.arch.TDP), float64(c.arch.DramTDP)},
		{naiveCPUMinRef * float64(c.arch.TDP) / naiveRefTDP, naiveDramMinRef * float64(c.arch.DramTDP) / naiveRefDram},
	}}
}

// gpuClass is the accelerator device class: boards with locked SM clocks
// between ClockMin and ClockNom standing in for P-states.
type gpuClass struct{ arch *gpu.Arch }

var gpuWeights = []float64{1}

func (gpuClass) noun() string       { return "device" }
func (gpuClass) weights() []float64 { return gpuWeights }
func (gpuClass) sweepRetries() int  { return 0 }

func (c gpuClass) ladder() (bottom, top units.Hertz) { return c.arch.ClockMin, c.arch.ClockNom }

// probe reads the steady-state board power with the SM clock locked at
// each end of the ladder — no MPI run, and through the controller, so
// injected faults perturb it like any production reading.
func (c gpuClass) probe(sys *cluster.System, bench *workload.Benchmark, id int) (reading, error) {
	k := KernelFor(bench, sys.Spec.Arch, c.arch)
	ctl := sys.GPUCtl(id)
	r := reading{id: id, n: 1}
	for end, clock := range [2]units.Hertz{c.arch.ClockNom, c.arch.ClockMin} {
		if _, err := ctl.LockClocks(clock); err != nil {
			return reading{}, err
		}
		op, ok := ctl.OperatingPoint(k)
		ctl.UnlockClocks()
		if !ok {
			return reading{}, fmt.Errorf("core: GPU test run on device %d at %v found no operating point", id, clock)
		}
		r.v[end][0] = float64(op.Power)
	}
	return r, nil
}

// naive is the board TDP at the nominal clock and the spec-sheet minimum
// power limit at the minimum clock.
func (c gpuClass) naive() reading {
	min := c.arch.MinLimit
	if min <= 0 {
		min = units.Watts(0.45 * float64(c.arch.TDP))
	}
	return reading{n: 1, v: [2][2]float64{{float64(c.arch.TDP)}, {float64(min)}}}
}
