package core

import (
	"fmt"

	"varpower/internal/cluster"
	"varpower/internal/measure"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// PMTEntry holds the four application-specific power parameters predicted
// (or measured) for one module: CPU and DRAM power at the maximum and
// minimum CPU frequencies (Section 5.2).
type PMTEntry struct {
	ModuleID int
	CPUMax   units.Watts
	DramMax  units.Watts
	CPUMin   units.Watts
	DramMin  units.Watts
}

// ModuleMax returns the module (CPU+DRAM) power at fmax.
func (e PMTEntry) ModuleMax() units.Watts { return e.CPUMax + e.DramMax }

// ModuleMin returns the module (CPU+DRAM) power at fmin.
func (e PMTEntry) ModuleMin() units.Watts { return e.CPUMin + e.DramMin }

func (e PMTEntry) reading() reading {
	return reading{id: e.ModuleID, n: 2, v: [2][2]float64{
		{float64(e.CPUMax), float64(e.DramMax)},
		{float64(e.CPUMin), float64(e.DramMin)},
	}}
}

func (PMTEntry) withReading(r reading) PMTEntry {
	return PMTEntry{
		ModuleID: r.id,
		CPUMax:   units.Watts(r.v[0][0]), DramMax: units.Watts(r.v[0][1]),
		CPUMin: units.Watts(r.v[1][0]), DramMin: units.Watts(r.v[1][1]),
	}
}

// PMT is the application-dependent Power Model Table: one entry per module
// allocated to the application.
type PMT struct {
	Workload string
	Entries  []PMTEntry
}

// Averages returns the mean of each parameter across the table.
func (p *PMT) Averages() PMTEntry {
	avg, _ := mean(p.Entries, nil)
	return PMTEntry{}.withReading(avg)
}

// TestPair is the result of the paper's two low-cost single-module test
// runs: measured powers at fmax and at fmin on one module.
type TestPair struct {
	ModuleID int
	AtMax    measure.TestRunResult
	AtMin    measure.TestRunResult
}

func (p TestPair) reading() reading {
	return reading{id: p.ModuleID, n: 2, v: [2][2]float64{
		{float64(p.AtMax.CPUPower), float64(p.AtMax.DramPower)},
		{float64(p.AtMin.CPUPower), float64(p.AtMin.DramPower)},
	}}
}

// RunTestPair executes the two single-module test runs on module id.
func RunTestPair(sys *cluster.System, bench *workload.Benchmark, id int) (TestPair, error) {
	arch := sys.Spec.Arch
	hi, err := measure.TestRun(sys, bench, id, arch.FNom)
	if err != nil {
		return TestPair{}, fmt.Errorf("core: test run at fmax: %w", err)
	}
	lo, err := measure.TestRun(sys, bench, id, arch.FMin)
	if err != nil {
		return TestPair{}, fmt.Errorf("core: test run at fmin: %w", err)
	}
	return TestPair{ModuleID: id, AtMax: hi, AtMin: lo}, nil
}

// Calibrate performs the paper's power model calibration (Section 5.2,
// Figure 6): divide the test module's measured powers by its PVT scales to
// estimate the system-wide averages, then multiply those averages by every
// target module's scales to predict its four parameters.
func Calibrate(pvt *PVT, test TestPair, bench *workload.Benchmark, moduleIDs []int) (*PMT, error) {
	rows, err := calibrate[PVTEntry, PMTEntry](&pvt.table, test.reading(), moduleIDs)
	if err != nil {
		return nil, err
	}
	return &PMT{Workload: bench.Name, Entries: rows}, nil
}

// OraclePMT measures every allocated module directly — a complete execution
// of the application on all modules, the perfect calibration behind the
// paper's VaPcOr/VaFsOr baselines. Impractical in production (that is the
// point of the PVT), but it bounds how much accuracy calibration loses. The
// per-module measurement fans out over workers (< 1 selects GOMAXPROCS, 1
// is fully serial); results are byte-identical for every worker count.
// A module whose reading is unusable (a 0 W sample, or more power at fmin
// than at fmax) takes the mean of the readable modules.
func OraclePMT(sys *cluster.System, bench *workload.Benchmark, moduleIDs []int, workers int) (*PMT, error) {
	rows, err := oracle[PMTEntry](cpuClass{sys.Spec.Arch}, sys, bench, moduleIDs, workers)
	if err != nil {
		return nil, err
	}
	return &PMT{Workload: bench.Name, Entries: rows}, nil
}

// NaivePMT builds the application-independent, variation-unaware model: TDP
// at fmax and the fixed empirical thresholds at fmin, identical for every
// module.
func NaivePMT(sys *cluster.System, moduleIDs []int) *PMT {
	return &PMT{Workload: naiveName, Entries: fill[PMTEntry](moduleIDs, cpuClass{sys.Spec.Arch}.naive())}
}
