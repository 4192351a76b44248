package core_test

import (
	"fmt"

	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// Example walks the full Figure-4 pipeline on a small slice of the HA8K
// preset: PVT generation, test runs, calibration, the α solve, and a
// VaFs final run.
func Example() {
	sys, err := cluster.New(cluster.HA8K(), 16, 1)
	if err != nil {
		panic(err)
	}
	ids, _ := sys.AllocateFirst(16)
	fw, err := core.NewFrameworkWorkers(sys, nil, 0) // PVT from *STREAM
	if err != nil {
		panic(err)
	}
	run, err := fw.Run(workload.MHD(), ids, units.Watts(16*70), core.VaFs)
	if err != nil {
		panic(err)
	}
	fmt.Printf("alpha in (0,1): %v\n", run.Alloc.Alpha > 0 && run.Alloc.Alpha < 1)
	fmt.Printf("modules allocated: %d\n", len(run.Alloc.Entries))
	fmt.Printf("within budget prediction: %v\n", run.Alloc.TotalPredicted() <= run.Alloc.Budget)
	// Output:
	// alpha in (0,1): true
	// modules allocated: 16
	// within budget prediction: true
}

// ExampleSolve shows the budgeting algorithm alone: given a two-module
// Power Model Table and a budget, it returns the common α and per-module
// allocations (Equations 6–9).
func ExampleSolve() {
	pmt := &core.PMT{Workload: "demo", Entries: []core.PMTEntry{
		{ModuleID: 0, CPUMax: 100, DramMax: 12, CPUMin: 50, DramMin: 10},
		{ModuleID: 1, CPUMax: 120, DramMax: 14, CPUMin: 55, DramMin: 11},
	}}
	arch := cluster.HA8K().Arch
	alloc, err := core.Solve(pmt, arch, 180) // 90 W/module on average
	if err != nil {
		panic(err)
	}
	fmt.Printf("alpha: %.3f\n", alloc.Alpha)
	fmt.Printf("module 0 gets %.1f W, module 1 gets %.1f W\n",
		float64(alloc.Entries[0].Pmodule), float64(alloc.Entries[1].Pmodule))
	fmt.Printf("total: %.1f W <= 180 W\n", float64(alloc.TotalPredicted()))
	// Output:
	// alpha: 0.450
	// module 0 gets 83.4 W, module 1 gets 96.6 W
	// total: 180.0 W <= 180 W
}
