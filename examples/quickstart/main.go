// Quickstart: the full variation-aware power budgeting pipeline on a small
// slice of the simulated HA8K machine.
//
// It walks the five steps of the paper's framework (Figure 4):
//
//  1. instrument the application with PMMDs,
//  2. build (or load) the system's Power Variation Table,
//  3. test-run the application on one module at fmax and fmin,
//  4. solve for α and per-module power allocations under a budget,
//  5. run the application under RAPL caps (VaPc) and compare with the
//     variation-unaware Naive scheme.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/units"
	"varpower/internal/workload"
)

func main() {
	const modules = 64
	const perModuleBudget = 70 // watts — a tight constraint (Table 4's Cm=70 row)

	// A 64-module slice of the HA8K system (Intel Ivy Bridge, RAPL).
	sys, err := cluster.New(cluster.HA8K(), modules, 1)
	if err != nil {
		log.Fatal(err)
	}
	ids, err := sys.AllocateFirst(modules)
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: instrument the application.
	bench := workload.MHD()
	inst, err := core.Instrument(bench)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instrumented %s with %v and %v\n",
		bench.Name, inst.Directives[0].Kind, inst.Directives[1].Kind)

	// Step 2: the install-time PVT (built from *STREAM on every module).
	fw, err := core.NewFrameworkWorkers(sys, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	e := fw.PVT.Entries[0]
	fmt.Printf("PVT ready: %d modules; module 0 scales cpu@fmax=%.3f dram@fmax=%.3f\n",
		len(fw.PVT.Entries), e.CPUMax, e.DramMax)

	// Steps 3+4: test runs, calibration, and the α solve, per scheme.
	budget := units.Watts(modules * perModuleBudget)
	fmt.Printf("\nbudget: %v across %d modules (avg %d W/module)\n\n",
		budget, modules, perModuleBudget)

	var naive *core.SchemeRun
	for _, scheme := range []core.Scheme{core.Naive, core.VaPc, core.VaFs} {
		run, err := fw.Run(bench, ids, budget, scheme)
		if err != nil {
			log.Fatalf("%v: %v", scheme, err)
		}
		if scheme == core.Naive {
			naive = run
		}
		speedup := float64(naive.Elapsed()) / float64(run.Elapsed())
		fmt.Printf("%-6v alpha=%.3f  target=%v  elapsed=%7.1f s  power=%6.1f/%0.1f kW  speedup=%.2fx\n",
			scheme, run.Alloc.Alpha, run.Alloc.Freq,
			float64(run.Elapsed()), run.Result.AvgTotalPower.KW(), budget.KW(), speedup)
	}

	fmt.Println("\nNote: VaFs may land slightly above the budget — frequency selection")
	fmt.Println("enforces a clock, not a power bound (Section 5.3's stated FS caveat);")
	fmt.Println("VaPc's RAPL caps are strict and can never exceed theirs.")

	// Step 5 detail: show a few of VaPc's per-module allocations — the
	// variation-aware caps differ module to module.
	run, err := fw.Run(bench, ids, budget, core.VaPc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nfirst four VaPc module allocations:")
	for _, a := range run.Alloc.Entries[:4] {
		fmt.Printf("  module %2d: Pmodule=%5.1f W  Pcpu cap=%5.1f W  Pdram=%4.1f W\n",
			a.ModuleID, float64(a.Pmodule), float64(a.Pcpu), float64(a.Pdram))
	}
}
