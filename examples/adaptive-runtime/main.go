// Adaptive-runtime demonstrates the two dynamic extensions (the paper's
// Section-7 future work) on a 64-module slice:
//
//  1. epoch feedback — the worst-calibrated benchmark (NPB-BT) starts with
//     ~8% model error; reading the RAPL counters after each epoch and
//     re-solving α removes it;
//  2. phase awareness — an application that switches from a compute-heavy
//     phase to a memory-heavy one either violates the budget (static caps,
//     hungry→light) or crawls (light→hungry) unless the planner
//     re-calibrates at the phase boundary.
//
// Run with:
//
//	go run ./examples/adaptive-runtime
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
	sys, err := cluster.New(cluster.HA8K(), modules, 5)
	if err != nil {
		log.Fatal(err)
	}
	ids, err := sys.AllocateFirst(modules)
	if err != nil {
		log.Fatal(err)
	}
	fw, err := core.NewFrameworkWorkers(sys, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	budget := units.Watts(modules * 70)

	fmt.Println("== epoch feedback on NPB-BT (the worst-calibrated benchmark) ==")
	static, err := fw.Run(workload.BT(), ids, budget, core.VaPc)
	if err != nil {
		log.Fatal(err)
	}
	dyn, err := fw.RunDynamic(workload.BT(), ids, budget, 4, false)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range dyn.Epochs {
		fmt.Printf("  epoch %d: alpha=%.3f  model error %.2f%%  power %.2f kW\n",
			e.Epoch, e.Alpha, e.ModelError*100, e.MeasuredPower.KW())
	}
	fmt.Printf("  static VaPc %.1f s  ->  dynamic %.1f s  (%.2fx)\n\n",
		float64(static.Elapsed()), float64(dyn.Elapsed),
		float64(static.Elapsed())/float64(dyn.Elapsed))

	fmt.Println("== phase awareness: *DGEMM phase then *STREAM phase ==")
	dg := workload.DGEMM()
	dg.Iterations = 10
	st := workload.StarSTREAM()
	st.Iterations = 15
	phases := []*workload.Benchmark{dg, st}
	budget = units.Watts(modules * 85)

	staticP, err := fw.RunPhasedStatic(phases, ids, budget, false)
	if err != nil {
		log.Fatal(err)
	}
	adaptiveP, err := fw.RunPhasedAdaptive(phases, ids, budget, false)
	if err != nil {
		log.Fatal(err)
	}
	show := func(name string, r *core.PhasedResult) {
		fmt.Printf("  %-8s", name)
		for _, p := range r.Phases {
			fmt.Printf("  [%s: alpha=%.2f %.1fs %.2fkW]", p.Bench, p.Alpha, float64(p.Elapsed), p.Power.KW())
		}
		verdict := "adheres"
		if r.MaxPower > budget {
			verdict = fmt.Sprintf("VIOLATES (+%.1f%%)", (float64(r.MaxPower)/float64(budget)-1)*100)
		}
		fmt.Printf("  peak %.2f/%.2f kW -> %s\n", r.MaxPower.KW(), budget.KW(), verdict)
	}
	show("static", staticP)
	show("adaptive", adaptiveP)
	fmt.Println("\nThe static planner sized its caps for *DGEMM's small DRAM draw; when")
	fmt.Println("*STREAM takes over, those stale caps let total power exceed the budget.")
	fmt.Println("Re-calibrating at the phase boundary costs one cheap test pair and adheres.")
}
