// Multi-job demonstrates the scheduler extension (the paper's Section-7
// future work): several applications space-sharing one power-constrained
// machine, comparing the conventional equal-per-module power split against
// the global-α partitioning that lifts the paper's budgeting algorithm to
// the whole system.
//
// Run with:
//
//	go run ./examples/multi-job
package main

import (
	"fmt"
	"log"
	"os"

	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/report"
	"varpower/internal/sched"
	"varpower/internal/units"
	"varpower/internal/workload"
)

func main() {
	const modules = 192
	sys, err := cluster.New(cluster.HA8K(), modules, 3)
	if err != nil {
		log.Fatal(err)
	}
	fw, err := core.NewFrameworkWorkers(sys, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	scheduler := sched.New(fw)

	jobs := []sched.Job{
		{Name: "plasma (MHD)", Bench: workload.MHD(), Modules: 64},
		{Name: "cfd (NPB-BT)", Bench: workload.BT(), Modules: 64},
		{Name: "linpack (*DGEMM)", Bench: workload.DGEMM(), Modules: 64},
	}
	// A tight machine constraint: 65 W/module on average.
	cs := units.Watts(modules * 65)

	for _, policy := range []sched.SplitPolicy{sched.SplitEqualPerModule, sched.SplitGlobalAlpha} {
		res, err := scheduler.Run(jobs, sched.Config{
			SystemPower: cs,
			Policy:      policy,
			Scheme:      core.VaFs,
		})
		if err != nil {
			log.Fatal(err)
		}
		t := report.NewTable(
			fmt.Sprintf("\npolicy %v  (system power %v, scheme VaFs)", policy, cs),
			"Job", "Modules", "Budget", "W/module", "alpha", "Elapsed", "Power")
		for _, jr := range res.Jobs {
			t.AddRow(jr.Job.Name,
				fmt.Sprint(len(jr.Modules)),
				jr.Budget.String(),
				report.Cellf(float64(jr.Budget)/float64(len(jr.Modules)), 1),
				report.Cellf(jr.Run.Alloc.Alpha, 3),
				fmt.Sprintf("%.1f s", float64(jr.Run.Elapsed())),
				fmt.Sprintf("%.1f kW", jr.Run.Result.AvgTotalPower.KW()))
		}
		if err := t.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("system: makespan %.1f s, measured %.1f/%.1f kW, throughput %.1f jobs/h\n",
			float64(res.Makespan), res.TotalPower.KW(), cs.KW(), res.Throughput())
	}

	fmt.Println("\nUnder equal-per-module splitting the power-hungry *DGEMM job crawls")
	fmt.Println("while the lighter jobs leave budget unused; global-α gives every job")
	fmt.Println("the same α — the same relative progress — under the same total power.")
}
