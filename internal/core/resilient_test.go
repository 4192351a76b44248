package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/faults"
	"varpower/internal/flight"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// faultyFramework builds an n-module HA8K framework with the plan installed
// before PVT generation (so quarantine paths are exercised too).
func faultyFramework(t *testing.T, n, workers int, plan *faults.Plan) (*Framework, []int) {
	t.Helper()
	sys := cluster.MustNew(cluster.HA8K(), n, 0x5c15)
	in, err := faults.NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	sys.InstallFaults(in)
	ids, err := sys.AllocateFirst(n)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := NewFrameworkWorkers(sys, nil, workers)
	if err != nil {
		t.Fatal(err)
	}
	return fw, ids
}

// twoDeathsPlan kills 2 of the 64 modules mid-run.
func twoDeathsPlan() *faults.Plan {
	return &faults.Plan{Name: "two-of-64", Events: []faults.Event{
		{Module: 11, Kind: faults.KindModuleDeath, Start: 4},
		{Module: 40, Kind: faults.KindModuleDeath, Start: 9},
	}}
}

// TestRunResilientSurvivesTwoDeaths is the issue's acceptance scenario: a
// plan killing 2 of 64 modules mid-run must not deadlock, must surface
// partial results with health verdicts, and the re-solved allocation must
// keep the total within the original constraint.
func TestRunResilientSurvivesTwoDeaths(t *testing.T) {
	const n = 64
	budget := units.Watts(80 * n)
	fw, ids := faultyFramework(t, n, 0, twoDeathsPlan())
	run, err := fw.RunResilient(workload.MHD(), ids, budget, VaPc)
	if err != nil {
		t.Fatalf("resilient run failed instead of degrading: %v", err)
	}
	if !run.Failed() || !reflect.DeepEqual(run.Dead, []int{11, 40}) {
		t.Fatalf("dead modules %v, want [11 40]", run.Dead)
	}
	// The original run carries per-module health verdicts (partial results).
	if len(run.Result.Health) != n {
		t.Fatalf("health covers %d of %d modules", len(run.Result.Health), n)
	}
	if got := run.Result.DeadRanks(); len(got) != 2 {
		t.Fatalf("dead ranks %v", got)
	}
	if run.Recovered <= 0 {
		t.Fatalf("no power recovered from dead allocations: %v", run.Recovered)
	}
	// The re-solve covers exactly the survivors and keeps the predicted
	// total within the original budget.
	if run.ReAlloc == nil || len(run.ReAlloc.Entries) != n-2 {
		t.Fatalf("re-solved allocation covers %d modules, want %d", len(run.ReAlloc.Entries), n-2)
	}
	for _, e := range run.ReAlloc.Entries {
		if e.ModuleID == 11 || e.ModuleID == 40 {
			t.Fatalf("dead module %d re-allocated", e.ModuleID)
		}
	}
	if tot := run.ReAlloc.TotalPredicted(); float64(tot) > float64(budget)*(1+1e-9) {
		t.Fatalf("re-solved total %v exceeds original budget %v", tot, budget)
	}
	if run.ReAlloc.Alpha <= 0 {
		t.Fatalf("re-solved alpha %v", run.ReAlloc.Alpha)
	}
	// The degraded re-run finished and is what FinalResult reports.
	if run.ReResult.Elapsed <= 0 {
		t.Fatal("degraded re-run did not finish")
	}
	if run.FinalResult().Elapsed != run.ReResult.Elapsed {
		t.Fatal("FinalResult is not the degraded re-run")
	}
	// Survivors of the re-run draw no more than the re-solved budget allows
	// (small accounting tolerance).
	if avg := run.ReResult.AvgTotalPower; float64(avg) > float64(budget)*1.02 {
		t.Fatalf("degraded re-run average power %v above budget %v", avg, budget)
	}
}

// TestRunResilientHealthyPassThrough: with no deaths the resilient wrapper
// must return the plain run untouched — no re-solve, no re-run.
func TestRunResilientHealthyPassThrough(t *testing.T) {
	const n = 24
	sys := cluster.MustNew(cluster.HA8K(), n, 0x5c15)
	ids, err := sys.AllocateFirst(n)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := NewFrameworkWorkers(sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Clones measure byte-identically to each other; repeated runs on one
	// system advance its controllers' RNG state.
	plain, err := fw.Clone().Run(workload.EP(), ids, units.Watts(80*n), VaFs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fw.Clone().RunResilient(workload.EP(), ids, units.Watts(80*n), VaFs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() || res.ReAlloc != nil || res.Recovered != 0 {
		t.Fatalf("healthy run triggered degradation: %+v", res)
	}
	if !reflect.DeepEqual(plain.Result, res.FinalResult()) {
		t.Fatal("healthy resilient run differs from plain run")
	}
}

// TestReSolveRogueReserve: rogue draws (drifting caps) shrink the re-solved
// budget instead of being re-handed to survivors.
func TestReSolveRogueReserve(t *testing.T) {
	const n = 16
	sys := cluster.MustNew(cluster.HA8K(), n, 0x5c15)
	ids, _ := sys.AllocateFirst(n)
	fw, err := NewFrameworkWorkers(sys, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	budget := units.Watts(85 * n)
	run, err := fw.Run(workload.DGEMM(), ids, budget, VaPc)
	if err != nil {
		t.Fatal(err)
	}
	base, _, err := ReSolve(run.Alloc, run.PMT, fw.Sys.Spec.Arch, []int{3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rogue := map[int]units.Watts{5: 40, 3: 100 /* dead: ignored */}
	alloc, recovered, err := ReSolve(run.Alloc, run.PMT, fw.Sys.Spec.Arch, []int{3}, rogue)
	if err != nil {
		t.Fatal(err)
	}
	if recovered <= 0 {
		t.Fatal("no recovery from the dead module")
	}
	if alloc.Budget != base.Budget-40 {
		t.Fatalf("rogue reserve not applied: %v vs %v", alloc.Budget, base.Budget)
	}
	if alloc.Alpha >= base.Alpha {
		t.Fatalf("alpha did not shrink under the rogue reserve: %v vs %v", alloc.Alpha, base.Alpha)
	}
	// Consuming the whole budget must error, not panic or misallocate.
	if _, _, err := ReSolve(run.Alloc, run.PMT, fw.Sys.Spec.Arch, nil,
		map[int]units.Watts{0: budget * 2}); err == nil {
		t.Fatal("rogue draws beyond the budget accepted")
	}
	// Killing everyone must error.
	if _, _, err := ReSolve(run.Alloc, run.PMT, fw.Sys.Spec.Arch, ids, nil); err == nil {
		t.Fatal("re-solve with no survivors accepted")
	}
}

// TestPVTQuarantineUnderSensorFaults: a module whose sensors spike through
// all retries is quarantined with neutral scales instead of failing PVT
// generation, and calibrated schemes refuse to pick it as test module.
func TestPVTQuarantineUnderSensorFaults(t *testing.T) {
	const n = 32
	plan := &faults.Plan{Events: []faults.Event{
		{Module: 6, Kind: faults.KindSpikeMSR, Start: 0, Magnitude: 100},
	}}
	fw, ids := faultyFramework(t, n, 2, plan)
	if !reflect.DeepEqual(fw.PVT.Quarantined, []int{6}) {
		t.Fatalf("quarantined %v, want [6]", fw.PVT.Quarantined)
	}
	if !fw.PVT.IsQuarantined(6) || fw.PVT.IsQuarantined(5) {
		t.Fatal("IsQuarantined misreports")
	}
	e, err := fw.PVT.Entry(6)
	if err != nil {
		t.Fatal(err)
	}
	if e.CPUMax != 1 || e.DramMax != 1 || e.CPUMin != 1 || e.DramMin != 1 {
		t.Fatalf("quarantined entry not neutral: %+v", e)
	}
	cpu := cpuClass{fw.Sys.Spec.Arch}
	test := nextCandidate(cpu, &fw.PVT.table, ids, -1, nil)
	if test == 6 {
		t.Fatal("quarantined module chosen as calibration test module")
	}
	if nextCandidate(cpu, &fw.PVT.table, ids, test, nil) == 6 {
		t.Fatal("quarantined module chosen as FS holdout")
	}
	// The pipeline still runs end to end on the degraded table.
	if _, err := fw.Run(workload.DGEMM(), ids, units.Watts(80*n), VaFs); err != nil {
		t.Fatalf("run over quarantined PVT: %v", err)
	}
}

// TestResilientTraceByteIdentical: the full resilient pipeline — faulty PVT,
// deaths, re-solve, degraded re-run — must emit a byte-identical flight
// trace and deep-equal results at every worker width.
func TestResilientTraceByteIdentical(t *testing.T) {
	const n = 48
	budget := units.Watts(80 * n)
	run := func(workers int) (*ResilientRun, []byte) {
		t.Helper()
		fw, ids := faultyFramework(t, n, workers, twoDeathsPlan())
		fw.Recorder = flight.New(flight.Config{Hz: 2})
		rr, err := fw.RunResilient(workload.MHD(), ids, budget, VaFs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := flight.WriteTrace(&buf, fw.Recorder.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return rr, buf.Bytes()
	}
	refRun, refTrace := run(1)
	if len(refTrace) == 0 {
		t.Fatal("serial trace is empty")
	}
	if !refRun.Failed() {
		t.Fatal("plan did not kill anyone")
	}
	for _, w := range workerWidths()[1:] {
		gotRun, gotTrace := run(w)
		if !reflect.DeepEqual(refRun, gotRun) {
			t.Fatalf("workers=%d resilient run differs from serial", w)
		}
		if !bytes.Equal(refTrace, gotTrace) {
			t.Fatalf("workers=%d trace differs from serial (%d vs %d bytes)", w, len(gotTrace), len(refTrace))
		}
	}
}

// TestOracleRowsReadableUnderFaults: on a faulty machine some modules read
// 0 W at fmax on every attempt, which used to leave oracle rows with min
// above max and Solve rejecting the table as an inverted power range. The
// oracle now gives such rows the mean of the readable ones.
func TestOracleRowsReadableUnderFaults(t *testing.T) {
	const n, seed = 192, 1
	level, err := faults.LevelByName("low", 10)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Generate(seed, level.Spec, n)
	if err != nil {
		t.Fatal(err)
	}
	sys := cluster.MustNew(cluster.HA8K(), n, seed)
	sys.InstallFaults(faults.MustInjector(plan))
	fw, err := NewFrameworkWorkers(sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := sys.AllocateFirst(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{VaPcOr, VaFsOr, Pc} {
		pmt, err := fw.BuildPMT(workload.DGEMM(), ids, scheme)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		for _, e := range pmt.Entries {
			if !e.reading().readable() {
				t.Fatalf("%v: module %d row unreadable: %+v", scheme, e.ModuleID, e)
			}
		}
		if _, err := Solve(pmt, sys.Spec.Arch, units.Watts(80*n)); err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
	}
}

// TestCalibrationTestModuleReadableUnderFaults: on HA8K 192, seed 43, under
// the "low" fault rung, the best-ranked calibration test module reads 0 W
// at fmax, which used to give every VaPc/VaFs row an inverted power range.
// Calibration now falls back to the next readable module in rank order,
// counts the fallback as a quarantine, and holds out a different module.
func TestCalibrationTestModuleReadableUnderFaults(t *testing.T) {
	const n, seed = 192, 43
	level, err := faults.LevelByName("low", 10)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.Generate(seed, level.Spec, n)
	if err != nil {
		t.Fatal(err)
	}
	sys := cluster.MustNew(cluster.HA8K(), n, seed)
	sys.InstallFaults(faults.MustInjector(plan))
	fw, err := NewFrameworkWorkers(sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := sys.AllocateFirst(n)
	if err != nil {
		t.Fatal(err)
	}
	cpu := cpuClass{sys.Spec.Arch}
	best := nextCandidate(cpu, &fw.PVT.table, ids, -1, nil)
	for _, bench := range []*workload.Benchmark{workload.DGEMM(), workload.EP()} {
		first, err := cpu.probe(sys, bench, best)
		if err != nil {
			t.Fatal(err)
		}
		if first.readable() {
			t.Fatalf("%s: best-ranked module %d is readable; the configuration no longer reproduces the defect", bench.Name, best)
		}
		before := faults.MetricQuarantined.Value()
		pmt, test, err := fw.buildPMT(bench, ids, VaPc)
		if err != nil {
			t.Fatal(err)
		}
		if test == best {
			t.Fatalf("%s: calibrated from unreadable module %d", bench.Name, test)
		}
		if faults.MetricQuarantined.Value() == before {
			t.Fatalf("%s: fallback not counted as quarantined", bench.Name)
		}
		for _, e := range pmt.Entries {
			if !e.reading().readable() {
				t.Fatalf("%s: module %d row unreadable: %+v", bench.Name, e.ModuleID, e)
			}
		}
		holdout, err := probeReadable(cpu, sys, bench, &fw.PVT.table, ids, test)
		if err != nil || holdout.id == test {
			t.Fatalf("%s: holdout %d (test %d): %v", bench.Name, holdout.id, test, err)
		}
		for _, scheme := range []Scheme{VaPc, VaFs} {
			if _, err := fw.Run(bench, ids, units.Watts(80*n), scheme); err != nil {
				t.Fatalf("%s %v: %v", bench.Name, scheme, err)
			}
		}
	}
}

// TestCalibrationNoReadableModule: with every allocated module reading 0 W
// the calibrated schemes fail instead of returning an inverted table.
func TestCalibrationNoReadableModule(t *testing.T) {
	const n = 4
	var events []faults.Event
	for m := 0; m < n; m++ {
		events = append(events, faults.Event{Module: m, Kind: faults.KindDropMSR})
	}
	fw, ids := faultyFramework(t, 32, 1, &faults.Plan{Events: events})
	if _, err := fw.BuildPMT(workload.DGEMM(), ids[:n], VaPc); !errors.Is(err, errUnreadable) {
		t.Fatalf("BuildPMT over unreadable modules: err = %v", err)
	}
}
