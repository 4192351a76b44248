package core

import (
	"math"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/stats"
	"varpower/internal/units"
	"varpower/internal/workload"
)

func testFramework(t *testing.T, n int) (*Framework, []int) {
	t.Helper()
	sys := cluster.MustNew(cluster.HA8K(), n, 0x5c15)
	ids, err := sys.AllocateFirst(n)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := NewFrameworkWorkers(sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return fw, ids
}

func TestSchemesMetadata(t *testing.T) {
	if len(AllSchemes()) != 6 {
		t.Fatal("the paper evaluates six schemes")
	}
	if Naive.VariationAware() || Pc.VariationAware() {
		t.Error("Naive/Pc must be variation-unaware")
	}
	for _, s := range []Scheme{VaPc, VaPcOr, VaFs, VaFsOr} {
		if !s.VariationAware() {
			t.Errorf("%v must be variation-aware", s)
		}
	}
	if !VaFs.UsesFS() || !VaFsOr.UsesFS() || VaPc.UsesFS() || Naive.UsesFS() {
		t.Error("FS flags wrong")
	}
	if !VaPcOr.Oracle() || !VaFsOr.Oracle() || VaPc.Oracle() {
		t.Error("oracle flags wrong")
	}
	if Naive.String() != "Naive" || VaFsOr.String() != "VaFsOr" {
		t.Error("scheme names wrong")
	}
}

func TestInstrument(t *testing.T) {
	inst, err := Instrument(workload.DGEMM())
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(inst.Directives) != 2 ||
		inst.Directives[0].Anchor != "MPI_Init" ||
		inst.Directives[1].Anchor != "MPI_Finalize" {
		t.Fatalf("directives %+v", inst.Directives)
	}
	if _, err := Instrument(nil); err == nil {
		t.Error("nil benchmark instrumented")
	}
	bad := *workload.DGEMM()
	bad.Iterations = 0
	if _, err := Instrument(&bad); err == nil {
		t.Error("invalid benchmark instrumented")
	}
}

func TestBuildPMTPerScheme(t *testing.T) {
	fw, ids := testFramework(t, 32)
	bench := workload.MHD()

	naive, err := fw.BuildPMT(bench, ids, Naive)
	if err != nil {
		t.Fatal(err)
	}
	if naive.Entries[0].CPUMax != fw.Sys.Spec.Arch.TDP {
		t.Error("Naive PMT not TDP-based")
	}

	pc, err := fw.BuildPMT(bench, ids, Pc)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range pc.Entries[1:] {
		if e.CPUMax != pc.Entries[0].CPUMax {
			t.Fatal("Pc PMT must be uniform")
		}
	}

	vapc, err := fw.BuildPMT(bench, ids, VaPc)
	if err != nil {
		t.Fatal(err)
	}
	varied := false
	for _, e := range vapc.Entries[1:] {
		if e.CPUMax != vapc.Entries[0].CPUMax {
			varied = true
		}
	}
	if !varied {
		t.Fatal("VaPc PMT shows no per-module variation")
	}

	oracle, err := fw.BuildPMT(bench, ids, VaPcOr)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle and calibrated tables agree in the aggregate but differ per
	// module (calibration error).
	oa, va := oracle.Averages(), vapc.Averages()
	if math.Abs(float64(oa.CPUMax-va.CPUMax))/float64(oa.CPUMax) > 0.1 {
		t.Errorf("calibrated average %v far from oracle %v", va.CPUMax, oa.CPUMax)
	}

	if _, err := fw.BuildPMT(bench, nil, VaPc); err == nil {
		t.Error("empty allocation accepted")
	}
}

func TestRunEndToEndPC(t *testing.T) {
	fw, ids := testFramework(t, 64)
	budget := units.Watts(64 * 70)
	run, err := fw.Run(workload.MHD(), ids, budget, VaPc)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Alloc.Feasible || !run.Alloc.Constrained {
		t.Fatalf("allocation %+v", run.Alloc)
	}
	if run.Result.AvgTotalPower > budget {
		t.Fatalf("VaPc violated the budget: %v > %v", run.Result.AvgTotalPower, budget)
	}
	// Per-module CPU power must not exceed the derived cap (RAPL enforces
	// strictly).
	for i, r := range run.Result.Ranks {
		if r.Op.CPUPower > run.Alloc.Entries[i].Pcpu+1e-9 {
			t.Fatalf("module %d above its cap", r.ModuleID)
		}
	}
}

func TestRunEndToEndFS(t *testing.T) {
	fw, ids := testFramework(t, 64)
	budget := units.Watts(64 * 70)
	run, err := fw.Run(workload.MHD(), ids, budget, VaFs)
	if err != nil {
		t.Fatal(err)
	}
	// FS pins every module to the same P-state: frequency homogeneity is
	// exact.
	f0 := run.Result.Ranks[0].Op.Freq
	for _, r := range run.Result.Ranks {
		if r.Op.Freq != f0 {
			t.Fatalf("FS frequency differs: %v vs %v", r.Op.Freq, f0)
		}
	}
	// The pinned frequency is the α-frequency quantised down.
	want := fw.Sys.Spec.Arch.QuantizeDown(run.Alloc.Freq)
	if f0 != want {
		t.Fatalf("pinned %v, want %v", f0, want)
	}
}

func TestVariationAwareBeatsNaive(t *testing.T) {
	fw, ids := testFramework(t, 128)
	budget := units.Watts(128 * 70)
	bench := workload.MHD()
	naive, err := fw.Run(bench, ids, budget, Naive)
	if err != nil {
		t.Fatal(err)
	}
	vafs, err := fw.Run(bench, ids, budget, VaFs)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(naive.Elapsed()) / float64(vafs.Elapsed())
	if speedup < 1.2 {
		t.Fatalf("VaFs speedup over Naive only %v", speedup)
	}
}

func TestFSHomogenizesPerformance(t *testing.T) {
	// The paper's core claim: under VaFs a synchronised code's per-rank
	// times equalise (Vt → 1) while power variation grows.
	fw, ids := testFramework(t, 64)
	budget := units.Watts(64 * 70)
	bench := workload.MHD()
	vafs, err := fw.Run(bench, ids, budget, VaFs)
	if err != nil {
		t.Fatal(err)
	}
	var times, power []float64
	for _, r := range vafs.Result.Ranks {
		times = append(times, float64(r.End))
		power = append(power, float64(r.Op.ModulePower()))
	}
	if vt := stats.Variation(times); vt > 1.01 {
		t.Errorf("VaFs Vt = %v, want ≈ 1.0", vt)
	}
	if vp := stats.Variation(power); vp < 1.1 {
		t.Errorf("VaFs Vp = %v, expected real power spread", vp)
	}
}

func TestInfeasibleBudget(t *testing.T) {
	fw, ids := testFramework(t, 16)
	_, err := fw.Run(workload.DGEMM(), ids, units.Watts(16*30), VaPc)
	if err == nil {
		t.Fatal("absurd budget accepted")
	}
	var inf ErrBudgetInfeasible
	if !errorsAs(err, &inf) {
		t.Fatalf("want ErrBudgetInfeasible, got %T: %v", err, err)
	}
	if inf.Scheme != VaPc {
		t.Fatalf("error scheme %v", inf.Scheme)
	}
}

func errorsAs(err error, target *ErrBudgetInfeasible) bool {
	e, ok := err.(ErrBudgetInfeasible)
	if ok {
		*target = e
	}
	return ok
}

func TestFrameworkWithPVT(t *testing.T) {
	fw, _ := testFramework(t, 8)
	fw2, err := NewFrameworkWithPVT(fw.Sys, fw.PVT)
	if err != nil {
		t.Fatal(err)
	}
	if fw2.PVT != fw.PVT {
		t.Fatal("PVT not adopted")
	}
	if _, err := NewFrameworkWithPVT(fw.Sys, nil); err == nil {
		t.Error("nil PVT accepted")
	}
	other := &PVT{System: "elsewhere", table: table[PVTEntry]{Entries: fw.PVT.Entries}}
	if _, err := NewFrameworkWithPVT(fw.Sys, other); err == nil {
		t.Error("foreign PVT accepted")
	}
}

func TestExecuteLengthMismatch(t *testing.T) {
	fw, ids := testFramework(t, 8)
	pmt := NaivePMT(fw.Sys, ids[:4])
	alloc, err := Solve(pmt, fw.Sys.Spec.Arch, 4*80)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Execute(workload.DGEMM(), ids, alloc, Naive); err == nil {
		t.Error("allocation/module length mismatch accepted")
	}
}
