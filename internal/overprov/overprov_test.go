package overprov

import (
	"math"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/units"
	"varpower/internal/workload"
)

func testFramework(t *testing.T, n int) *core.Framework {
	t.Helper()
	sys := cluster.MustNew(cluster.HA8K(), n, 0x5c15)
	fw, err := core.NewFrameworkWorkers(sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func TestStrongScaledConservesWork(t *testing.T) {
	b := workload.MHD()
	for _, n := range []int{32, 64, 128} {
		s := StrongScaled(b, 64, n)
		total := s.CyclesPerIter * float64(n)
		want := b.CyclesPerIter * 64
		if math.Abs(total-want)/want > 1e-12 {
			t.Fatalf("n=%d: total cycles %v, want %v", n, total, want)
		}
		if n > 64 && s.MsgBytes >= b.MsgBytes {
			t.Fatalf("n=%d: halo message did not shrink", n)
		}
	}
	// Identity at the reference count.
	s := StrongScaled(b, 64, 64)
	if s.CyclesPerIter != b.CyclesPerIter || s.MsgBytes != b.MsgBytes {
		t.Fatal("reference-scale copy changed the work")
	}
}

func TestPow23(t *testing.T) {
	cases := []struct{ in, want float64 }{{1, 1}, {8, 4}, {27, 9}, {0.125, 0.25}}
	for _, c := range cases {
		if got := pow23(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("pow23(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if pow23(0) != 0 {
		t.Error("pow23(0) != 0")
	}
}

func TestAnalyzeSweep(t *testing.T) {
	fw := testFramework(t, 192)
	budget := units.Watts(96 * 90) // can fully power ≈ 76 modules of DGEMM
	counts := []int{64, 96, 128, 160, 192}
	res, err := Analyze(fw, workload.DGEMM(), budget, 96, counts, core.VaFsOr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(counts) {
		t.Fatalf("points %d", len(res.Points))
	}
	// The budget gives 45 W/module at 192 modules — below DGEMM's ≈60 W
	// fmin draw, so the largest configuration must be infeasible.
	last := res.Points[len(res.Points)-1]
	if last.Feasible {
		t.Fatalf("192 modules at %.1f W/module unexpectedly feasible", float64(last.CmAvg))
	}
	best := res.BestPoint()
	if !best.Feasible {
		t.Fatal("best point infeasible")
	}
	// For a frequency-sensitive code on this architecture, fully powering
	// fewer modules beats starving many: the optimum sits at the smallest
	// count that is still meaningfully powered.
	if best.Modules > 96 {
		t.Fatalf("DGEMM optimum at %d modules; expected the well-powered small end", best.Modules)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	fw := testFramework(t, 16)
	if _, err := Analyze(fw, workload.DGEMM(), 1000, 8, nil, core.VaFsOr); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := Analyze(fw, workload.DGEMM(), 1000, 0, []int{8}, core.VaFsOr); err == nil {
		t.Error("zero reference ranks accepted")
	}
	if _, err := Analyze(fw, workload.DGEMM(), 1000, 8, []int{99}, core.VaFsOr); err == nil {
		t.Error("oversized count accepted")
	}
	// A budget below every configuration's fmin power has no feasible
	// point.
	if _, err := Analyze(fw, workload.DGEMM(), 16*30, 16, []int{16}, core.VaFsOr); err == nil {
		t.Error("fully infeasible sweep returned a result")
	}
}
