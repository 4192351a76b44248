package measure

import (
	"bytes"
	"strings"
	"testing"

	"varpower/internal/telemetry"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// TestTestRunAllocBudget: a calibration test run pays for its simulation,
// not for fan-out or span bookkeeping. Its allocations are the run span,
// the program, the timing model, the DES and rank results and TestRun's own
// inputs; anything more is per-run overhead creeping back.
func TestTestRunAllocBudget(t *testing.T) {
	sys, _ := testSystem(t, 8)
	bench := workload.StarSTREAM()
	f := sys.Spec.Arch.FNom
	if _, err := TestRun(sys, bench, 3, f); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := TestRun(sys, bench, 3, f); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 12 {
		t.Errorf("TestRun: %.1f allocs per run, budget 12", avg)
	}
}

// TestTestRunAllocsPastSpanCap: once the tracer holds its cap of spans, a
// test run's span is never rendered, so the run must not pay for its
// detail either.
func TestTestRunAllocsPastSpanCap(t *testing.T) {
	sys, _ := testSystem(t, 8)
	bench := workload.StarSTREAM()
	f := sys.Spec.Arch.FNom
	tr := telemetry.DefaultTracer()
	tr.Reset()
	defer tr.Reset()
	for tr.Start("fill").Retained() {
	}
	if _, err := TestRun(sys, bench, 3, f); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := TestRun(sys, bench, 3, f); err != nil {
			t.Fatal(err)
		}
	})
	if avg > 10 {
		t.Errorf("TestRun past the span cap: %.1f allocs per run, budget 10", avg)
	}
}

// TestRunPhaseSpans: every run records measure.run. Only a multi-rank run
// adds the resolve/simulate/account children, back to back under it.
func TestRunPhaseSpans(t *testing.T) {
	tr := telemetry.DefaultTracer()
	for _, tc := range []struct {
		ranks int
		want  []string
	}{
		{1, []string{"measure.run"}},
		{2, []string{"measure.run", "measure.resolve", "measure.simulate", "measure.account"}},
	} {
		sys, ids := testSystem(t, tc.ranks)
		tr.Reset()
		if _, err := Run(sys, Config{Bench: workload.MHD(), Modules: ids}); err != nil {
			t.Fatal(err)
		}
		stats := tr.Summary()
		var got []string
		var run, phases float64
		for _, s := range stats {
			got = append(got, s.Name)
			if s.Count != 1 {
				t.Errorf("%d ranks: %d %s spans, want 1", tc.ranks, s.Count, s.Name)
			}
			if s.Name == "measure.run" {
				run = s.Total.Seconds()
			} else {
				phases += s.Total.Seconds()
			}
		}
		if strings.Join(got, ",") != strings.Join(tc.want, ",") {
			t.Fatalf("%d ranks: spans %v, want %v", tc.ranks, got, tc.want)
		}
		if phases > run {
			t.Errorf("%d ranks: phases last %gs, longer than the %gs run", tc.ranks, phases, run)
		}
		if tc.ranks > 1 {
			var tree bytes.Buffer
			if err := tr.WriteTree(&tree); err != nil {
				t.Fatal(err)
			}
			for _, name := range tc.want[1:] {
				if !strings.Contains(tree.String(), "\n  "+name+"  ") {
					t.Errorf("%s not nested under measure.run:\n%s", name, tree.String())
				}
			}
		}
	}
	tr.Reset()
}

// TestSerialErrorMatchesFanOut: the inline serial loops report a failing
// rank exactly as the parallel fan-out does.
func TestSerialErrorMatchesFanOut(t *testing.T) {
	var msgs []string
	for _, workers := range []int{1, 2} {
		sys, ids := testSystem(t, 6)
		caps := make([]units.Watts, len(ids))
		for i := range caps {
			caps[i] = 70
		}
		caps[3] = 5 // below every module's floor
		_, err := Run(sys, Config{Bench: workload.MHD(), Modules: ids, Mode: ModeCapped, CPUCaps: caps, Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: infeasible cap accepted", workers)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] || !strings.HasPrefix(msgs[0], "parallel: task 3: ") {
		t.Fatalf("serial error %q, fan-out error %q", msgs[0], msgs[1])
	}
}
