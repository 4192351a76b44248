package sched

import (
	"strings"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/units"
	"varpower/internal/workload"
)

func testScheduler(t *testing.T, modules int) *Scheduler {
	t.Helper()
	sys := cluster.MustNew(cluster.HA8K(), modules, 0x5c15)
	fw, err := core.NewFrameworkWorkers(sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := New(fw)
	return s
}

func testBatch() []Job {
	return []Job{
		{Name: "mhd-a", Bench: workload.MHD(), Modules: 64},
		{Name: "bt-b", Bench: workload.BT(), Modules: 64},
		{Name: "dgemm-c", Bench: workload.DGEMM(), Modules: 64},
	}
}

func TestAllocationDisjointContiguous(t *testing.T) {
	s := testScheduler(t, 192)
	res, err := s.Run(testBatch(), Config{
		SystemPower: units.Watts(192 * 80),
		Policy:      SplitEqualPerModule,
		Scheme:      core.VaFs,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]string{}
	for _, jr := range res.Jobs {
		if len(jr.Modules) != jr.Job.Modules {
			t.Fatalf("job %s got %d modules, requested %d", jr.Job.Name, len(jr.Modules), jr.Job.Modules)
		}
		for _, id := range jr.Modules {
			if owner, dup := seen[id]; dup {
				t.Fatalf("module %d allocated to both %s and %s", id, owner, jr.Job.Name)
			}
			seen[id] = jr.Job.Name
		}
	}
}

func TestEqualSplitBudgets(t *testing.T) {
	s := testScheduler(t, 192)
	cs := units.Watts(192 * 80)
	res, err := s.Run(testBatch(), Config{SystemPower: cs, Policy: SplitEqualPerModule, Scheme: core.VaFs})
	if err != nil {
		t.Fatal(err)
	}
	var sum units.Watts
	for _, jr := range res.Jobs {
		if jr.Budget != cs/3 {
			t.Fatalf("job %s budget %v, want %v", jr.Job.Name, jr.Budget, cs/3)
		}
		sum += jr.Budget
	}
	if sum != cs {
		t.Fatalf("budgets sum to %v, want %v", sum, cs)
	}
}

func TestGlobalAlphaRespectsSystemPower(t *testing.T) {
	s := testScheduler(t, 192)
	cs := units.Watts(192 * 75)
	res, err := s.Run(testBatch(), Config{SystemPower: cs, Policy: SplitGlobalAlpha, Scheme: core.VaPc})
	if err != nil {
		t.Fatal(err)
	}
	var sum units.Watts
	for _, jr := range res.Jobs {
		sum += jr.Budget
	}
	if float64(sum) > float64(cs)*1.0001 {
		t.Fatalf("global-alpha budgets %v exceed system power %v", sum, cs)
	}
	if res.TotalPower > cs {
		t.Fatalf("measured system power %v exceeds constraint %v", res.TotalPower, cs)
	}
}

func TestGlobalAlphaFollowsDemand(t *testing.T) {
	// Under global-alpha, the power-hungry job (DGEMM) must receive a
	// larger per-module budget than the lighter job (BT).
	s := testScheduler(t, 128)
	jobs := []Job{
		{Name: "dgemm", Bench: workload.DGEMM(), Modules: 64},
		{Name: "bt", Bench: workload.BT(), Modules: 64},
	}
	res, err := s.Run(jobs, Config{
		SystemPower: units.Watts(128 * 80),
		Policy:      SplitGlobalAlpha,
		Scheme:      core.VaFs,
	})
	if err != nil {
		t.Fatal(err)
	}
	perMod := func(jr JobResult) float64 { return float64(jr.Budget) / float64(len(jr.Modules)) }
	if perMod(res.Jobs[0]) <= perMod(res.Jobs[1]) {
		t.Fatalf("DGEMM per-module budget %v not above BT's %v",
			perMod(res.Jobs[0]), perMod(res.Jobs[1]))
	}
}

func TestGlobalAlphaFairness(t *testing.T) {
	// Global-alpha's objective is the paper's "fair yet intelligent"
	// partitioning: every job suffers the same relative slowdown from the
	// system constraint. Equal-per-module splitting punishes power-hungry
	// applications disproportionately.
	s := testScheduler(t, 192)
	cs := units.Watts(192 * 65)

	// Per-job unconstrained baseline on the same partitions.
	loose := units.Watts(192 * 500)
	base, err := s.Run(testBatch(), Config{SystemPower: loose, Policy: SplitEqualPerModule, Scheme: core.VaFs})
	if err != nil {
		t.Fatal(err)
	}
	slowdownSpread := func(res *Result) float64 {
		min, max := 0.0, 0.0
		for i, jr := range res.Jobs {
			s := float64(jr.Run.Elapsed()) / float64(base.Jobs[i].Run.Elapsed())
			if i == 0 || s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		return max / min
	}

	equal, err := s.Run(testBatch(), Config{SystemPower: cs, Policy: SplitEqualPerModule, Scheme: core.VaFs})
	if err != nil {
		t.Fatal(err)
	}
	global, err := s.Run(testBatch(), Config{SystemPower: cs, Policy: SplitGlobalAlpha, Scheme: core.VaFs})
	if err != nil {
		t.Fatal(err)
	}
	eq, gl := slowdownSpread(equal), slowdownSpread(global)
	if gl >= eq {
		t.Fatalf("global-alpha slowdown spread %v not below equal split's %v", gl, eq)
	}
	if gl > 1.15 {
		t.Fatalf("global-alpha slowdown spread %v, want near-uniform slowdowns", gl)
	}
}

func TestSchedulerErrors(t *testing.T) {
	s := testScheduler(t, 64)
	cfg := Config{SystemPower: units.Watts(64 * 80), Policy: SplitEqualPerModule, Scheme: core.VaFs}
	if _, err := s.Run(nil, cfg); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := s.Run([]Job{{Name: "x", Bench: workload.MHD(), Modules: 128}}, cfg); err == nil {
		t.Error("oversubscribed batch accepted")
	}
	if _, err := s.Run([]Job{{Name: "x", Bench: workload.MHD(), Modules: 0}}, cfg); err == nil {
		t.Error("zero-module job accepted")
	}
	bad := cfg
	bad.SystemPower = 0
	if _, err := s.Run(testBatch()[:1], bad); err == nil {
		t.Error("zero system power accepted")
	}
	bad = cfg
	bad.Policy = SplitPolicy(42)
	if _, err := s.Run([]Job{{Name: "x", Bench: workload.MHD(), Modules: 8}}, bad); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestThroughputMetric(t *testing.T) {
	s := testScheduler(t, 64)
	res, err := s.Run([]Job{{Name: "a", Bench: workload.MHD(), Modules: 64}}, Config{
		SystemPower: units.Watts(64 * 90),
		Policy:      SplitEqualPerModule,
		Scheme:      core.VaFs,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput() <= 0 {
		t.Fatal("non-positive throughput")
	}
	want := 3600 / float64(res.Jobs[0].Run.Elapsed())
	if got := res.Throughput(); got != want {
		t.Fatalf("throughput %v, want %v", got, want)
	}
}

func TestPolicyString(t *testing.T) {
	if SplitEqualPerModule.String() != "equal-per-module" || SplitGlobalAlpha.String() != "global-alpha" {
		t.Error("policy names wrong")
	}
	if !strings.Contains(SplitPolicy(9).String(), "9") {
		t.Error("unknown policy should format its value")
	}
}

func TestAllocEfficientOrdersByPVTScale(t *testing.T) {
	s := testScheduler(t, 96)
	// A single job on half the machine: efficient placement must pick the
	// modules with the smallest PVT scales.
	job := []Job{{Name: "x", Bench: workload.MHD(), Modules: 48}}
	res, err := s.Run(job, Config{
		SystemPower: units.Watts(96 * 70),
		Policy:      SplitEqualPerModule,
		Alloc:       AllocEfficient,
		Scheme:      core.VaFs,
	})
	if err != nil {
		t.Fatal(err)
	}
	chosen := map[int]bool{}
	var maxChosen float64
	for _, id := range res.Jobs[0].Modules {
		chosen[id] = true
		e, err := s.Framework().PVT.Entry(id)
		if err != nil {
			t.Fatal(err)
		}
		if v := e.CPUMax + e.DramMax; v > maxChosen {
			maxChosen = v
		}
	}
	for id := 0; id < 96; id++ {
		if chosen[id] {
			continue
		}
		e, err := s.Framework().PVT.Entry(id)
		if err != nil {
			t.Fatal(err)
		}
		if e.CPUMax+e.DramMax < maxChosen-1e-9 {
			t.Fatalf("unchosen module %d is more efficient (%v) than a chosen one (%v)",
				id, e.CPUMax+e.DramMax, maxChosen)
		}
	}
}

func TestAllocEfficientImprovesAlpha(t *testing.T) {
	// Variation-aware placement: with the budget fixed, giving the job the
	// efficient half of the machine buys a higher alpha (and hence a
	// faster run) than first-fit.
	s := testScheduler(t, 128)
	job := []Job{{Name: "x", Bench: workload.MHD(), Modules: 64}}
	cfg := Config{
		// The single job receives the whole budget; 70 W per allocated
		// module is a binding constraint for MHD either way.
		SystemPower: units.Watts(64 * 70),
		Policy:      SplitEqualPerModule,
		Scheme:      core.VaFsOr, // oracle calibration isolates the placement effect
	}
	first, err := s.Run(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Alloc = AllocEfficient
	eff, err := s.Run(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eff.Jobs[0].Run.Alloc.Alpha <= first.Jobs[0].Run.Alloc.Alpha {
		t.Fatalf("efficient placement alpha %v not above first-fit %v",
			eff.Jobs[0].Run.Alloc.Alpha, first.Jobs[0].Run.Alloc.Alpha)
	}
	if eff.Jobs[0].Run.Elapsed() >= first.Jobs[0].Run.Elapsed() {
		t.Fatalf("efficient placement elapsed %v not below first-fit %v",
			eff.Jobs[0].Run.Elapsed(), first.Jobs[0].Run.Elapsed())
	}
}

func TestAllocPolicyString(t *testing.T) {
	if AllocFirstFit.String() != "first-fit" || AllocEfficient.String() != "efficient-first" {
		t.Error("alloc policy names wrong")
	}
	if !strings.Contains(AllocPolicy(7).String(), "7") {
		t.Error("unknown alloc policy should format its value")
	}
}
