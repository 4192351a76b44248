package core

import (
	"varpower/internal/hw/module"
	"varpower/internal/telemetry"
	"varpower/internal/units"
)

// Budget-solver telemetry: solve counts by outcome, plus gauges tracking
// the most recent α and budget residual (budget minus the sum of the
// per-module allocations — the slack the linear model leaves on the
// table). Under a parallel grid the gauges hold the last-finished cell's
// values; the counters and the α histogram aggregate across all solves.
var (
	mSolves = telemetry.Default().Counter("varpower_budget_solves_total",
		"Budget solves (Equations 1-9).", nil)
	mSolveInfeasible = telemetry.Default().Counter("varpower_budget_infeasible_total",
		"Solves declared infeasible (budget below best-effort fmin power).", nil)
	mSolveClamped = telemetry.Default().Counter("varpower_budget_clamped_total",
		"Solves with alpha clamped to 0 (best-effort admission below predicted fmin power).", nil)
	mAlphaGauge = telemetry.Default().Gauge("varpower_budget_alpha",
		"Alpha of the most recent budget solve.", nil)
	mResidualGauge = telemetry.Default().Gauge("varpower_budget_residual_watts",
		"Budget minus summed per-module allocation of the most recent solve.", nil)
	mAlphaHist = telemetry.Default().Histogram("varpower_budget_alpha_hist",
		"Distribution of solved alpha values.", telemetry.ExpBuckets(0.05, 1.26, 16), nil)
)

// ModuleAlloc is the power allocation derived for one module (Equations
// 7–9): its module budget, the DRAM power predicted at the chosen operating
// point, and the CPU cap that realises the budget.
type ModuleAlloc struct {
	ModuleID int
	Pmodule  units.Watts
	Pdram    units.Watts
	Pcpu     units.Watts
}

// Allocation is the output of the budgeting algorithm for one application
// under one power constraint.
type Allocation struct {
	// Alpha is the application-wide power-performance coefficient
	// (Equation 6), clamped to [0, 1]. Alpha is common to all modules so
	// that they all target the same frequency — that is the homogeneity
	// mechanism.
	Alpha float64
	// Freq is the common target CPU frequency f = α(fmax−fmin)+fmin
	// (Equation 1).
	Freq units.Hertz
	// Feasible is false when even α = 0 (every module at fmin) exceeds the
	// budget by more than the best-effort margin — the paper's "–"
	// scenarios.
	Feasible bool
	// Clamped reports best-effort admission: the model predicted that even
	// fmin operation slightly exceeds the budget (α would be negative), so
	// α was clamped to 0 and the per-module allocations scaled down
	// proportionally to fit. This happens at boundary budgets when the
	// calibrated model over-predicts power; the modules then run at (or
	// just below) fmin.
	Clamped bool
	// Constrained is false when α = 1 satisfies the budget with slack,
	// i.e. no capping below fmax is needed.
	Constrained bool
	// Entries are the per-module allocations.
	Entries []ModuleAlloc
	// Budget echoes the application-level power constraint.
	Budget units.Watts
}

// TotalPredicted sums the per-module allocations — by construction ≤ Budget
// whenever Feasible.
func (a *Allocation) TotalPredicted() units.Watts {
	var sum units.Watts
	for _, e := range a.Entries {
		sum += e.Pmodule
	}
	return sum
}

// CPUCaps returns the per-module CPU caps in entry order, ready for the PC
// implementation.
func (a *Allocation) CPUCaps() []units.Watts {
	caps := make([]units.Watts, len(a.Entries))
	for i, e := range a.Entries {
		caps[i] = e.Pcpu
	}
	return caps
}

// Solve runs the variation-aware budgeting algorithm (Section 5.1): choose
// the maximum α with
//
//	Σᵢ ( α·(Pmodule_max,i − Pmodule_min,i) + Pmodule_min,i ) ≤ budget
//
// then derive each module's allocation at that α, split into the DRAM
// power predicted there and the CPU cap that realises the rest. The arch
// parameter supplies the frequency range for Equation 1.
func Solve(pmt *PMT, arch *module.Arch, budget units.Watts) (*Allocation, error) {
	s, err := solve(cpuClass{arch}, pmt.Entries, budget)
	if err != nil {
		return nil, err
	}
	alloc := &Allocation{
		Alpha: s.alpha, Freq: s.level,
		Feasible: s.feasible, Clamped: s.clamped, Constrained: s.constrained,
		Budget: budget, Entries: make([]ModuleAlloc, len(pmt.Entries)),
	}
	for i, e := range pmt.Entries {
		pm := s.share(e.ModuleMin(), e.ModuleMax())
		pd := s.share(e.DramMin, e.DramMax)
		alloc.Entries[i] = ModuleAlloc{ModuleID: e.ModuleID, Pmodule: pm, Pdram: pd, Pcpu: pm - pd}
	}
	mAlphaGauge.Set(alloc.Alpha)
	mResidualGauge.Set(float64(budget - alloc.TotalPredicted()))
	return alloc, nil
}
