package core

import (
	"fmt"

	"varpower/internal/units"
	"varpower/internal/workload"
)

// This file extends the framework to applications with *phase behaviour* —
// the second half of the paper's future-work sentence: "dynamic
// reallocation of power within and between HPC applications by analyzing
// their phase behavior".
//
// A phased application is a sequence of segments with different
// computational and power characteristics (e.g. a setup DGEMM-like phase
// followed by a STREAM-like checkpoint phase). The static framework
// calibrates once — effectively for whichever phase the test run sampled —
// and holds one set of caps; the phase-aware runner re-calibrates and
// re-solves at every phase boundary under the same budget.

// PhasedRun is one phase's outcome.
type PhasedRun struct {
	Phase   int
	Bench   string
	Alpha   float64
	Freq    units.Hertz
	Elapsed units.Seconds
	Power   units.Watts
}

// PhasedResult aggregates a phased execution.
type PhasedResult struct {
	Budget units.Watts
	Phases []PhasedRun
	// Elapsed is the application's total runtime (phases are sequential).
	Elapsed units.Seconds
	// MaxPower is the highest phase-average total power — what a hard
	// budget audit would look at.
	MaxPower units.Watts
}

func validatePhases(phases []*workload.Benchmark) error {
	if len(phases) == 0 {
		return fmt.Errorf("core: phased run with no phases")
	}
	for i, p := range phases {
		if p == nil {
			return fmt.Errorf("core: phase %d is nil", i)
		}
		if err := p.Validate(); err != nil {
			return fmt.Errorf("core: phase %d: %w", i, err)
		}
	}
	return nil
}

// RunPhasedStatic executes the phases under allocations derived *once*,
// from the first phase's calibration — what the static framework would do
// to a phased application. Caps stay fixed across phases: when a later
// phase draws differently, RAPL still enforces the stale caps (possibly
// far from the phase's best operating point) or, under FS, the stale
// frequency holds.
func (fw *Framework) RunPhasedStatic(phases []*workload.Benchmark, moduleIDs []int, budget units.Watts, fs bool) (*PhasedResult, error) {
	if err := validatePhases(phases); err != nil {
		return nil, err
	}
	alloc, err := fw.planPhase(phases[0], moduleIDs, budget, fs)
	if err != nil {
		return nil, err
	}
	return fw.runPhases(phases, moduleIDs, budget, fs, func(int, *workload.Benchmark) (*Allocation, error) {
		return alloc, nil
	})
}

// RunPhasedAdaptive re-calibrates and re-solves at every phase boundary —
// the phase-aware reallocation of the paper's future work. The extra cost
// is one single-module test pair per phase.
func (fw *Framework) RunPhasedAdaptive(phases []*workload.Benchmark, moduleIDs []int, budget units.Watts, fs bool) (*PhasedResult, error) {
	if err := validatePhases(phases); err != nil {
		return nil, err
	}
	return fw.runPhases(phases, moduleIDs, budget, fs, func(_ int, phase *workload.Benchmark) (*Allocation, error) {
		return fw.planPhase(phase, moduleIDs, budget, fs)
	})
}

// planPhase calibrates a phase through the PVT and solves its allocation.
func (fw *Framework) planPhase(phase *workload.Benchmark, moduleIDs []int, budget units.Watts, fs bool) (*Allocation, error) {
	pmt, err := fw.BuildPMT(phase, moduleIDs, VaPc)
	if err != nil {
		return nil, err
	}
	return fw.solveFeasible(pmt, budget, schemeFor(fs))
}

func schemeFor(fs bool) Scheme {
	if fs {
		return VaFs
	}
	return VaPc
}

// runPhases executes the phases sequentially, obtaining each phase's
// allocation from the planner callback.
func (fw *Framework) runPhases(phases []*workload.Benchmark, moduleIDs []int, budget units.Watts, fs bool,
	plan func(int, *workload.Benchmark) (*Allocation, error)) (*PhasedResult, error) {

	out := &PhasedResult{Budget: budget}
	for i, phase := range phases {
		alloc, err := plan(i, phase)
		if err != nil {
			return nil, fmt.Errorf("core: phase %d (%s): %w", i, phase.Name, err)
		}
		res, err := fw.Execute(phase, moduleIDs, alloc, schemeFor(fs))
		if err != nil {
			return nil, fmt.Errorf("core: phase %d (%s): %w", i, phase.Name, err)
		}
		pr := PhasedRun{
			Phase: i, Bench: phase.Name,
			Alpha: alloc.Alpha, Freq: alloc.Freq,
			Elapsed: res.Elapsed, Power: res.AvgTotalPower,
		}
		out.Phases = append(out.Phases, pr)
		out.Elapsed += res.Elapsed
		if res.AvgTotalPower > out.MaxPower {
			out.MaxPower = res.AvgTotalPower
		}
	}
	return out, nil
}
