package core

import (
	"context"
	"fmt"

	"varpower/internal/attrib"
	"varpower/internal/cluster"
	"varpower/internal/flight"
	"varpower/internal/measure"
	"varpower/internal/telemetry"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// Framework is the end-to-end variation-aware power budgeting pipeline of
// the paper's Figure 4, bound to one system and its install-time PVT.
type Framework struct {
	Sys *cluster.System
	PVT *PVT

	// Workers bounds the fan-out of the framework's per-module loops
	// (oracle measurement, final-run resolution and accounting): < 1
	// selects GOMAXPROCS, 1 recovers the fully serial pipeline. Results
	// are byte-identical for every worker count.
	Workers int

	// Recorder, when non-nil, attaches the framework's *final* application
	// runs (Execute) to the flight recorder; PMT test runs and oracle
	// measurements stay unrecorded. Clone deliberately does not copy it:
	// sweep engines that fan cells out across replicas would otherwise
	// commit runs in scheduling order and break trace determinism. Attach a
	// recorder only to serially executed frameworks.
	Recorder *flight.Recorder

	// Attrib, when non-nil, streams the framework's final application runs
	// (Execute) into the continuous power-attribution collector; PMT test
	// runs and oracle measurements stay unobserved, mirroring Recorder.
	// Clone does not copy it (sweep replicas would double-count energy);
	// ReplicaPool.Put detaches it on return.
	Attrib *attrib.Collector
	// Tenant and JobID label Execute's runs in the collector's energy
	// accounting (collector defaults apply when empty).
	Tenant string
	JobID  string
}

// NewFrameworkWorkers instantiates the framework, generating the system's
// PVT with the given microbenchmark (nil selects the paper's choice,
// *STREAM). workers is the fan-out width for PVT generation and all
// subsequent per-module loops (< 1 selects GOMAXPROCS, 1 recovers the fully
// serial pipeline).
func NewFrameworkWorkers(sys *cluster.System, micro *workload.Benchmark, workers int) (*Framework, error) {
	pvt, err := GeneratePVT(context.Background(), sys, micro, workers)
	if err != nil {
		return nil, err
	}
	return &Framework{Sys: sys, PVT: pvt, Workers: workers}, nil
}

// NewFrameworkWithPVT binds a previously generated (e.g. loaded) PVT.
func NewFrameworkWithPVT(sys *cluster.System, pvt *PVT) (*Framework, error) {
	if pvt == nil || len(pvt.Entries) == 0 {
		return nil, fmt.Errorf("core: framework needs a non-empty PVT")
	}
	if pvt.System != sys.Spec.Name {
		return nil, fmt.Errorf("core: PVT is for %q, system is %q", pvt.System, sys.Spec.Name)
	}
	return &Framework{Sys: sys, PVT: pvt}, nil
}

// Clone returns a framework over an independent replica of the system,
// sharing the (read-only) PVT. Replicas measure byte-identically to the
// original — see cluster.System.Clone — which lets sweep engines run many
// (benchmark, budget, scheme) evaluations concurrently without the runs
// clobbering each other's RAPL limits and pinned frequencies.
func (fw *Framework) Clone() *Framework {
	return &Framework{Sys: fw.Sys.Clone(), PVT: fw.PVT, Workers: fw.Workers}
}

// BuildPMT constructs the scheme's power model for the allocated modules:
// TDP-based constants for Naive, an all-module measurement averaged into a
// uniform table for Pc, single-module test runs calibrated through the PVT
// for VaPc/VaFs, and oracle measurement of every module for VaPcOr/VaFsOr.
// The test module for calibrated schemes is drawn from the job's own
// allocation, as in the paper; see ranked for how it is chosen.
func (fw *Framework) BuildPMT(bench *workload.Benchmark, moduleIDs []int, scheme Scheme) (*PMT, error) {
	pmt, _, err := fw.buildPMT(bench, moduleIDs, scheme)
	return pmt, err
}

// buildPMT is BuildPMT that also returns the calibration test module (-1
// for schemes that calibrate none), which the FS margin's holdout must
// differ from.
func (fw *Framework) buildPMT(bench *workload.Benchmark, moduleIDs []int, scheme Scheme) (*PMT, int, error) {
	rows, test, err := model[PVTEntry, PMTEntry](cpuClass{fw.Sys.Spec.Arch}, fw.Sys, bench, &fw.PVT.table, moduleIDs, scheme, fw.Workers)
	if err != nil {
		return nil, -1, err
	}
	return &PMT{Workload: modelName(bench, scheme), Entries: rows}, test, nil
}

// SchemeRun is one complete scheme evaluation: the model, the allocation,
// and the measured final run.
type SchemeRun struct {
	Scheme Scheme
	Bench  string
	Budget units.Watts
	PMT    *PMT
	Alloc  *Allocation
	Result measure.Result
}

// Elapsed is the final run's application time.
func (r *SchemeRun) Elapsed() units.Seconds { return r.Result.Elapsed }

// ErrBudgetInfeasible reports that the budget cannot be met even at fmin.
type ErrBudgetInfeasible struct {
	Scheme Scheme
	Budget units.Watts
}

// Error implements error.
func (e ErrBudgetInfeasible) Error() string {
	return fmt.Sprintf("core: budget %v infeasible under scheme %v (exceeds fmin power)", e.Budget, e.Scheme)
}

// solveFeasible solves the model for budget, failing when even fmin
// everywhere exceeds it.
func (fw *Framework) solveFeasible(pmt *PMT, budget units.Watts, scheme Scheme) (*Allocation, error) {
	alloc, err := Solve(pmt, fw.Sys.Spec.Arch, budget)
	if err == nil && !alloc.Feasible {
		err = ErrBudgetInfeasible{Scheme: scheme, Budget: budget}
	}
	return alloc, err
}

// Run executes the full pipeline for one (application, allocation, budget,
// scheme) combination: instrument, test-run/calibrate per the scheme, solve
// for α, enforce via PC or FS, and run the application.
func (fw *Framework) Run(bench *workload.Benchmark, moduleIDs []int, budget units.Watts, scheme Scheme) (*SchemeRun, error) {
	span := telemetry.StartSpan("framework.run").Annotate("%s %v %v", bench.Name, budget, scheme)
	defer span.End()
	inst, err := Instrument(bench)
	if err != nil {
		return nil, err
	}
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	sp := span.Start("pmt.build")
	pmt, test, err := fw.buildPMT(bench, moduleIDs, scheme)
	sp.End()
	if err != nil {
		return nil, err
	}
	solveBudget := budget
	if scheme == VaFs {
		// FS enforces a clock, not a power bound (Section 5.3's caveat),
		// so a calibration under-estimate turns directly into a budget
		// violation. Guard with a margin equal to the model's *measured*
		// error on a held-out module — one extra cheap test pair.
		margin, err := fsMargin(cpuClass{fw.Sys.Spec.Arch}, fw.Sys, bench, &fw.PVT.table, pmt.Entries, moduleIDs, test)
		if err != nil {
			return nil, err
		}
		solveBudget = units.Watts(float64(budget) * (1 - margin))
	}
	sp = span.Start("budget.solve")
	alloc, err := Solve(pmt, fw.Sys.Spec.Arch, solveBudget)
	sp.End()
	if err != nil {
		return nil, err
	}
	alloc.Budget = budget
	if !alloc.Feasible {
		return nil, ErrBudgetInfeasible{Scheme: scheme, Budget: budget}
	}
	sp = span.Start("framework.execute")
	res, err := fw.Execute(bench, moduleIDs, alloc, scheme)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &SchemeRun{
		Scheme: scheme, Bench: bench.Name, Budget: budget,
		PMT: pmt, Alloc: alloc, Result: res,
	}, nil
}

// Execute enforces an allocation and runs the application: PC schemes
// program per-module RAPL caps (Equation 9's Pcpu_i); FS schemes pin every
// module to the common α-derived frequency, quantised down to a real
// P-state.
func (fw *Framework) Execute(bench *workload.Benchmark, moduleIDs []int, alloc *Allocation, scheme Scheme) (measure.Result, error) {
	if len(alloc.Entries) != len(moduleIDs) {
		return measure.Result{}, fmt.Errorf("core: allocation covers %d modules, job has %d", len(alloc.Entries), len(moduleIDs))
	}
	cfg := measure.Config{
		Bench: bench, Modules: moduleIDs, Workers: fw.Workers,
		Recorder:    fw.Recorder,
		RecordLabel: fmt.Sprintf("%s/%v", bench.Name, scheme),
		Attrib:      fw.Attrib,
		Tenant:      fw.Tenant,
		JobID:       fw.JobID,
	}
	if scheme.UsesFS() {
		f := fw.Sys.Spec.Arch.QuantizeDown(alloc.Freq)
		cfg.Mode = measure.ModePinned
		cfg.Freqs = make([]units.Hertz, len(moduleIDs))
		for i := range cfg.Freqs {
			cfg.Freqs[i] = f
		}
	} else {
		caps := alloc.CPUCaps()
		for i, c := range caps {
			if c <= 0 {
				return measure.Result{}, fmt.Errorf("core: non-positive CPU cap %v for module %d", c, alloc.Entries[i].ModuleID)
			}
		}
		cfg.Mode = measure.ModeCapped
		cfg.CPUCaps = caps
	}
	return measure.Run(fw.Sys, cfg)
}
