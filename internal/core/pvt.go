// Package core implements the paper's contribution: variation-aware power
// budgeting (Section 5). The pipeline, mirroring Figure 4:
//
//  1. a Power Variation Table (PVT) is generated once per system by running
//     a microbenchmark (*STREAM) on every module at the maximum and minimum
//     CPU frequencies (pvt.go);
//  2. a new application is instrumented with power measurement and
//     management directives (pmmd.go) and test-run on a single module at
//     fmax and fmin (pmt.go);
//  3. the test measurements are calibrated against the PVT into an
//     application-dependent Power Model Table (PMT) covering all modules
//     (pmt.go);
//  4. a single application-wide coefficient α is chosen so the summed
//     per-module linear power models meet the global budget, and each
//     module receives its own allocation (budget.go, Equations 1–9);
//  5. the allocation is enforced by RAPL power capping (PC) or frequency
//     selection (FS) for the final run (schemes.go, runner.go).
//
// Steps 1–4 are written once (calibrate.go) and run for every device
// class: the paper's CPU modules and, on hybrid systems, GPU boards
// (gpu.go, hetero.go). A class contributes only what differs — its probe,
// control ladder, spec-sheet row and ranking weights (class.go).
package core

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"varpower/internal/cluster"
	"varpower/internal/telemetry"
	"varpower/internal/workload"
)

// PVTEntry stores one module's variation scales: its measured power divided
// by the system-wide average, for CPU and DRAM at the maximum and minimum
// CPU frequencies (the paper's Figure 6, left table).
type PVTEntry struct {
	ModuleID int     `json:"module"`
	CPUMax   float64 `json:"cpu_max"`
	DramMax  float64 `json:"dram_max"`
	CPUMin   float64 `json:"cpu_min"`
	DramMin  float64 `json:"dram_min"`
}

func (e PVTEntry) reading() reading {
	return reading{id: e.ModuleID, n: 2, v: [2][2]float64{{e.CPUMax, e.DramMax}, {e.CPUMin, e.DramMin}}}
}

func (PVTEntry) withReading(r reading) PVTEntry {
	return PVTEntry{ModuleID: r.id, CPUMax: r.v[0][0], DramMax: r.v[0][1], CPUMin: r.v[1][0], DramMin: r.v[1][1]}
}

// PVT is the application-independent, system-level Power Variation Table.
// It is generated once, when the system is installed, and reused for every
// application (Section 5.2).
type PVT struct {
	System         string `json:"system"`
	Microbenchmark string `json:"microbenchmark"`
	table[PVTEntry]
}

// GeneratePVT builds the table by test-running the microbenchmark (nil
// selects *STREAM) on every module at fmax (nominal) and fmin, then
// normalising by the population average — the install-time step, whose
// cost never recurs during budgeting. The test runs fan out over workers
// (< 1 selects GOMAXPROCS, 1 is serial) with byte-identical results; a
// parallel.WithProgress callback on ctx receives per-module updates. Under
// fault injection, persistently failing or outlying modules are
// quarantined with neutral scales instead of failing the install.
func GeneratePVT(ctx context.Context, sys *cluster.System, micro *workload.Benchmark, workers int) (*PVT, error) {
	if micro == nil {
		micro = workload.PVTMicrobenchmark()
	}
	span := telemetry.StartSpan("pvt.generate").Annotate("%s modules=%d", sys.Spec.Name, sys.NumModules())
	defer span.End()
	t, err := sweep[PVTEntry](ctx, cpuClass{sys.Spec.Arch}, sys, micro, sys.NumModules(), workers)
	if err != nil {
		return nil, err
	}
	return &PVT{System: sys.Spec.Name, Microbenchmark: micro.Name, table: t}, nil
}

// Save serialises the PVT as JSON (the on-disk form a production system
// would keep from install time).
func (p *PVT) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// LoadPVT deserialises a PVT written by Save and validates its shape.
func LoadPVT(r io.Reader) (*PVT, error) {
	var p PVT
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("core: load PVT: %w", err)
	}
	if len(p.Entries) == 0 {
		return nil, fmt.Errorf("core: load PVT: no entries")
	}
	for i, e := range p.Entries {
		if !e.reading().positive() {
			return nil, fmt.Errorf("core: load PVT: non-positive scale in entry %d", i)
		}
	}
	return &p, nil
}
