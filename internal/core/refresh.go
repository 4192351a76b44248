// Incremental PVT refresh: the recalibration half of the continuous
// attribution loop (internal/attrib). The paper's PVT is generated once by
// a full install-time sweep; when the drift detector flags modules whose
// observed power departed from the table, re-sweeping the whole machine is
// exactly what a hot control plane cannot afford. RefreshPVT instead
// re-measures only the flagged modules — one test-run pair each, plus one
// pair on an unflagged reference module to recover the population averages
// — and splices the new entries into a copy of the live table.
//
// Refreshed entries are additionally *enforcement-aware*: on capping
// systems each flagged module runs a short capped probe (measure.
// CappedProbe) and its CPU scales are divided by the measured enforcement
// factor. A module whose hardware holds 1.2× the programmed limit then
// carries scales 1/1.2 of its natural ones, so the solver's α·pmax cap is
// programmed 1.2× lower and the *actual* draw lands on the allocation —
// the budget adheres even though the hardware still drifts.
package core

import (
	"context"
	"fmt"
	"slices"

	"varpower/internal/cluster"
	"varpower/internal/measure"
	"varpower/internal/parallel"
	"varpower/internal/telemetry"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// Recalibration telemetry (the rest of the varpower_drift_* family lives
// in internal/attrib).
var (
	mRecalibrations = telemetry.Default().Counter("varpower_drift_recalibrations_total",
		"Incremental PVT refreshes triggered by the drift detector or the recalibrate endpoint.", nil)
	mRefreshedModules = telemetry.Default().Counter("varpower_drift_refreshed_modules_total",
		"Modules re-measured and spliced into a live PVT by incremental refresh.", nil)
)

// enfTolerance is the dead band on the measured enforcement factor: within
// it the module is considered faithful and its scales stay natural, so
// floating-point jitter never perturbs a healthy module's refreshed entry.
const enfTolerance = 0.02

// ModuleRefresh records one spliced entry.
type ModuleRefresh struct {
	Module int      `json:"module"`
	Old    PVTEntry `json:"old"`
	New    PVTEntry `json:"new"`
	// Enforcement is the measured cap-enforcement factor (1 = faithful;
	// folded into New's CPU scales when outside the tolerance band).
	Enforcement    float64 `json:"enforcement"`
	WasQuarantined bool    `json:"was_quarantined,omitempty"`
}

// RefreshReport summarises one incremental refresh.
type RefreshReport struct {
	System         string `json:"system"`
	Microbenchmark string `json:"microbenchmark"`
	// Reference is the unflagged module whose test pair anchored the
	// population averages.
	Reference int             `json:"reference"`
	Modules   []ModuleRefresh `json:"modules"`
}

// RefreshPVT re-measures the listed modules and splices the results into a
// copy of pvt (the input table is never mutated — callers swap the returned
// pointer in atomically). The cost is 1+len(modules) test-run pairs plus
// one short capped probe per module on capping systems — never a full
// sweep. Deterministic at any worker count: the fan-out is per-module and
// the splice order is ascending module ID.
func RefreshPVT(sys *cluster.System, pvt *PVT, modules []int, workers int) (*PVT, *RefreshReport, error) {
	if pvt == nil || len(pvt.Entries) == 0 {
		return nil, nil, fmt.Errorf("core: refresh needs a non-empty PVT")
	}
	if pvt.System != sys.Spec.Name {
		return nil, nil, fmt.Errorf("core: PVT is for %q, system is %q", pvt.System, sys.Spec.Name)
	}
	if len(modules) == 0 {
		return nil, nil, fmt.Errorf("core: refresh needs at least one module")
	}
	ids := slices.Clone(modules)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	if ids[0] < 0 || ids[len(ids)-1] >= sys.NumModules() {
		return nil, nil, fmt.Errorf("core: refresh modules %v outside [0,%d)", modules, sys.NumModules())
	}

	micro, err := workload.ByName(pvt.Microbenchmark)
	if err != nil {
		micro = workload.PVTMicrobenchmark()
	}
	mRecalibrations.Inc()
	span := telemetry.StartSpan("pvt.refresh").Annotate("%s modules=%d", sys.Spec.Name, len(ids))
	defer span.End()

	// The population averages the original sweep normalised against are
	// recovered from one unflagged, unquarantined reference module: its
	// measurement divided by its scales. Test runs are deterministic in
	// (seed, module), so the implied averages equal the install-time ones
	// exactly and the spliced entries stay on the original scale.
	refID, err := refreshReference(pvt, ids)
	if err != nil {
		return nil, nil, err
	}
	refEntry, err := pvt.Entry(refID)
	if err != nil {
		return nil, nil, err
	}
	refPair, err := RunTestPair(sys, micro, refID)
	if err != nil {
		return nil, nil, fmt.Errorf("core: refresh reference module %d: %w", refID, err)
	}
	avg := refPair.reading().apply(refEntry.reading(), quo)
	if !avg.positive() {
		return nil, nil, fmt.Errorf("core: refresh reference module %d measured zero power", refID)
	}

	canCap := sys.Spec.Measurement.SupportsCapping()
	rows, err := parallel.Map(context.TODO(), workers, len(ids), func(_ context.Context, i int) (ModuleRefresh, error) {
		id := ids[i]
		old, err := pvt.Entry(id)
		if err != nil {
			return ModuleRefresh{}, err
		}
		pair, err := RunTestPair(sys, micro, id)
		if err != nil {
			return ModuleRefresh{}, fmt.Errorf("core: refresh module %d: %w", id, err)
		}
		enf := 1.0
		if canCap {
			// Enforcement probe: a cap midway between the module's fmin and
			// fmax draws is guaranteed to bind, so the observed package
			// energy over cap-expected energy is the enforcement factor.
			probeCap := units.Watts((float64(pair.AtMax.CPUPower) + float64(pair.AtMin.CPUPower)) / 2)
			f, err := measure.CappedProbe(sys, micro, id, probeCap)
			if err != nil {
				return ModuleRefresh{}, fmt.Errorf("core: refresh enforcement probe on module %d: %w", id, err)
			}
			if f > 1+enfTolerance || f < 1-enfTolerance {
				enf = f
			}
		}
		scales := pair.reading().apply(avg, quo)
		scales.v[0][0] /= enf
		scales.v[1][0] /= enf
		return ModuleRefresh{
			Module: id, Old: old, Enforcement: enf,
			WasQuarantined: pvt.IsQuarantined(id),
			New:            PVTEntry{}.withReading(scales),
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}

	next := &PVT{
		System:         pvt.System,
		Microbenchmark: pvt.Microbenchmark,
		table:          table[PVTEntry]{Entries: append([]PVTEntry(nil), pvt.Entries...)},
	}
	refreshed := make(map[int]bool, len(ids))
	for _, row := range rows {
		next.Entries[row.Module] = row.New
		refreshed[row.Module] = true
	}
	// A refreshed module has a real measurement again; drop it from the
	// quarantine list so schedulers and calibration stop skipping it.
	for _, q := range pvt.Quarantined {
		if !refreshed[q] {
			next.Quarantined = append(next.Quarantined, q)
		}
	}
	mRefreshedModules.Add(float64(len(rows)))
	return next, &RefreshReport{
		System: pvt.System, Microbenchmark: micro.Name,
		Reference: refID, Modules: rows,
	}, nil
}

// refreshReference picks the module anchoring the implied population
// averages: not being refreshed, not quarantined, and — like the
// calibration test module (nextCandidate) — the one whose scales lie
// closest to the population mean, where any measurement idiosyncrasy has
// the least leverage.
func refreshReference(pvt *PVT, refreshing []int) (int, error) {
	best, bestDev := -1, 0.0
	for _, e := range pvt.Entries {
		if slices.Contains(refreshing, e.ModuleID) || pvt.IsQuarantined(e.ModuleID) {
			continue
		}
		dev := deviation(cpuWeights, e.reading())
		if best < 0 || dev < bestDev {
			best, bestDev = e.ModuleID, dev
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("core: refresh has no healthy reference module (all %d flagged or quarantined)", len(pvt.Entries))
	}
	return best, nil
}

// Refresh re-measures the listed modules and splices the result into the
// framework's live PVT (see RefreshPVT). The swap is a pointer replacement:
// in-flight uses of the old table finish against a consistent snapshot.
func (fw *Framework) Refresh(modules []int) (*RefreshReport, error) {
	pvt, rep, err := RefreshPVT(fw.Sys, fw.PVT, modules, fw.Workers)
	if err != nil {
		return nil, err
	}
	fw.PVT = pvt
	return rep, nil
}
