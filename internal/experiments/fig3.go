package experiments

import (
	"fmt"
	"io"

	"varpower/internal/core"
	"varpower/internal/measure"
	"varpower/internal/report"
	"varpower/internal/stats"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// fig3Caps are the uniform per-module levels of Figure 3 (0 = uncapped).
var fig3Caps = []units.Watts{0, 90, 80, 70, 60}

// Fig3Modules is the paper's communicator size for the synchronisation
// study (a 4×4×4 torus).
const Fig3Modules = 64

// Fig3Level is one cap level of Figure 3: the spread of cumulative
// MPI_Sendrecv time across MHD's ranks.
type Fig3Level struct {
	Cm   units.Watts
	Ccpu units.Watts

	// SyncSeconds is each rank's cumulative time inside MPI_Sendrecv.
	SyncSeconds []float64
	// ModuleWatts is each rank's module power (the y-axis).
	ModuleWatts []float64

	MeanSync float64
	MaxSync  float64
	// Vt is the worst-case variation of cumulative sync time (the paper's
	// very large values — one rank is never waited on).
	Vt float64
	Vp float64
}

// Fig3Result is the Figure-3 sweep.
type Fig3Result struct {
	Modules int
	Levels  []Fig3Level
}

// Figure3 reproduces Figure 3: 64-module MHD under uniform caps, showing
// that constraining power inflates MPI_Sendrecv wait times enormously on
// the ranks whose neighbours got slow modules.
func Figure3(o Options) (Fig3Result, error) {
	o = o.withDefaults()
	sys, _, err := o.haSystem()
	if err != nil {
		return Fig3Result{}, err
	}
	n := Fig3Modules
	if sys.NumModules() < n {
		n = sys.NumModules()
	}
	ids, err := sys.AllocateFirst(n)
	if err != nil {
		return Fig3Result{}, err
	}
	bench := workload.MHD()
	pmt, err := core.OraclePMT(sys, bench, ids, o.Workers)
	if err != nil {
		return Fig3Result{}, err
	}
	avg := pmt.Averages()

	out := Fig3Result{Modules: n}
	for _, cm := range fig3Caps {
		cfg := measure.Config{
			Bench: bench, Modules: ids, Mode: measure.ModeUncapped, Workers: o.Workers,
			Recorder: o.Recorder, RecordLabel: fmt.Sprintf("fig3/%s/Cm=%.0fW", bench.Name, float64(cm)),
		}
		var ccpu units.Watts
		if cm == 0 {
			cfg.RecordLabel = "fig3/" + bench.Name + "/uncapped"
		} else {
			ccpu = UniformCap(avg, cm)
			caps := make([]units.Watts, n)
			for i := range caps {
				caps[i] = ccpu
			}
			cfg.Mode = measure.ModeCapped
			cfg.CPUCaps = caps
		}
		res, err := measure.Run(sys, cfg)
		if err != nil {
			return Fig3Result{}, fmt.Errorf("experiments: figure 3 Cm=%v: %w", cm, err)
		}
		lvl := Fig3Level{Cm: cm, Ccpu: ccpu}
		for _, r := range res.Ranks {
			lvl.SyncSeconds = append(lvl.SyncSeconds, float64(r.Sendrecv))
			lvl.ModuleWatts = append(lvl.ModuleWatts, float64(r.Op.ModulePower()))
		}
		ss := stats.MustSummarize(lvl.SyncSeconds)
		lvl.MeanSync = ss.Mean
		lvl.MaxSync = ss.Max
		lvl.Vt = ss.Variation()
		lvl.Vp = stats.Variation(lvl.ModuleWatts)
		out.Levels = append(out.Levels, lvl)
	}
	return out, nil
}

// RenderFigure3 writes the Figure-3 summary.
func RenderFigure3(w io.Writer, r Fig3Result) error {
	t := report.NewTable(
		fmt.Sprintf("Figure 3: MHD Cumulative MPI_Sendrecv Time under Uniform Caps (%d modules)", r.Modules),
		"Cm", "Ccpu", "Mean sync [s]", "Max sync [s]", "Vt(sync)", "Vp(module)")
	for _, lvl := range r.Levels {
		cm, ccpu := "none", "-"
		if lvl.Cm != 0 {
			cm = fmt.Sprintf("%.0f W", float64(lvl.Cm))
			ccpu = fmt.Sprintf("%.1f W", float64(lvl.Ccpu))
		}
		t.AddRow(cm, ccpu,
			report.Cellf(lvl.MeanSync, 2), report.Cellf(lvl.MaxSync, 2),
			report.Cellf(lvl.Vt, 2), report.Cellf(lvl.Vp, 2))
	}
	return t.Render(w)
}
