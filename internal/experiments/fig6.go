package experiments

import (
	"context"
	"fmt"
	"io"

	"varpower/internal/core"
	"varpower/internal/report"
	"varpower/internal/stats"
	"varpower/internal/workload"
)

// Fig6Row is one application's PVT-based calibration accuracy: the error of
// the predicted PMT against oracle (all-module) measurement.
type Fig6Row struct {
	Bench string

	// Errors are fractions (0.05 == 5%), over module power at fmax and at
	// fmin across all modules.
	MeanErrMax float64
	MaxErrMax  float64
	MeanErrMin float64
	MaxErrMin  float64
}

// Fig6Result is the calibration-accuracy study (paper Figure 6 and the
// accuracy discussion of Section 5.3: < 5% for most benchmarks, ~10% for
// NPB-BT).
type Fig6Result struct {
	Microbenchmark string
	TestModule     int
	Rows           []Fig6Row
}

// Figure6 builds the system PVT from the microbenchmark, calibrates each
// application's PMT from a single-module test pair, and scores the
// prediction against oracle measurement of every module.
func Figure6(o Options) (Fig6Result, error) {
	o = o.withDefaults()
	sys, ids, err := o.haSystem()
	if err != nil {
		return Fig6Result{}, err
	}
	pvt, err := core.GeneratePVT(context.Background(), sys, nil, o.Workers)
	if err != nil {
		return Fig6Result{}, err
	}
	out := Fig6Result{Microbenchmark: pvt.Microbenchmark, TestModule: ids[0]}
	for _, b := range workload.Evaluated() {
		pair, err := core.RunTestPair(sys, b, ids[0])
		if err != nil {
			return Fig6Result{}, fmt.Errorf("experiments: figure 6 %s: %w", b.Name, err)
		}
		pred, err := core.Calibrate(pvt, pair, b, ids)
		if err != nil {
			return Fig6Result{}, err
		}
		oracle, err := core.OraclePMT(sys, b, ids, o.Workers)
		if err != nil {
			return Fig6Result{}, err
		}
		var pMax, aMax, pMin, aMin []float64
		for i := range pred.Entries {
			pMax = append(pMax, float64(pred.Entries[i].ModuleMax()))
			aMax = append(aMax, float64(oracle.Entries[i].ModuleMax()))
			pMin = append(pMin, float64(pred.Entries[i].ModuleMin()))
			aMin = append(aMin, float64(oracle.Entries[i].ModuleMin()))
		}
		out.Rows = append(out.Rows, Fig6Row{
			Bench:      b.Name,
			MeanErrMax: stats.MeanAbsPctError(pMax, aMax),
			MaxErrMax:  stats.MaxAbsPctError(pMax, aMax),
			MeanErrMin: stats.MeanAbsPctError(pMin, aMin),
			MaxErrMin:  stats.MaxAbsPctError(pMin, aMin),
		})
	}
	return out, nil
}

// RenderFigure6 writes the calibration-accuracy table.
func RenderFigure6(w io.Writer, r Fig6Result) error {
	t := report.NewTable(
		fmt.Sprintf("Figure 6 / Sec 5.3: PMT Prediction Error (PVT from %s, test module %d)",
			r.Microbenchmark, r.TestModule),
		"Benchmark", "Mean err @fmax", "Max err @fmax", "Mean err @fmin", "Max err @fmin")
	for _, row := range r.Rows {
		t.AddRow(row.Bench,
			report.Cellf(row.MeanErrMax*100, 1)+" %", report.Cellf(row.MaxErrMax*100, 1)+" %",
			report.Cellf(row.MeanErrMin*100, 1)+" %", report.Cellf(row.MaxErrMin*100, 1)+" %")
	}
	return t.Render(w)
}
