package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"varpower/internal/cluster"
	"varpower/internal/hw/sensors"
	"varpower/internal/measure"
	"varpower/internal/parallel"
	"varpower/internal/report"
	"varpower/internal/stats"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// Fig1Point is one measurement unit (socket or node board) in a Figure-1
// panel: its slowdown versus the fastest unit and its power increase versus
// the most power-efficient unit, both in percent.
type Fig1Point struct {
	UnitID           int
	SlowdownPct      float64
	PowerIncreasePct float64
}

// Fig1Series is one panel of Figure 1.
type Fig1Series struct {
	System      string
	Measurement string
	Units       int

	// Points are sorted by performance (fastest first), as in the paper.
	Points []Fig1Point

	MaxPowerIncreasePct float64
	MaxSlowdownPct      float64
	// SlowdownPowerCorr is the Pearson correlation between slowdown and
	// power — the paper observes ≈0 on Cab/Vulcan and a *negative* value
	// on Teller.
	SlowdownPowerCorr float64
}

// Figure1 reproduces the paper's Figure 1: single-socket NPB-EP power and
// performance on Cab (RAPL, per socket), Vulcan (EMON, per 32-node board)
// and Teller (PowerInsight, per socket). EP is chosen for the reasons the
// paper gives: CPU-bound, cache-resident, and essentially free of run-to-
// run noise, so the observed spread is manufacturing variability alone.
func Figure1(o Options) ([]Fig1Series, error) {
	o = o.withDefaults()
	// The three panels are entirely independent machines; they build
	// concurrently, and each panel's per-rank measurement fans out too.
	panels := []func() (Fig1Series, error){
		func() (Fig1Series, error) { return socketSeries(cluster.Cab(), o.CabSockets, o.Seed, false, o.Workers) },
		func() (Fig1Series, error) { return boardSeries(cluster.Vulcan(), o.VulcanBoards, o.Seed, o.Workers) },
		func() (Fig1Series, error) {
			return socketSeries(cluster.Teller(), o.TellerSockets, o.Seed, true, o.Workers)
		},
	}
	names := []string{"Cab", "Vulcan", "Teller"}
	return parallel.Map(context.TODO(), o.Workers, len(panels), func(_ context.Context, i int) (Fig1Series, error) {
		s, err := panels[i]()
		if err != nil {
			return Fig1Series{}, fmt.Errorf("experiments: figure 1 %s: %w", names[i], err)
		}
		return s, nil
	})
}

// epRun executes the single-socket EP study: every module runs EP
// uncapped and independently (the final tiny reduction is the only
// communication, so per-rank busy time is the single-socket execution
// time).
func epRun(spec cluster.Spec, n int, seed uint64, workers int) (*cluster.System, measure.Result, error) {
	sys, err := cluster.New(spec, n, seed)
	if err != nil {
		return nil, measure.Result{}, err
	}
	ids, err := sys.AllocateFirst(n)
	if err != nil {
		return nil, measure.Result{}, err
	}
	res, err := measure.Run(sys, measure.Config{
		Bench:   workload.EP(),
		Modules: ids,
		Mode:    measure.ModeUncapped,
		Workers: workers,
	})
	if err != nil {
		return nil, measure.Result{}, err
	}
	return sys, res, nil
}

// socketSeries builds a per-socket panel. Power is read through the
// system's measurement technique: RAPL counters on Cab, a PowerInsight
// sensor (with its ADC noise and calibration offset) on Teller.
func socketSeries(spec cluster.Spec, n int, seed uint64, usePI bool, workers int) (Fig1Series, error) {
	sys, res, err := epRun(spec, n, seed, workers)
	if err != nil {
		return Fig1Series{}, err
	}
	times := make([]float64, n)
	powers := make([]float64, n)
	for i, r := range res.Ranks {
		times[i] = float64(r.Busy)
		truth := r.Op.CPUPower
		if usePI {
			sensor := sensors.Attach(sensors.PowerInsight, seed, r.ModuleID)
			p, err := sensor.Measure(truth, 5)
			if err != nil {
				return Fig1Series{}, err
			}
			powers[i] = float64(p)
		} else {
			powers[i] = float64(truth)
		}
	}
	return assembleSeries(sys.Spec, n, times, powers), nil
}

// boardSeries builds the Vulcan panel: power is the EMON-measured sum of
// each 32-node board (including the board's power-delivery factor), and a
// board's execution time is its slowest node.
func boardSeries(spec cluster.Spec, boards int, seed uint64, workers int) (Fig1Series, error) {
	per := spec.ModulesPerBoard
	sys, res, err := epRun(spec, boards*per, seed, workers)
	if err != nil {
		return Fig1Series{}, err
	}
	times := make([]float64, boards)
	powers := make([]float64, boards)
	for b := 0; b < boards; b++ {
		var sum float64
		var slowest float64
		for j := 0; j < per; j++ {
			r := res.Ranks[b*per+j]
			sum += float64(r.Op.CPUPower)
			if t := float64(r.Busy); t > slowest {
				slowest = t
			}
		}
		truth := units.Watts(sum * sys.BoardFactor(b))
		sensor := sensors.Attach(sensors.EMON, seed, b)
		p, err := sensor.Measure(truth, 30)
		if err != nil {
			return Fig1Series{}, err
		}
		powers[b] = float64(p)
		times[b] = slowest
	}
	return assembleSeries(sys.Spec, boards, times, powers), nil
}

// assembleSeries converts raw (time, power) pairs into the paper's
// percentage axes and summary statistics.
func assembleSeries(spec cluster.Spec, n int, times, powers []float64) Fig1Series {
	tmin := stats.Min(times)
	pmin := stats.Min(powers)
	points := make([]Fig1Point, n)
	slow := make([]float64, n)
	for i := range points {
		slow[i] = (times[i]/tmin - 1) * 100
		points[i] = Fig1Point{
			UnitID:           i,
			SlowdownPct:      slow[i],
			PowerIncreasePct: (powers[i]/pmin - 1) * 100,
		}
	}
	sort.Slice(points, func(a, b int) bool { return points[a].SlowdownPct < points[b].SlowdownPct })
	return Fig1Series{
		System:              spec.Name,
		Measurement:         string(spec.Measurement),
		Units:               n,
		Points:              points,
		MaxPowerIncreasePct: (stats.Max(powers)/pmin - 1) * 100,
		MaxSlowdownPct:      stats.Max(slow),
		SlowdownPowerCorr:   stats.Correlation(slow, powers),
	}
}

// RenderFigure1 writes the summary table for the three panels.
func RenderFigure1(w io.Writer, series []Fig1Series) error {
	t := report.NewTable("Figure 1: Processor Power and Performance Variation (single-socket NPB-EP)",
		"System", "Measurement", "Units", "Max power increase", "Max slowdown", "Slowdown/power corr")
	for _, s := range series {
		t.AddRow(s.System, s.Measurement, fmt.Sprint(s.Units),
			report.Cellf(s.MaxPowerIncreasePct, 1)+" %",
			report.Cellf(s.MaxSlowdownPct, 1)+" %",
			report.Cellf(s.SlowdownPowerCorr, 2))
	}
	return t.Render(w)
}
