package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"varpower/internal/cluster"
	"varpower/internal/faults"
	"varpower/internal/parallel"
	"varpower/internal/telemetry"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// The calibration pipeline of Figure 4 — PVT sweep, test runs, PMT
// calibration, oracle, model build, α-solve — written once for every
// device class; what differs between classes sits behind deviceClass.

// reading is a table row of either class: a device's power components at
// the top (v[0]) and the bottom (v[1]) of its class's control ladder —
// watts in a PMT or a test pair, scales against the population average in
// a PVT. A CPU module has two components (package, DRAM), a GPU device one
// (board).
type reading struct {
	id, n int
	v     [2][2]float64
}

// as is r relabelled for device id.
func (r reading) as(id int) reading {
	r.id = id
	return r
}

// totals sums the components at the top and at the bottom of the ladder.
func (r reading) totals() (top, bottom float64) {
	for c := 0; c < r.n; c++ {
		top += r.v[0][c]
		bottom += r.v[1][c]
	}
	return top, bottom
}

// apply combines r with o component by component, keeping r's ID.
func (r reading) apply(o reading, f func(x, y float64) float64) reading {
	for end := range r.v {
		for c := 0; c < r.n; c++ {
			r.v[end][c] = f(r.v[end][c], o.v[end][c])
		}
	}
	return r
}

func add(x, y float64) float64 { return x + y }
func quo(x, y float64) float64 { return x / y }
func mul(x, y float64) float64 { return x * y }

func uniformReading(n int, x float64) reading {
	return reading{n: n, v: [2][2]float64{{x, x}, {x, x}}}
}

// positive reports whether every component at both ends is above zero.
func (r reading) positive() bool {
	for end := range r.v {
		for c := 0; c < r.n; c++ {
			if r.v[end][c] <= 0 {
				return false
			}
		}
	}
	return true
}

// readable reports whether a measured reading can enter a model: every
// component positive and the bottom of the ladder drawing no more than the
// top. A dropped sensor sample reads 0 W and fails the check.
func (r reading) readable() bool {
	top, bottom := r.totals()
	return r.positive() && bottom <= top
}

// row is a per-device table entry of either class, seen as a reading.
type row[E any] interface {
	reading() reading
	withReading(r reading) E
}

func (r reading) reading() reading            { return r }
func (reading) withReading(r reading) reading { return r }

// table is the part of a PVT both classes share: per-device scales and the
// devices the install sweep quarantined. PVT and GPUPVT embed it.
type table[S row[S]] struct {
	Entries []S `json:"entries"`

	// Quarantined lists devices whose install-time measurements failed
	// persistently or fell outside the robust population statistics (MAD
	// outlier rejection); their entries carry neutral scales and are
	// excluded from the population averages. Empty on a healthy system.
	Quarantined []int `json:"quarantined,omitempty"`
}

// IsQuarantined reports whether a device's entry is a quarantine
// placeholder rather than a measurement.
func (t *table[S]) IsQuarantined(id int) bool { return slices.Contains(t.Quarantined, id) }

// Entry returns the scales for a device ID.
func (t *table[S]) Entry(id int) (S, error) {
	s, err := t.scales(id)
	var zero S
	return zero.withReading(s), err
}

func (t *table[S]) scales(id int) (reading, error) {
	if id >= 0 && id < len(t.Entries) {
		if s := t.Entries[id].reading(); s.id == id {
			return s, nil
		}
	}
	// Defensive: entries are indexed by ID at generation time.
	for _, e := range t.Entries {
		if s := e.reading(); s.id == id {
			return s, nil
		}
	}
	return reading{}, fmt.Errorf("core: device %d not in PVT (%d entries)", id, len(t.Entries))
}

// sweep is the install-time step: probe bench on each of the class's n
// devices and normalise every reading by the population average, reduced
// in device order so the table is byte-identical for every worker count.
// A failed probe fails the sweep unless the class retries faulty devices,
// which are then quarantined, as are MAD outliers under fault injection.
func sweep[S row[S]](ctx context.Context, c deviceClass, sys *cluster.System, bench *workload.Benchmark, n, workers int) (table[S], error) {
	k := len(c.weights())
	faulty := sys.Faults() != nil
	retries := 0
	if faulty {
		retries = c.sweepRetries()
	}
	quar := make([]bool, n)
	raws, err := parallel.MapCtx(ctx, workers, n, func(_ context.Context, id int) (reading, error) {
		var lastErr error
		for a := 0; a <= retries; a++ {
			if a > 0 {
				faults.MetricRetried.Inc()
			}
			r, err := c.probe(sys, bench, id)
			if err == nil {
				return r, nil
			}
			lastErr = fmt.Errorf("core: PVT sweep of %s %d: %w", c.noun(), id, err)
		}
		if retries > 0 {
			quar[id] = true
			return reading{id: id}, nil
		}
		return reading{}, lastErr
	})
	if err != nil {
		return table[S]{}, err
	}
	if faulty {
		// MAD outlier rejection over each component at each end of the
		// ladder in turn: a wildly off-population reading (a spiked or
		// stuck counter) degrades its own entry instead of everyone's
		// normalisation. A healthy install keeps its exact statistics.
		idx := make([]int, 0, n)
		vals := make([]float64, 0, n)
		for end := 0; end < 2; end++ {
			for comp := 0; comp < k; comp++ {
				idx, vals = idx[:0], vals[:0]
				for id := 0; id < n; id++ {
					if !quar[id] {
						idx = append(idx, id)
						vals = append(vals, raws[id].v[end][comp])
					}
				}
				for _, i := range faults.Outliers(vals, 0) {
					quar[idx[i]] = true
				}
			}
		}
	}
	avg, kept := mean(raws, func(r reading) bool { return !quar[r.id] })
	if kept == 0 {
		return table[S]{}, fmt.Errorf("core: PVT generation quarantined every %s", c.noun())
	}
	if !avg.positive() {
		return table[S]{}, fmt.Errorf("core: PVT generation measured zero average power")
	}
	t := table[S]{Entries: make([]S, n)}
	var zero S
	for id := 0; id < n; id++ {
		if quar[id] {
			// Neutral placeholder: the device is treated as exactly average
			// if a job lands on it, and reported so schedulers can avoid it.
			t.Entries[id] = zero.withReading(uniformReading(k, 1).as(id))
			t.Quarantined = append(t.Quarantined, id)
			faults.MetricQuarantined.Inc()
			continue
		}
		t.Entries[id] = zero.withReading(raws[id].apply(avg, quo))
	}
	return t, nil
}

// calibrate is the paper's power model calibration (Section 5.2, Figure 6):
// divide the test device's measured powers by its PVT scales to estimate
// the population averages, then multiply those averages by every target
// device's scales.
func calibrate[S row[S], E row[E]](t *table[S], test reading, ids []int) ([]E, error) {
	ref, err := t.scales(test.id)
	if err != nil {
		return nil, fmt.Errorf("core: calibrate: test %w", err)
	}
	avg := test.apply(ref, quo)
	rows := make([]E, len(ids))
	var zero E
	for i, id := range ids {
		s, err := t.scales(id)
		if err != nil {
			return nil, fmt.Errorf("core: calibrate: %w", err)
		}
		rows[i] = zero.withReading(s.apply(avg, mul))
	}
	return rows, nil
}

// oracle measures every allocated device directly (serially when IDs
// repeat: their probes reprogram the same device in order). An unreadable
// row — a 0 W sample a faulty device repeats on every probe — takes the
// mean of the readable rows, the PVT's neutral placeholder, and counts as
// quarantined.
func oracle[E row[E]](c deviceClass, sys *cluster.System, bench *workload.Benchmark, ids []int, workers int) ([]E, error) {
	span := telemetry.StartSpan("pmt.oracle").Annotate("%s %ss=%d", bench.Name, c.noun(), len(ids))
	defer span.End()
	if hasDuplicates(ids) {
		workers = 1
	}
	var zero E
	rows, err := parallel.Map(workers, len(ids), func(i int) (E, error) {
		r, err := c.probe(sys, bench, ids[i])
		if err != nil {
			return zero, fmt.Errorf("core: oracle PMT %s %d: %w", c.noun(), ids[i], err)
		}
		return zero.withReading(r), nil
	})
	if err != nil {
		return nil, err
	}
	avg, kept := mean(rows, reading.readable)
	if kept == len(rows) {
		return rows, nil
	}
	if kept == 0 {
		return nil, fmt.Errorf("core: oracle PMT read no usable %s", c.noun())
	}
	for i, e := range rows {
		if r := e.reading(); !r.readable() {
			rows[i] = zero.withReading(avg.as(r.id))
			faults.MetricQuarantined.Inc()
		}
	}
	return rows, nil
}

// hasDuplicates reports whether the allocation lists any device twice.
func hasDuplicates(ids []int) bool {
	sorted := slices.Clone(ids)
	slices.Sort(sorted)
	return len(slices.Compact(sorted)) < len(ids)
}

// mean averages the rows whose reading passes keep (nil keeps all),
// component by component, and counts them.
func mean[E row[E]](rows []E, keep func(reading) bool) (reading, int) {
	var s reading
	kept := 0
	for _, e := range rows {
		if r := e.reading(); keep == nil || keep(r) {
			s.n = r.n
			s = s.apply(r, add)
			kept++
		}
	}
	return s.apply(uniformReading(s.n, float64(kept)), quo), kept
}

// fill gives every allocated device the same reading.
func fill[E row[E]](ids []int, r reading) []E {
	rows := make([]E, len(ids))
	var zero E
	for i, id := range ids {
		rows[i] = zero.withReading(r.as(id))
	}
	return rows
}

// demand adds the rows' modelled bottom and top totals to running sums.
func demand[E row[E]](rows []E, min, max units.Watts) (units.Watts, units.Watts) {
	for _, e := range rows {
		top, bottom := e.reading().totals()
		min += units.Watts(bottom)
		max += units.Watts(top)
	}
	return min, max
}

// deviation is how far a device's PVT scales lie from the population mean,
// each component weighted by the class's ranking weight.
func deviation(weights []float64, s reading) float64 {
	var d float64
	for c := 0; c < s.n; c++ {
		d += weights[c] * (math.Abs(s.v[0][c]-1) + math.Abs(s.v[1][c]-1))
	}
	return d
}

// rank picks the two allocated devices whose PVT scales lie closest to the
// population mean. The closest hosts the calibration test runs: any
// idiosyncrasy of the test device biases the whole table, and an average
// device has the least leverage. The runner-up is the FS margin's holdout.
// Quarantined devices carry placeholder scales of exactly 1 — deceptively
// "closest to the mean" — so they are skipped outright.
func rank[S row[S]](c deviceClass, t *table[S], ids []int) (test, holdout int) {
	w := c.weights()
	test, holdout = -1, -1
	testDev, holdDev := math.Inf(1), math.Inf(1)
	for _, id := range ids {
		if t.IsQuarantined(id) {
			continue
		}
		s, err := t.scales(id)
		if err != nil {
			continue
		}
		switch dev := deviation(w, s); {
		case dev < testDev:
			holdout, holdDev, test, testDev = test, testDev, id, dev
		case dev < holdDev && id != test:
			holdout, holdDev = id, dev
		}
	}
	if test < 0 {
		test = ids[0]
	}
	if holdout < 0 {
		holdout = ids[0]
		if holdout == test && len(ids) > 1 {
			holdout = ids[1]
		}
	}
	return test, holdout
}

// model builds a scheme's power model of the allocated devices: the
// spec-sheet row for Naive; every device measured and averaged for Pc (the
// paper's "application-specific average values across all modules");
// one test device calibrated through the PVT for VaPc/VaFs; every device
// measured for VaPcOr/VaFsOr.
func model[S row[S], E row[E]](c deviceClass, sys *cluster.System, bench *workload.Benchmark, t *table[S], ids []int, scheme Scheme, workers int) ([]E, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: empty %s allocation", c.noun())
	}
	switch scheme {
	case Naive:
		return fill[E](ids, c.naive()), nil
	case Pc:
		rows, err := oracle[E](c, sys, bench, ids, workers)
		if err != nil {
			return nil, err
		}
		avg, _ := mean(rows, nil)
		return fill[E](ids, avg), nil
	case VaPc, VaFs:
		test, _ := rank(c, t, ids)
		pair, err := c.probe(sys, bench, test)
		if err != nil {
			return nil, err
		}
		return calibrate[S, E](t, pair, ids)
	case VaPcOr, VaFsOr:
		return oracle[E](c, sys, bench, ids, workers)
	default:
		return nil, fmt.Errorf("core: unknown scheme %v", scheme)
	}
}

// naiveName labels the application-independent spec-sheet model.
const naiveName = "(naive)"

// modelName labels a scheme's model table.
func modelName(bench *workload.Benchmark, scheme Scheme) string {
	if scheme == Naive {
		return naiveName
	}
	return bench.Name
}

// fsMargin measures the model's relative prediction error on the holdout
// device and returns it, clamped to [0.005, 0.08], as the budget reserve
// for frequency selection (FS enforces a clock, not a power bound).
func fsMargin[S row[S], E row[E]](c deviceClass, sys *cluster.System, bench *workload.Benchmark, t *table[S], rows []E, ids []int) (float64, error) {
	_, holdout := rank(c, t, ids)
	measured, err := c.probe(sys, bench, holdout)
	if err != nil {
		return 0, fmt.Errorf("core: FS margin holdout run: %w", err)
	}
	for _, e := range rows {
		if pred := e.reading(); pred.id == holdout {
			return units.Clamp(holdoutError(pred, measured), 0.005, 0.08), nil
		}
	}
	return 0, fmt.Errorf("core: holdout %s %d missing from PMT", c.noun(), holdout)
}

// holdoutError scores a predicted row against a held-out device's measured
// powers: the mean relative error of its total power at the top and the
// bottom of the ladder.
func holdoutError(pred, measured reading) float64 {
	predTop, predBottom := pred.totals()
	top, bottom := measured.totals()
	return (relErr(predTop, top) + relErr(predBottom, bottom)) / 2
}

func relErr(pred, act float64) float64 {
	if act == 0 {
		return 0
	}
	return math.Abs(pred-act) / math.Abs(act)
}

// solution is the α-solve's outcome for one class: α, its point on the
// class's ladder (Equation 1), and the flags Allocation documents.
type solution struct {
	alpha, shrink                  float64
	level                          units.Hertz
	feasible, clamped, constrained bool
}

// share is a device's allocation at the solved α for a modelled range
// [bottom, top], shrunk proportionally under best-effort admission.
func (s solution) share(bottom, top units.Watts) units.Watts {
	return units.Watts(units.Lerp(float64(bottom), float64(top), s.alpha) * s.shrink)
}

// solve runs the variation-aware budgeting algorithm (Section 5.1) over a
// class's model: the maximum α with Σᵢ(α·(P_top,i − P_bottom,i) +
// P_bottom,i) ≤ budget, placed on the class's ladder.
func solve[E row[E]](c deviceClass, rows []E, budget units.Watts) (solution, error) {
	if len(rows) == 0 {
		return solution{}, fmt.Errorf("core: solve on empty PMT")
	}
	if budget <= 0 {
		return solution{}, fmt.Errorf("core: non-positive budget %v", budget)
	}
	var sumMin, sumRange float64
	for _, e := range rows {
		r := e.reading()
		max, min := r.totals()
		if min < 0 || max < min {
			return solution{}, fmt.Errorf("core: %s %d has inverted power range [%v, %v]", c.noun(), r.id, min, max)
		}
		sumMin += min
		sumRange += max - min
	}

	// bestEffortMargin bounds how far below the predicted bottom-of-ladder
	// power a budget may fall and still be admitted (with proportionally
	// shrunk allocations). Beyond it the job is declared infeasible.
	const bestEffortMargin = 0.85

	s := solution{shrink: 1, feasible: true, constrained: true}
	switch {
	case float64(budget) < sumMin:
		// Even the bottom of the ladder everywhere exceeds the budget.
		s.clamped = true
		s.shrink = float64(budget) / sumMin
		if s.shrink < bestEffortMargin {
			s.feasible = false
		}
	case sumRange == 0:
		s.alpha = 1
		s.constrained = false
	default:
		s.alpha = (float64(budget) - sumMin) / sumRange
		if s.alpha >= 1 {
			s.alpha = 1
			s.constrained = false
		}
	}
	bottom, top := c.ladder()
	s.level = units.Hertz(units.Lerp(float64(bottom), float64(top), s.alpha))
	mSolves.Inc()
	if !s.feasible {
		mSolveInfeasible.Inc()
	}
	if s.clamped {
		mSolveClamped.Inc()
	}
	mAlphaHist.Observe(s.alpha)
	return s, nil
}
