package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tail must sort
	}
	return xs
}

func TestTailKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n         int
		wantValue float64
		wantPct   float64
	}{
		{n: 5, wantValue: 5, wantPct: 100},         // too few: the maximum
		{n: 10, wantValue: 10, wantPct: 100},       // still too few
		{n: 11, wantValue: 1, wantPct: 100.0 / 11}, // the one value with ten above
		{n: 30, wantValue: 20, wantPct: 100.0 * 20 / 30},
		{n: 1000, wantValue: 990, wantPct: 99},  // exactly ten beyond p99
		{n: 5000, wantValue: 4950, wantPct: 99}, // capped at p99
	} {
		v, pct := tail(seq(tc.n))
		if v != tc.wantValue || pct != tc.wantPct {
			t.Errorf("n=%d: tail %v at p%.4f, want %v at p%.4f", tc.n, v, pct, tc.wantValue, tc.wantPct)
		}
		if tc.n > tailBeyond {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < tailBeyond {
				t.Errorf("n=%d: only %d samples beyond the tail", tc.n, beyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
}

func TestSegmentedMedians(t *testing.T) {
	// Ten one-second segments: nine at 100 ops/s, one stalled at 10.
	var ops []opTiming
	for k := 0; k < 10; k++ {
		n := 100
		if k == 3 {
			n = 10
		}
		for i := 0; i < n; i++ {
			end := time.Duration(k)*time.Second + time.Duration(i)*time.Second/time.Duration(n)
			ops = append(ops, opTiming{latency: time.Millisecond, end: end})
		}
	}
	var samples []resSample
	for ms := 0; ms <= 10000; ms += 50 {
		d := time.Duration(ms) * time.Millisecond
		samples = append(samples, resSample{at: d, cpu: d / 2, alloc: uint64(ms) * 1024})
	}
	s := segmented(ops, samples, 10*time.Second)
	if len(s.segs) != 10 || s.opsPerS != 100 {
		t.Errorf("segments %d, median rate %v; want 10 segments at 100/s", len(s.segs), s.opsPerS)
	}
	if s.p50Ms != 1 {
		t.Errorf("p50 %v ms, want 1", s.p50Ms)
	}
	// 500 ms of CPU and 1000 KiB per one-second segment of 100 ops.
	if s.cpuMsPerOp != 5 || s.allocKBPerOp != 10 {
		t.Errorf("cpu %v ms/op, alloc %v KiB/op; want 5 and 10", s.cpuMsPerOp, s.allocKBPerOp)
	}
}

func TestSegmentsHoldWholeOps(t *testing.T) {
	// One client, one CPU, 45 ms ops back to back for ten seconds: a
	// fixed one-second segment would hold 22 or 23 of them, one whose
	// boundaries sit on op completions holds whole ops, so every segment
	// reads the op's own rate and CPU time.
	var ops []opTiming
	for end := 45 * time.Millisecond; end <= 10*time.Second; end += 45 * time.Millisecond {
		ops = append(ops, opTiming{latency: 45 * time.Millisecond, end: end})
	}
	var samples []resSample
	for d := time.Duration(0); d <= 10*time.Second; d += 5 * time.Millisecond {
		samples = append(samples, resSample{at: d, cpu: d})
	}
	s := segmented(ops, samples, 10*time.Second)
	for i, sg := range s.segs[:len(s.segs)-1] {
		if math.Abs(sg.OpsPerS-1/0.045) > 1e-6 || math.Abs(sg.CPUMsPerOp-45) > 1e-6 {
			t.Errorf("segment %d: %v ops/s, %v ms CPU per op; want %v and 45", i, sg.OpsPerS, sg.CPUMsPerOp, 1/0.045)
		}
	}
}

func TestSegmentedStealCorrection(t *testing.T) {
	// One ten-second segment of 100 ops while the host steals 20% of the
	// runnable CPU time: the rate scales by 1/0.8; a 4 ms median (longer
	// than a steal pause) by 0.8, a 0.1 ms median barely.
	for _, tc := range []struct {
		latency time.Duration
		wantP50 float64
	}{{4 * time.Millisecond, 3.2}, {100 * time.Microsecond, 0.1 * (1 - 0.2*0.1)}} {
		var ops []opTiming
		for i := 0; i < 100; i++ {
			ops = append(ops, opTiming{latency: tc.latency, end: time.Duration(i) * 100 * time.Millisecond})
		}
		var samples []resSample
		for k := 0; k <= 200; k++ {
			// 4 busy ticks and 1 stolen tick between samples.
			samples = append(samples, resSample{at: time.Duration(k) * 50 * time.Millisecond, ticks: cpuTicks{busy: int64(4 * k), steal: int64(k)}, ticksOK: true})
		}
		s := segmented(ops, samples, 10*time.Second)
		if math.Abs(s.opsPerS-12.5) > 1e-9 || math.Abs(s.wallOpsPerS-10) > 1e-9 {
			t.Errorf("rate %v (wall %v), want 12.5 (10)", s.opsPerS, s.wallOpsPerS)
		}
		if math.Abs(s.p50Ms-tc.wantP50) > 1e-9 {
			t.Errorf("latency %v: corrected median %v ms, want %v", tc.latency, s.p50Ms, tc.wantP50)
		}
	}
}

func TestStealShareIgnoresBusyCPUCount(t *testing.T) {
	// The host takes a fifth of every runnable CPU's time, once with one
	// of two CPUs busy for a second and once with both: the share is the
	// same, so a program that keeps more CPUs busy is not corrected more.
	one := stolen(cpuTicks{}, cpuTicks{busy: 80, steal: 20})
	two := stolen(cpuTicks{}, cpuTicks{busy: 160, steal: 40})
	if one != 0.2 || two != 0.2 {
		t.Errorf("steal share %v with one busy CPU, %v with two; want 0.2 both", one, two)
	}
	if got := stolen(cpuTicks{busy: 5, steal: 5}, cpuTicks{busy: 5, steal: 5}); got != 0 {
		t.Errorf("steal share %v over an idle interval, want 0", got)
	}
	if got := stealShare(resSample{}, resSample{at: time.Second}); got != -1 {
		t.Errorf("steal share %v without /proc/stat, want -1", got)
	}
}

func TestSegmentedReferenceScaling(t *testing.T) {
	// One ten-second segment of 100 ops of 0.2 ms, 1 s of CPU, while the
	// reference kernel takes twice refNominal: the core ran at half speed,
	// so the corrected CPU per op and median halve and the rate doubles;
	// the measured figures stay as they were.
	var ops []opTiming
	for i := 0; i < 100; i++ {
		ops = append(ops, opTiming{latency: 200 * time.Microsecond, end: time.Duration(i) * 100 * time.Millisecond})
	}
	var samples []resSample
	for k := 0; k <= 200; k++ {
		d := time.Duration(k) * 50 * time.Millisecond
		samples = append(samples, resSample{at: d, cpu: d / 10, ref: 2 * refNominal})
	}
	s := segmented(ops, samples, 10*time.Second)
	if math.Abs(s.cpuMsPerOp-5) > 1e-9 || math.Abs(s.measuredCPUMsPerOp-10) > 1e-9 {
		t.Errorf("cpu %v ms/op (measured %v), want 5 (10)", s.cpuMsPerOp, s.measuredCPUMsPerOp)
	}
	if math.Abs(s.p50Ms-0.1) > 1e-9 || math.Abs(s.wallP50-0.2) > 1e-9 {
		t.Errorf("median %v ms (measured %v), want 0.1 (0.2)", s.p50Ms, s.wallP50)
	}
	if math.Abs(s.opsPerS-20) > 1e-9 || math.Abs(s.wallOpsPerS-10) > 1e-9 {
		t.Errorf("rate %v (measured %v), want 20 (10)", s.opsPerS, s.wallOpsPerS)
	}
	if got := refScale(0); got != 1 {
		t.Errorf("scale %v without a reference time, want 1", got)
	}
}
