package gpu

import (
	"math"
	"testing"
	"testing/quick"

	"varpower/internal/units"
	"varpower/internal/variability"
)

// testArch approximates the K20X preset without importing cluster (which
// would create an import cycle in tests of lower layers).
func testArch() *Arch {
	return &Arch{
		Name: "test-k20x", Vendor: "NVIDIA", SMs: 14,
		ClockMin: units.MHz(324), ClockNom: units.MHz(732), ClockBoost: units.MHz(784),
		ClockStep:     units.MHz(26),
		TDP:           235,
		MinLimit:      110,
		IdlePower:     25,
		CliffExponent: 2.7,
		MemBW:         250e9,
		Variation: variability.Profile{
			LeakSigma: 0.11, DynSigma: 0.035, DramSigma: 0.13,
			TurboSpread: 0.04, TurboLeakCorr: 0.6,
		},
	}
}

func testKernel() KernelProfile {
	return KernelProfile{
		Kernel: "test", DynPower: 120, StaticPower: 45, MemPower: 30,
		ClockSensitivity: 0.8, ResidualSigma: 0.02,
	}
}

// clockIn maps an arbitrary float onto [ClockMin, ClockNom].
func clockIn(a *Arch, x float64) units.Hertz {
	frac := math.Mod(math.Abs(x), 1)
	if math.IsNaN(frac) {
		frac = 0
	}
	return a.ClockMin + units.Hertz(frac*float64(a.ClockNom-a.ClockMin))
}

func TestArchValidate(t *testing.T) {
	if err := testArch().Validate(); err != nil {
		t.Fatalf("valid arch rejected: %v", err)
	}
	mutations := []func(*Arch){
		func(a *Arch) { a.ClockMin = 0 },
		func(a *Arch) { a.ClockNom = a.ClockMin / 2 },
		func(a *Arch) { a.ClockBoost = a.ClockNom - 1 },
		func(a *Arch) { a.ClockStep = 0 },
		func(a *Arch) { a.TDP = 0 },
		func(a *Arch) { a.MinLimit = a.TDP },
		func(a *Arch) { a.IdlePower = a.TDP + 1 },
		func(a *Arch) { a.CliffExponent = 0.5 },
		func(a *Arch) { a.Variation.LeakSigma = -1 },
	}
	for i, mutate := range mutations {
		a := testArch()
		mutate(a)
		if err := a.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSMClocksLadder(t *testing.T) {
	a := testArch()
	ladder := a.SMClocks()
	if ladder[0] != a.ClockMin || ladder[len(ladder)-1] != a.ClockNom {
		t.Fatalf("ladder endpoints %v .. %v, want %v .. %v", ladder[0], ladder[len(ladder)-1], a.ClockMin, a.ClockNom)
	}
	for i := 1; i < len(ladder); i++ {
		if step := ladder[i] - ladder[i-1]; step <= 0 || step > a.ClockStep+1 {
			t.Fatalf("ladder step %d = %v, want in (0, %v]", i, step, a.ClockStep)
		}
	}
	for _, c := range ladder {
		if q := a.QuantizeDown(c); q != c {
			t.Fatalf("QuantizeDown(%v) = %v, want a ladder clock unchanged", c, q)
		}
	}
}

// TestBoardPowerMonotoneInClock: a faster SM clock never draws less board
// power, on any device.
func TestBoardPowerMonotoneInClock(t *testing.T) {
	a := testArch()
	k := testKernel()
	f := func(id uint16, x1, x2 float64) bool {
		d := New(int(id), a, 99)
		lo := clockIn(a, x1)
		hi := lo + units.Hertz(math.Mod(math.Abs(x2), 1)*float64(a.ClockBoost-lo)) + 1
		return d.BoardPower(k, hi) >= d.BoardPower(k, lo)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestClampLimit: every request lands in [MinLimit, TDP], and requests
// already inside are programmed unchanged.
func TestClampLimit(t *testing.T) {
	a := testArch()
	f := func(w float64) bool {
		if math.IsNaN(w) {
			return true
		}
		got := a.ClampLimit(units.Watts(w))
		if got < a.MinLimit || got > a.TDP {
			return false
		}
		inside := units.Watts(w) >= a.MinLimit && units.Watts(w) <= a.TDP
		return !inside || got == units.Watts(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, w := range []units.Watts{-5, 0, a.MinLimit - 1, a.TDP + 1, 1e9} {
		if got := a.ClampLimit(w); got != a.MinLimit && got != a.TDP {
			t.Fatalf("ClampLimit(%v) = %v, want an end of [%v, %v]", w, got, a.MinLimit, a.TDP)
		}
	}
}

// TestClockForPowerInvertsBoardPower: the clock ClockForPower finds for a
// ladder clock's board power is that clock, to within one ladder step.
func TestClockForPowerInvertsBoardPower(t *testing.T) {
	a := testArch()
	k := testKernel()
	f := func(id uint16, x float64) bool {
		d := New(int(id), a, 7)
		c := a.QuantizeDown(clockIn(a, x))
		got, ok := d.ClockForPower(k, d.BoardPower(k, c))
		return ok && math.Abs(float64(got-c)) <= float64(a.ClockStep)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	d := New(0, a, 7)
	if _, ok := d.ClockForPower(k, d.IdleFloor()/2); ok {
		t.Fatal("ClockForPower reached a target below the idle floor")
	}
}

// TestLimitedHonoursLimit: whenever an operating point exists under a
// programmed limit, the device draws no more than that limit.
func TestLimitedHonoursLimit(t *testing.T) {
	a := testArch()
	k := testKernel()
	f := func(id uint16, x float64) bool {
		d := New(int(id), a, 3)
		limit := a.ClampLimit(units.Watts(math.Mod(math.Abs(x), float64(a.TDP))))
		op, ok := d.Limited(k, limit)
		return !ok || float64(op.Power) <= float64(limit)*(1+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSameSeedSameFactors: a device's variation is a pure function of
// (seed, id), so two systems built from one seed see identical boards,
// while another seed draws another population.
func TestSameSeedSameFactors(t *testing.T) {
	a := testArch()
	k := testKernel()
	f := func(id uint16, seed uint64) bool {
		d1, d2 := New(int(id), a, seed), New(int(id), a, seed)
		return d1.Factors() == d2.Factors() &&
			d1.BoardPower(k, a.ClockNom) == d2.BoardPower(k, a.ClockNom)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	differ := 0
	for id := 0; id < 32; id++ {
		if New(id, a, 1).Factors() != New(id, a, 2).Factors() {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("seeds 1 and 2 drew identical factors for every device")
	}
}
