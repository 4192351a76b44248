package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"varpower/internal/core"
	"varpower/internal/flight"
)

func testHeteroOptions(workers int) Options {
	return Options{Seed: 0x5c15, HeteroModules: 32, Workers: workers}
}

// TestHeteroDeterminism: the sweep — cells and rendered table — must be
// byte-identical across repeated runs and across worker counts.
func TestHeteroDeterminism(t *testing.T) {
	var want *HeteroResult
	var wantRender []byte
	for _, w := range []int{1, 2, 0} {
		r, err := Hetero(testHeteroOptions(w))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := RenderHetero(&buf, r); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want, wantRender = r, buf.Bytes()
			continue
		}
		if !reflect.DeepEqual(want, r) {
			t.Fatalf("hetero result differs at %d workers", w)
		}
		if !bytes.Equal(wantRender, buf.Bytes()) {
			t.Fatalf("hetero render differs at %d workers", w)
		}
	}
}

// TestHeteroSplitterBeatsUniform is the PR's acceptance criterion: under
// each variation-aware scheme, at least one hierarchical splitter strictly
// beats the naive uniform class split on the GPU-heavy hybrid preset.
func TestHeteroSplitterBeatsUniform(t *testing.T) {
	r, err := Hetero(testHeteroOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []core.Scheme{core.VaPc, core.VaFs} {
		uni, err := r.Cell(scheme, core.SplitUniform)
		if err != nil || uni.Err != nil {
			t.Fatalf("%v/uniform: %v %v", scheme, err, uni.Err)
		}
		beat := false
		for _, s := range []core.Splitter{core.SplitProportional, core.SplitEfficiency, core.SplitGreedy} {
			c, err := r.Cell(scheme, s)
			if err != nil || c.Err != nil {
				continue
			}
			if c.Elapsed < uni.Elapsed {
				beat = true
			}
		}
		if !beat {
			t.Fatalf("%v: no hierarchical splitter beat uniform (%v s)", scheme, uni.Elapsed)
		}
	}
	// Every successful cell honours the machine budget.
	for _, c := range r.Cells {
		if c.Err == nil && !c.Adheres {
			t.Fatalf("%v/%v exceeded the machine budget", c.Scheme, c.Splitter)
		}
	}
}

// TestHeteroRecorded: with a recorder attached the sweep runs serially and
// lands GPU counter tracks (lanes above the CPU modules) on the timeline,
// without perturbing the result.
func TestHeteroRecorded(t *testing.T) {
	plain, err := Hetero(testHeteroOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	o := testHeteroOptions(1)
	o.Recorder = flight.New(flight.Config{Hz: 2})
	recorded, err := Hetero(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, recorded) {
		t.Fatal("recording perturbed the hetero result")
	}
	tl := o.Recorder.Snapshot()
	if len(tl.Runs) == 0 {
		t.Fatal("recorder captured no runs")
	}
	gpuLane, gpuEvent := false, false
	for _, run := range tl.Runs {
		for _, s := range run.Samples {
			if s.Module >= 32 { // lanes above the CPU modules are devices
				gpuLane = true
			}
		}
		for _, e := range run.Events {
			switch e.Kind {
			case flight.EventGPULimitSet, flight.EventGPUClockLock:
				gpuEvent = true
			}
		}
	}
	if !gpuLane || !gpuEvent {
		t.Fatalf("timeline missing GPU tracks (lane=%v event=%v)", gpuLane, gpuEvent)
	}
}

// TestHeteroRejectsNonHybrid: the experiment refuses CPU-only presets.
func TestHeteroRejectsNonHybrid(t *testing.T) {
	o := testHeteroOptions(1)
	o.HeteroSystem = "HA8K"
	if _, err := Hetero(o); err == nil {
		t.Fatal("non-hybrid preset accepted")
	}
}

// TestGoldenHetero snapshots the rendered hybrid sweep at the fixed seed:
// both device classes' calibration, the class split and every final run.
func TestGoldenHetero(t *testing.T) {
	r, err := Hetero(testHeteroOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderHetero(&buf, r); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "hetero", buf.Bytes())
}
