package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramConcurrentObserveExact hammers one histogram from many
// goroutines. Every value is dyadic (k/8), so every partial sum is exact
// in float64 and the total cannot depend on the interleaving: Count, the
// bucket counts, Sum, Min and Max must all come out exact.
func TestHistogramConcurrentObserveExact(t *testing.T) {
	const goroutines, perG = 8, 2000
	h := newHistogram([]float64{1, 4, 16, 64})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64((g*perG+i)%1000) / 8) // 0 .. 124.875
			}
		}(g)
	}
	wg.Wait()

	var want float64
	for g := 0; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			want += float64((g*perG+i)%1000) / 8
		}
	}
	s := h.Snapshot()
	var sum uint64
	for _, c := range s.Counts {
		sum += c
	}
	if s.Count != goroutines*perG || sum != s.Count {
		t.Fatalf("Count = %d, Σ Counts = %d, want %d", s.Count, sum, goroutines*perG)
	}
	if s.Sum != want {
		t.Fatalf("Sum = %v, want exactly %v", s.Sum, want)
	}
	if s.Min != 0 || s.Max != 999.0/8 {
		t.Fatalf("Min/Max = %v/%v, want 0/%v", s.Min, s.Max, 999.0/8)
	}
}

// TestHistogramSerialSumBitIdentical pins the serial contract: one
// observer's Sum is the same float64 a plain left-to-right loop computes,
// bit for bit, on values whose rounding depends on the order.
func TestHistogramSerialSumBitIdentical(t *testing.T) {
	h := newHistogram(DefTimeBuckets)
	var want float64
	for i := 1; i <= 500; i++ {
		v := 1 / (float64(i) * math.Pi)
		h.Observe(v)
		want += v
	}
	if got := h.Snapshot().Sum; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("serial Sum = %v, want %v bit-identical", got, want)
	}
}

// fillTracer starts spans until tr is at its retention cap.
func fillTracer(tr *Tracer) {
	for i := 0; i < spanCap; i++ {
		tr.Start("fill")
	}
}

// TestSpanPastCapStillObserved checks that dropping a span's record past
// the retention cap never drops its duration: the phase histogram counts
// it, Summary and the tree do not show it, and the tree reports the drop.
func TestSpanPastCapStillObserved(t *testing.T) {
	reg := NewRegistry()
	clock := &fakeClock{t: time.Unix(0, 0), step: time.Millisecond}
	tr := NewTracer(reg, clock.now)
	fillTracer(tr)

	root := tr.Start("late").Annotate("never %s", "rendered")
	child := root.Start("late.child")
	child.End()
	root.End()
	if root.retained || root.Detail != "" {
		t.Fatalf("span past the cap retained=%v detail=%q", root.retained, root.Detail)
	}
	if d := root.Duration(); d != 3*time.Millisecond {
		t.Fatalf("past-cap duration = %v, want 3ms", d)
	}
	for _, phase := range []string{"late", "late.child"} {
		if n := seriesCount(reg, PhaseDurationMetric, Labels{"phase": phase}); n != 1 {
			t.Fatalf("phase %q histogram count = %d, want 1", phase, n)
		}
	}
	if stats := tr.Summary(); len(stats) != 0 {
		t.Fatalf("summary shows unfinished or dropped spans: %+v", stats)
	}
	var buf bytes.Buffer
	if err := tr.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "(… 2 spans past the 16384-span cap not shown)\n"; !strings.HasSuffix(buf.String(), want) {
		t.Fatalf("tree does not report the drop, tail: %q", buf.String()[max(0, buf.Len()-80):])
	}
}

// TestConcurrentSpansPastCap races span starts and ends past the cap, on
// names the tracer has not bound yet, so phase handles are resolved
// concurrently too. Every duration must land exactly once and the tree
// must report every dropped span.
func TestConcurrentSpansPastCap(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, nil)
	fillTracer(tr)
	const goroutines, perG = 8, 500
	names := []string{"p0", "p1", "p2", "p3"}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				sp := tr.Start(names[(g+i)%len(names)])
				sp.Start("child").End()
				sp.End()
				sp.End()
			}
		}(g)
	}
	wg.Wait()
	want := map[string]uint64{"child": goroutines * perG}
	for _, n := range names {
		want[n] = goroutines * perG / uint64(len(names))
	}
	for phase, n := range want {
		if got := seriesCount(reg, PhaseDurationMetric, Labels{"phase": phase}); got != n {
			t.Fatalf("phase %q count = %d, want %d", phase, got, n)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	if tail := "(… 8000 spans past the 16384-span cap not shown)\n"; !strings.HasSuffix(buf.String(), tail) {
		t.Fatalf("tree does not report every dropped span, tail: %q", buf.String()[max(0, buf.Len()-80):])
	}
}

// TestPhaseHandleSurvivesRegistryReset checks that a tracer's bound phase
// histogram is re-resolved after Registry.Reset: the next finished span
// lands in the registry's new family, not in an orphaned handle.
func TestPhaseHandleSurvivesRegistryReset(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, nil)
	tr.Start("phase.x").End() // binds the handle
	reg.Reset()
	tr.Start("phase.x").End()
	fams := reg.Gather()
	if len(fams) != 1 || fams[0].Name != PhaseDurationMetric {
		t.Fatalf("after Reset the registry holds %+v, want only the phase family", fams)
	}
	if n := fams[0].Series[0].Hist.Count; n != 1 {
		t.Fatalf("phase.x count after Reset = %d, want 1", n)
	}
}

// TestSpanThenTilesParent checks Then: the sibling starts on the instant
// its predecessor ends, so back-to-back phases sum to the span between
// their outer edges.
func TestSpanThenTilesParent(t *testing.T) {
	clock := &fakeClock{t: time.Unix(0, 0), step: time.Millisecond}
	tr := NewTracer(NewRegistry(), clock.now)
	root := tr.Start("run") // t=1
	a := root.Start("a")    // t=2
	b := a.Then("b")        // t=3
	c := b.Then("c")        // t=4
	c.End()                 // t=5
	root.End()              // t=6
	if a.Duration()+b.Duration()+c.Duration() != 3*time.Millisecond {
		t.Fatalf("phases %v+%v+%v do not tile [2ms, 5ms]", a.Duration(), b.Duration(), c.Duration())
	}
	var buf bytes.Buffer
	if err := tr.WriteTree(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "run  5ms\n  a  1ms\n  b  1ms\n  c  1ms\n"; buf.String() != want {
		t.Fatalf("tree:\n%s\nwant:\n%s", buf.String(), want)
	}
	if d := c.Then("d"); d.parent != root.id {
		t.Fatal("Then on an ended span must still start a sibling")
	}
}

// TestRecordingAllocs pins the allocation cost of the recording path: a
// histogram observation allocates nothing, and a span past the cap costs
// only the Span itself.
func TestRecordingAllocs(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("varpower_test_seconds", "", nil, nil)
	if a := testing.AllocsPerRun(1000, func() { h.Observe(0.25) }); a != 0 {
		t.Fatalf("Histogram.Observe allocates %v times, want 0", a)
	}
	tr := NewTracer(reg, nil)
	fillTracer(tr)
	tr.Start("warm").End() // resolve the phase handle once
	if a := testing.AllocsPerRun(1000, func() { tr.Start("warm").End() }); a > 1 {
		t.Fatalf("Start+End past the cap allocates %v times, want ≤ 1", a)
	}
}
