package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// PhaseDurationMetric is the histogram family every finished span's
// duration is recorded into, labeled by phase (the span name). Span names
// must therefore stay low-cardinality — per-item detail goes into
// Span.Annotate, which only affects the rendered tree, not metric labels.
const PhaseDurationMetric = "varpower_phase_duration_seconds"

// spanCap bounds how many spans a tracer retains for tree rendering.
// Durations past the cap still reach the phase histogram; only the
// per-span record is dropped (and counted).
const spanCap = 16384

// Span lifecycle states. End moves a span from running to ending with one
// compare-and-swap, which makes it idempotent without a lock, and publishes
// the duration by storing spanDone after writing dur.
const (
	spanRunning uint32 = iota
	spanEnding
	spanDone
)

// Span is one timed phase of the pipeline. Spans form a tree: children
// created with (*Span).Start render nested under their parent.
type Span struct {
	tr       *Tracer
	id       int
	parent   int  // 0 = root
	retained bool // held for rendering; false past the tracer's span cap
	Name     string
	Detail   string
	start    time.Time
	state    atomic.Uint32
	dur      time.Duration // valid once state is spanDone
}

// Tracer collects phase spans. All methods are safe for concurrent use.
// The zero value is not usable; use NewTracer or the package-level
// StartSpan, which uses the process-wide tracer publishing into the
// default registry.
//
// Recording is lock-free once the tracer holds spanCap spans: a span past
// the cap costs one atomic add to start and one compare-and-swap, a map
// read and a histogram observation to end. Below the cap, starting a span
// appends it to the retained list under mu.
type Tracer struct {
	reg *Registry
	now func() time.Time

	// seq numbers every span started. Spans below the cap take their
	// number under mu, so seq minus the retained count is the number of
	// spans dropped past the cap.
	seq atomic.Int64

	mu    sync.Mutex
	spans []*Span // retained spans, creation order

	// phases maps span names to their phase-duration histograms, resolved
	// in reg once per name. It is copied on write under phaseMu.
	phaseMu sync.Mutex
	phases  atomic.Pointer[phaseCache]
}

// phaseCache is one immutable generation of a tracer's bound phase
// histograms. gen is the registry generation the handles were resolved
// in; a Registry.Reset moves the registry on and invalidates them.
type phaseCache struct {
	gen  uint64
	hist map[string]*Histogram
}

// NewTracer returns a tracer that records span durations into reg's
// phase-duration histogram. now overrides the clock (nil = time.Now) —
// tests inject a fake clock for golden output.
func NewTracer(reg *Registry, now func() time.Time) *Tracer {
	if now == nil {
		now = time.Now
	}
	return &Tracer{reg: reg, now: now}
}

// defaultTracer is the process-wide tracer.
var defaultTracer = NewTracer(defaultRegistry, nil)

// DefaultTracer returns the process-wide tracer.
func DefaultTracer() *Tracer { return defaultTracer }

// StartSpan starts a root span on the process-wide tracer.
func StartSpan(name string) *Span { return defaultTracer.Start(name) }

// Start begins a root span.
func (t *Tracer) Start(name string) *Span { return t.start(name, 0, t.now()) }

func (t *Tracer) start(name string, parent int, at time.Time) *Span {
	sp := &Span{tr: t, parent: parent, Name: name, start: at}
	// The unlocked check only skips the lock once the cap is reached; the
	// locked one decides.
	if t.seq.Load() < spanCap {
		t.mu.Lock()
		if len(t.spans) < spanCap {
			sp.id = int(t.seq.Add(1))
			sp.retained = true
			t.spans = append(t.spans, sp)
		}
		t.mu.Unlock()
	}
	if !sp.retained {
		sp.id = int(t.seq.Add(1))
	}
	return sp
}

// Start begins a child span.
func (s *Span) Start(name string) *Span { return s.tr.start(name, s.id, s.tr.now()) }

// Then ends s and starts its sibling name at the same instant: back-to-back
// phases read the clock once per boundary and tile their parent exactly.
// On an already ended span it only starts the sibling.
func (s *Span) Then(name string) *Span {
	now := s.tr.now()
	if s.state.CompareAndSwap(spanRunning, spanEnding) {
		s.finish(now)
	}
	return s.tr.start(name, s.parent, now)
}

// Annotate attaches free-form detail shown in the rendered tree (not in
// metric labels, so cardinality stays bounded). A span past the tracer's
// span cap is never rendered, so its detail is not formatted.
func (s *Span) Annotate(format string, args ...any) *Span {
	if s.retained {
		s.Detail = fmt.Sprintf(format, args...)
	}
	return s
}

// Retained reports whether the tracer holds s for rendering. A span past
// the tracer's span cap is not, so a caller can skip building its detail.
func (s *Span) Retained() bool { return s.retained }

// End finishes the span, records its duration into the tracer's
// phase-duration histogram, and is idempotent.
func (s *Span) End() {
	if s.state.CompareAndSwap(spanRunning, spanEnding) {
		s.finish(s.tr.now())
	}
}

// finish records the span's duration up to at; the caller won the
// running→ending transition.
func (s *Span) finish(at time.Time) {
	s.dur = at.Sub(s.start)
	s.state.Store(spanDone)
	if h := s.tr.phase(s.Name); h != nil {
		h.Observe(s.dur.Seconds())
	}
}

// done reports whether End has recorded the span's duration.
func (s *Span) done() bool { return s.state.Load() == spanDone }

// Duration returns the span's duration (0 until End).
func (s *Span) Duration() time.Duration {
	if !s.done() {
		return 0
	}
	return s.dur
}

// phase returns the phase-duration histogram for a span name, resolving it
// in the registry on the name's first use and again after a
// Registry.Reset, so no handle is left bound to a dropped family.
func (t *Tracer) phase(name string) *Histogram {
	if t.reg == nil {
		return nil
	}
	gen := t.reg.gen.Load()
	c := t.phases.Load()
	if c != nil && c.gen == gen {
		if h, ok := c.hist[name]; ok {
			return h
		}
	}
	h := t.reg.Histogram(PhaseDurationMetric, "Wall-clock duration of pipeline phases.",
		DefTimeBuckets, Labels{"phase": name})
	t.phaseMu.Lock()
	defer t.phaseMu.Unlock()
	next := &phaseCache{gen: gen, hist: map[string]*Histogram{name: h}}
	if c = t.phases.Load(); c != nil && c.gen == gen {
		for k, v := range c.hist {
			next.hist[k] = v
		}
	}
	t.phases.Store(next)
	return h
}

// Reset drops all recorded spans. Intended for tests.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.spans = nil
	t.seq.Store(0)
	t.mu.Unlock()
}

// PhaseStat is an aggregate over all spans sharing a name.
type PhaseStat struct {
	Name  string
	Count int
	Total time.Duration
	Max   time.Duration
}

// Summary aggregates finished retained spans by name, ordered by first
// appearance.
func (t *Tracer) Summary() []PhaseStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := make(map[string]int)
	var out []PhaseStat
	for _, sp := range t.spans {
		if !sp.done() {
			continue
		}
		i, ok := idx[sp.Name]
		if !ok {
			i = len(out)
			idx[sp.Name] = i
			out = append(out, PhaseStat{Name: sp.Name})
		}
		out[i].Count++
		out[i].Total += sp.dur
		if sp.dur > out[i].Max {
			out[i].Max = sp.dur
		}
	}
	return out
}

// WriteSummary renders the per-phase aggregate as an aligned text table.
func (t *Tracer) WriteSummary(w io.Writer) error {
	stats := t.Summary()
	if len(stats) == 0 {
		_, err := fmt.Fprintln(w, "telemetry: no finished spans")
		return err
	}
	width := len("phase")
	for _, s := range stats {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s  %7s  %12s  %12s  %12s\n", width, "phase", "count", "total", "mean", "max"); err != nil {
		return err
	}
	for _, s := range stats {
		mean := s.Total / time.Duration(s.Count)
		if _, err := fmt.Fprintf(w, "%-*s  %7d  %12v  %12v  %12v\n",
			width, s.Name, s.Count, s.Total.Round(time.Microsecond),
			mean.Round(time.Microsecond), s.Max.Round(time.Microsecond)); err != nil {
			return err
		}
	}
	return nil
}

// WriteTree renders the span hierarchy, children indented under parents in
// start order. Unfinished spans render with "…" in place of a duration.
func (t *Tracer) WriteTree(w io.Writer) error {
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	dropped := t.seq.Load() - int64(len(spans))
	t.mu.Unlock()

	children := make(map[int][]*Span)
	for _, sp := range spans {
		children[sp.parent] = append(children[sp.parent], sp)
	}
	for _, cs := range children {
		sort.Slice(cs, func(i, j int) bool { return cs[i].id < cs[j].id })
	}
	var render func(parent, depth int) error
	render = func(parent, depth int) error {
		for _, sp := range children[parent] {
			dur := "…"
			if sp.done() {
				dur = sp.dur.Round(time.Microsecond).String()
			}
			detail := ""
			if sp.Detail != "" {
				detail = "  [" + sp.Detail + "]"
			}
			if _, err := fmt.Fprintf(w, "%s%s  %s%s\n", strings.Repeat("  ", depth), sp.Name, dur, detail); err != nil {
				return err
			}
			if err := render(sp.id, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := render(0, 0); err != nil {
		return err
	}
	if dropped > 0 {
		if _, err := fmt.Fprintf(w, "(… %d spans past the %d-span cap not shown)\n", dropped, spanCap); err != nil {
			return err
		}
	}
	return nil
}
