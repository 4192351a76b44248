// Package flight is the simulator's flight recorder: a bounded, in-memory
// record of what the simulated hardware did *during* a run, keyed by the
// simulator's virtual clock. Where internal/telemetry answers "what did the
// pipeline's own execution cost" (wall-clock spans and counters),
// flight captures the paper's temporal mechanism itself: per-module power,
// RAPL cap, delivered frequency and a temperature proxy sampled against
// simulated time, plus per-rank phase intervals (compute, point-to-point
// wait, collective wait, duty-cycle throttling) and the control-plane
// events that caused them (limit writes, frequency pins).
//
// That timeline is what makes the Vp→Vf→Vt chain observable: a power cap
// clamps module power (samples), delivered frequency spreads (samples),
// slow ranks stretch their compute slices and fast ranks grow wait slices
// at every exchange (intervals), and the analyzer (analyze.go) turns the
// record into windowed Vp/Vf/Vt plus a straggler ranking. Exporters
// (export.go) emit Chrome trace-event JSON loadable in Perfetto or
// about://tracing, long-form CSV, and a self-contained HTML timeline.
//
// Recording is strictly write-only with respect to simulation state — no
// simulated result can change because a recorder was attached — and
// deterministic: one run's capture is filled either from the serial DES
// loop (intervals, rounds, samples) or from per-module lanes whose
// interleaving cannot leak into the export order (events), so the same
// seed and configuration produce a byte-identical trace at any -workers
// width. Memory is bounded flight-recorder style: every store is a ring
// that keeps the most recent entries and counts what it dropped.
package flight

import (
	"fmt"
	"sort"
	"sync"

	"varpower/internal/telemetry"
	"varpower/internal/units"
)

// Recording-side telemetry: volume and loss of the recorder itself.
// Handles are resolved once; recording is atomic adds.
var (
	mRuns = telemetry.Default().Counter("varpower_flight_runs_total",
		"Runs committed to a flight recorder.", nil)
	mSamples = telemetry.Default().Counter("varpower_flight_samples_total",
		"Per-module samples recorded across all runs.", nil)
	mIntervals = telemetry.Default().Counter("varpower_flight_intervals_total",
		"Per-rank phase intervals recorded across all runs.", nil)
	mDropped = func() map[string]*telemetry.Counter {
		m := make(map[string]*telemetry.Counter, 4)
		for _, kind := range []string{"runs", "samples", "intervals", "events", "rounds"} {
			m[kind] = telemetry.Default().Counter("varpower_flight_dropped_total",
				"Records evicted from flight-recorder rings, by record kind.", telemetry.Labels{"kind": kind})
		}
		return m
	}()
)

// Phase classifies a per-rank interval on the timeline.
type Phase uint8

// Interval phases.
const (
	// PhaseCompute: the rank is executing local work.
	PhaseCompute Phase = iota
	// PhaseP2PWait: blocked on a slower peer in a point-to-point exchange
	// (MPI_Sendrecv / Recv).
	PhaseP2PWait
	// PhaseCollectiveWait: blocked at a barrier or allreduce for the
	// slowest rank of the communicator.
	PhaseCollectiveWait
	// PhaseXfer: wire time of the rank's messages.
	PhaseXfer
	// PhaseFinalizeWait: busy-polling in the MPI_Finalize barrier after the
	// rank's program ended, until the slowest rank arrives.
	PhaseFinalizeWait
	// PhaseThrottle: the whole run executed below FMin under duty-cycle
	// throttling (the cap was under Pcpu(FMin)); overlays the other phases.
	PhaseThrottle
)

// String returns the stable export name of the phase.
func (p Phase) String() string {
	switch p {
	case PhaseCompute:
		return "compute"
	case PhaseP2PWait:
		return "p2p-wait"
	case PhaseCollectiveWait:
		return "collective-wait"
	case PhaseXfer:
		return "xfer"
	case PhaseFinalizeWait:
		return "finalize-wait"
	case PhaseThrottle:
		return "capped-throttle"
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// Sample is one per-module observation at a simulated instant. Times are
// relative to the run inside a Capture and absolute on the recorder
// timeline once snapshotted.
type Sample struct {
	T      units.Seconds
	Module int

	CPUPower  units.Watts
	DramPower units.Watts
	// Cap is the RAPL package limit in force (0 = uncapped).
	Cap units.Watts
	// Freq is the delivered CPU frequency.
	Freq units.Hertz
	// Temp is a deterministic die-temperature proxy in °C (see TempProxy).
	Temp float64
}

// ModulePower is the sample's CPU+DRAM power.
func (s Sample) ModulePower() units.Watts { return s.CPUPower + s.DramPower }

// Interval is one per-rank phase slice.
type Interval struct {
	Start, End units.Seconds
	Rank       int
	Module     int
	Phase      Phase
	// Round is the SPMD round the slice belongs to; -1 for run-level
	// slices (finalize wait, throttle overlay).
	Round int
}

// EventKind classifies a control-plane event.
type EventKind uint8

// Control-plane event kinds.
const (
	// EventCapSet: a RAPL package limit was programmed (Value = watts).
	EventCapSet EventKind = iota
	// EventCapClear: package capping was disabled.
	EventCapClear
	// EventFreqPin: the userspace governor pinned a frequency (Value = Hz).
	EventFreqPin
	// EventFreqRelease: the governor released the module to hardware control.
	EventFreqRelease
	// EventThrottle: cap resolution fell below FMin into duty-cycle
	// throttling (Value = delivered Hz).
	EventThrottle
	// EventModuleDeath: the module died mid-run under fault injection
	// (Value = virtual death time in seconds).
	EventModuleDeath
	// EventReSolve: the budget solver redistributed this module's allocation
	// after a failure (Value = the module's new cap in watts, 0 if dead).
	EventReSolve
	// EventDriftFlag: the attribution collector's drift detector flagged the
	// module — its observed power departed from the PVT-predicted model
	// (Value = the windowed observed/predicted power residual, ≈1 healthy).
	EventDriftFlag
	// EventGPULimitSet: a GPU board power limit was programmed
	// (Value = watts). GPU devices occupy timeline lanes above the CPU
	// modules, at cluster.System.GPUFaultOffset()+deviceID.
	EventGPULimitSet
	// EventGPULimitClear: the board limit was reset to the default.
	EventGPULimitClear
	// EventGPUClockLock: an SM application clock was locked (Value = Hz).
	EventGPUClockLock
	// EventGPUClockUnlock: locked application clocks were released.
	EventGPUClockUnlock
	// EventGPUThrottle: a device resolution fell into clock gating or hit
	// the board TDP ceiling (Value = delivered SM Hz).
	EventGPUThrottle
)

// String returns the stable export name of the event kind.
func (k EventKind) String() string {
	switch k {
	case EventCapSet:
		return "cap-set"
	case EventCapClear:
		return "cap-clear"
	case EventFreqPin:
		return "freq-pin"
	case EventFreqRelease:
		return "freq-release"
	case EventThrottle:
		return "throttle"
	case EventModuleDeath:
		return "module-death"
	case EventReSolve:
		return "re-solve"
	case EventDriftFlag:
		return "drift-flag"
	case EventGPULimitSet:
		return "gpu-limit-set"
	case EventGPULimitClear:
		return "gpu-limit-clear"
	case EventGPUClockLock:
		return "gpu-clock-lock"
	case EventGPUClockUnlock:
		return "gpu-clock-unlock"
	case EventGPUThrottle:
		return "gpu-throttle"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one control-plane event. Control programming happens during
// operating-point resolution, before the simulated clock starts, so events
// carry the run's start time on the stitched timeline.
type Event struct {
	T      units.Seconds
	Module int
	Kind   EventKind
	Value  float64
}

// Round is one communication round's straggler record: the rank that
// arrived last gated the round; Latest−Earliest is the stall it imposed on
// the fastest participant.
type Round struct {
	Round    int
	Kind     string // "sendrecv", "barrier", "allreduce"
	Rank     int    // straggler rank (latest arrival; lowest rank on ties)
	Module   int
	Earliest units.Seconds
	Latest   units.Seconds
}

// Stall is the round's critical-path cost over its fastest participant.
func (r Round) Stall() units.Seconds { return r.Latest - r.Earliest }

// Draw is a (CPU, DRAM) power pair used when synthesizing samples.
type Draw struct {
	CPU  units.Watts
	Dram units.Watts
}

// TempProxy derives the deterministic die-temperature proxy recorded in
// samples: an affine map of module power into a plausible silicon range
// (32 °C idle-ish floor, ≈80 °C at TDP). It is a proxy, not a thermal
// model — enough to see capping cool a hot part on the timeline.
func TempProxy(moduleW, tdp units.Watts) float64 {
	if tdp <= 0 {
		return 32
	}
	return 32 + 48*float64(moduleW)/float64(tdp)
}

// --- bounded ring ----------------------------------------------------------

// ring keeps the most recent limit entries in insertion order.
type ring[T any] struct {
	limit   int
	buf     []T
	head    int // index of the oldest entry once saturated
	dropped uint64
}

func newRing[T any](limit int) ring[T] {
	if limit < 1 {
		limit = 1
	}
	return ring[T]{limit: limit}
}

func (r *ring[T]) push(v T) {
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % r.limit
	r.dropped++
}

func (r *ring[T]) len() int { return len(r.buf) }

// items returns the retained entries, oldest first.
func (r *ring[T]) items() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// --- capture ---------------------------------------------------------------

// Capture accumulates one run's records with run-relative times. Samples,
// intervals and rounds must be recorded from a single goroutine (the
// serial DES loop and the post-run synthesis pass); events may arrive from
// the parallel per-rank resolution fan-out and are kept in per-module
// lanes so their interleaving cannot affect the export order.
type Capture struct {
	Label string
	hz    float64

	elapsed   units.Seconds
	sealed    bool
	samples   ring[Sample]
	intervals ring[Interval]
	rounds    ring[Round]

	evMu    sync.Mutex
	events  map[int]*ring[Event]
	evOrder []int

	// computeIvs collects each rank's compute intervals (chronological, as
	// the DES emits them) for sample synthesis.
	computeIvs map[int][]Interval
}

// Interval records one phase slice. Zero- or negative-length slices are
// ignored.
func (c *Capture) Interval(rank, module, round int, phase Phase, start, end units.Seconds) {
	if c == nil || end <= start {
		return
	}
	iv := Interval{Start: start, End: end, Rank: rank, Module: module, Phase: phase, Round: round}
	c.intervals.push(iv)
	if phase == PhaseCompute {
		c.computeIvs[rank] = append(c.computeIvs[rank], iv)
	}
}

// Collective records a communication round's straggler.
func (c *Capture) Collective(round int, kind string, rank, module int, earliest, latest units.Seconds) {
	if c == nil {
		return
	}
	c.rounds.push(Round{Round: round, Kind: kind, Rank: rank, Module: module, Earliest: earliest, Latest: latest})
}

// Event records a control-plane event for the module. Safe for concurrent
// use across modules (per-module lanes).
func (c *Capture) Event(module int, kind EventKind, value float64) {
	if c == nil {
		return
	}
	c.evMu.Lock()
	lane, ok := c.events[module]
	if !ok {
		r := newRing[Event](eventLaneCap)
		lane = &r
		c.events[module] = lane
		c.evOrder = append(c.evOrder, module)
	}
	lane.push(Event{Module: module, Kind: kind, Value: value})
	c.evMu.Unlock()
}

// eventLaneCap bounds one module's control events per run; a run programs
// each module a handful of times, so this never binds in practice.
const eventLaneCap = 256

// Synthesize emits the module's sample stream for the run: ticks at the
// recorder's rate over [0, elapsed], the busy draw while the rank's
// recorded compute intervals cover the tick, the wait draw otherwise
// (MPI busy-polling at reduced power). cap is the RAPL limit in force
// (0 = uncapped); freq the delivered frequency; tdp feeds the temperature
// proxy. Call from a single goroutine after the DES finished.
func (c *Capture) Synthesize(rank, module int, busy, wait Draw, cap units.Watts, freq units.Hertz, tdp units.Watts, elapsed units.Seconds) {
	if c == nil || c.hz <= 0 || elapsed <= 0 {
		return
	}
	ivs := c.computeIvs[rank]
	next := 0
	n := int(float64(elapsed)*c.hz) + 1
	for k := 0; k < n; k++ {
		t := units.Seconds(float64(k) / c.hz)
		if t > elapsed {
			break
		}
		// Advance past intervals that ended before t; the DES emits each
		// rank's compute slices in chronological order.
		for next < len(ivs) && ivs[next].End <= t {
			next++
		}
		d := wait
		if next < len(ivs) && ivs[next].Start <= t {
			d = busy
		}
		c.samples.push(Sample{
			T: t, Module: module,
			CPUPower: d.CPU, DramPower: d.Dram,
			Cap: cap, Freq: freq,
			Temp: TempProxy(d.CPU+d.Dram, tdp),
		})
	}
}

// SynthesizeGPU emits a GPU device's counter track for the run: ticks at
// the recorder's rate over [0, elapsed] at the device's steady-state board
// power and delivered SM clock. lane is the device's timeline lane
// (cluster.System.GPUFaultOffset()+deviceID, above the CPU modules); board
// power is recorded in the CPUPower column (the exporter renders one power
// counter per lane), limit in Cap (0 = board default), and the clock in
// Freq. Call from a single goroutine after the run resolved.
func (c *Capture) SynthesizeGPU(lane int, power, limit units.Watts, clock units.Hertz, tdp units.Watts, elapsed units.Seconds) {
	if c == nil || c.hz <= 0 || elapsed <= 0 {
		return
	}
	n := int(float64(elapsed)*c.hz) + 1
	for k := 0; k < n; k++ {
		t := units.Seconds(float64(k) / c.hz)
		if t > elapsed {
			break
		}
		c.samples.push(Sample{
			T: t, Module: lane,
			CPUPower: power,
			Cap:      limit, Freq: clock,
			Temp: TempProxy(power, tdp),
		})
	}
}

// Seal fixes the run's extent on the timeline. Record nothing after Seal.
func (c *Capture) Seal(elapsed units.Seconds) {
	if c == nil {
		return
	}
	if elapsed < 0 {
		elapsed = 0
	}
	c.elapsed = elapsed
	c.sealed = true
	c.computeIvs = nil
}

// --- recorder --------------------------------------------------------------

// Config sizes a Recorder. Zero values select defaults.
type Config struct {
	// Hz is the virtual-time sampling rate for synthesized module samples
	// (default 25 samples per simulated second; 0 after defaulting means
	// the value was explicitly negative — samples disabled).
	Hz float64
	// MaxRuns bounds how many committed runs the recorder retains (oldest
	// evicted first; default 64).
	MaxRuns int
	// SampleCap / IntervalCap / RoundCap bound one run's stores (defaults
	// 1<<20 samples, 1<<20 intervals, 1<<16 rounds).
	SampleCap, IntervalCap, RoundCap int
}

// DefaultHz is the default virtual-time sampling rate.
const DefaultHz = 25.0

func (c Config) withDefaults() Config {
	if c.Hz == 0 {
		c.Hz = DefaultHz
	}
	if c.Hz < 0 {
		c.Hz = 0
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = 64
	}
	if c.SampleCap <= 0 {
		c.SampleCap = 1 << 20
	}
	if c.IntervalCap <= 0 {
		c.IntervalCap = 1 << 20
	}
	if c.RoundCap <= 0 {
		c.RoundCap = 1 << 16
	}
	return c
}

// Recorder retains the most recent committed run captures and stitches
// them into one virtual timeline (runs laid end to end in commit order).
// NewCapture and Commit are safe for concurrent use, but committing runs
// from concurrent goroutines makes the *segment order* scheduling-
// dependent; attach a recorder to serially executed runs when byte-stable
// output matters (every serial call site in this repository does).
type Recorder struct {
	cfg Config

	mu   sync.Mutex
	runs ring[*Capture]
}

// New returns a recorder with the given bounds.
func New(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{cfg: cfg, runs: newRing[*Capture](cfg.MaxRuns)}
}

// Hz returns the sampling rate captures will use.
func (r *Recorder) Hz() float64 { return r.cfg.Hz }

// NewCapture starts an unattached capture for one run. Commit it when the
// run's records are complete; an uncommitted capture is simply dropped.
func (r *Recorder) NewCapture(label string) *Capture {
	return &Capture{
		Label:      label,
		hz:         r.cfg.Hz,
		samples:    newRing[Sample](r.cfg.SampleCap),
		intervals:  newRing[Interval](r.cfg.IntervalCap),
		rounds:     newRing[Round](r.cfg.RoundCap),
		events:     make(map[int]*ring[Event]),
		computeIvs: make(map[int][]Interval),
	}
}

// Commit appends a sealed capture to the timeline.
func (r *Recorder) Commit(c *Capture) {
	if c == nil {
		return
	}
	if !c.sealed {
		c.Seal(c.elapsed)
	}
	mRuns.Inc()
	mSamples.Add(float64(c.samples.len()))
	mIntervals.Add(float64(c.intervals.len()))
	mDropped["samples"].Add(float64(c.samples.dropped))
	mDropped["intervals"].Add(float64(c.intervals.dropped))
	mDropped["rounds"].Add(float64(c.rounds.dropped))
	c.evMu.Lock()
	for _, lane := range c.events {
		mDropped["events"].Add(float64(lane.dropped))
	}
	c.evMu.Unlock()
	r.mu.Lock()
	if r.runs.len() == r.cfg.MaxRuns {
		mDropped["runs"].Inc()
	}
	r.runs.push(c)
	r.mu.Unlock()
}

// --- timeline snapshot ------------------------------------------------------

// RunView is one committed run with times resolved onto the stitched
// timeline.
type RunView struct {
	Label      string
	Start, End units.Seconds

	Samples   []Sample
	Intervals []Interval
	Events    []Event
	Rounds    []Round

	// Dropped counts records evicted from this run's rings.
	Dropped uint64
}

// Elapsed is the run's extent.
func (v RunView) Elapsed() units.Seconds { return v.End - v.Start }

// Timeline is a consistent snapshot of a recorder: every retained run with
// absolute times, in commit order.
type Timeline struct {
	Hz          float64
	Runs        []RunView
	DroppedRuns uint64
}

// End is the timeline's total extent.
func (t Timeline) End() units.Seconds {
	if len(t.Runs) == 0 {
		return 0
	}
	return t.Runs[len(t.Runs)-1].End
}

// Empty reports whether the timeline holds no records at all.
func (t Timeline) Empty() bool {
	for _, r := range t.Runs {
		if len(r.Samples) > 0 || len(r.Intervals) > 0 || len(r.Events) > 0 {
			return false
		}
	}
	return true
}

// Snapshot stitches the retained runs into one timeline, shifting each
// run's relative times by the cumulative extent of the runs before it.
// Event lanes are flattened in module order (deterministic regardless of
// the resolution fan-out that filled them).
func (r *Recorder) Snapshot() Timeline {
	r.mu.Lock()
	caps := r.runs.items()
	droppedRuns := r.runs.dropped
	r.mu.Unlock()

	tl := Timeline{Hz: r.cfg.Hz, DroppedRuns: droppedRuns}
	var base units.Seconds
	for _, c := range caps {
		v := RunView{Label: c.Label, Start: base, End: base + c.elapsed}
		v.Samples = c.samples.items()
		for i := range v.Samples {
			v.Samples[i].T += base
		}
		v.Intervals = c.intervals.items()
		for i := range v.Intervals {
			v.Intervals[i].Start += base
			v.Intervals[i].End += base
		}
		v.Rounds = c.rounds.items()
		for i := range v.Rounds {
			v.Rounds[i].Earliest += base
			v.Rounds[i].Latest += base
		}
		c.evMu.Lock()
		mods := make([]int, len(c.evOrder))
		copy(mods, c.evOrder)
		sort.Ints(mods)
		for _, m := range mods {
			lane := c.events[m]
			for _, e := range lane.items() {
				e.T = base
				v.Events = append(v.Events, e)
			}
			v.Dropped += lane.dropped
		}
		c.evMu.Unlock()
		v.Dropped += c.samples.dropped + c.intervals.dropped + c.rounds.dropped
		tl.Runs = append(tl.Runs, v)
		base = v.End
	}
	return tl
}
