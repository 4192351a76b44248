package main

import (
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"
)

// The timed window is cut into segments of about a second each, and the
// throughput, median latency, CPU and allocation per op of a run are the
// medians over its segments: a second in which a neighbouring process
// takes the CPU moves one segment, not the run's figure.
//
// Throughput, median latency and CPU per op are also corrected for the
// host, which makes them modelled figures, not measured ones (the measured
// ones stay in the record). Each segment's times are first rescaled by the
// reference kernel (ref.go) to a core of fixed speed. Throughput and median
// latency are then corrected for hypervisor steal. A CPU the program wants
// to run on is either running ("busy" in /proc/stat) or waiting while the
// hypervisor runs another guest ("steal"); a vCPU with no work accrues
// neither. The steal share s = steal / (busy + steal) is then the share of
// the machine's runnable time the host took, whether the program keeps one
// CPU busy or both, and a CPU-bound closed loop completes (1−s) of the ops
// it would have: the reported rate is the segment's rate divided by (1−s).
// An op much longer than the host's pauses absorbs the share evenly, while
// most ops much shorter run between pauses and keep the median, so the
// median latency is multiplied by 1 − s·min(1, median/stealPause).
// stealPause is not measured per run; README.md gives the per-segment
// regression that supports it. The model assumes CPU-bound ops; time an op
// spends asleep (a jobs client between polls) is corrected as if it were
// CPU time. CPU time is not corrected for steal: a paused vCPU runs nothing.
const (
	segmentLen    = time.Second
	minSegmentOps = 20 // fewer segments when they would hold fewer ops
	sampleEvery   = 50 * time.Millisecond
	maxSteal      = 0.9 // a share above this is treated as this
	stealPause    = 1.0 // ms
)

// resSample is the process's CPU time and cumulative allocation, the
// machine's CPU ticks and the reference kernel's time, at one instant of
// the window.
type resSample struct {
	at      time.Duration
	cpu     time.Duration
	alloc   uint64
	ticks   cpuTicks
	ticksOK bool          // false where /proc/stat cannot be read
	ref     time.Duration // the reference kernel's time (ref.go)
}

// sampler records resource samples every sampleEvery until stopped.
type sampler struct {
	start   time.Time
	stopCh  chan struct{}
	wg      sync.WaitGroup
	samples []resSample
}

func startSampler(start time.Time) *sampler {
	s := &sampler{start: start, stopCh: make(chan struct{})}
	s.take()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(sampleEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.take()
			case <-s.stopCh:
				return
			}
		}
	}()
	return s
}

func (s *sampler) take() {
	m := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(m)
	ticks, ok := readCPUTicks()
	s.samples = append(s.samples, resSample{at: time.Since(s.start), cpu: cpuTime(), alloc: m[0].Value.Uint64(), ticks: ticks, ticksOK: ok, ref: refTime()})
}

// stop ends sampling with a final sample and returns them all.
func (s *sampler) stop() []resSample {
	close(s.stopCh)
	s.wg.Wait()
	s.take()
	return s.samples
}

// at returns the last sample taken at or before d (the first sample when
// none is).
func at(samples []resSample, d time.Duration) resSample {
	best := samples[0]
	for _, s := range samples {
		if s.at <= d {
			best = s
		}
	}
	return best
}

// segment is one segment's figures.
type segment struct {
	OpsPerS      float64 `json:"ops_per_s"`
	P50Ms        float64 `json:"p50_ms"`
	CPUMsPerOp   float64 `json:"cpu_ms_per_op"`
	AllocKBPerOp float64 `json:"alloc_kb_per_op"`
	// Steal is the share of the segment's runnable CPU time the
	// hypervisor gave to other guests (-1 unknown).
	Steal float64 `json:"steal"`
	// RefUs is the reference kernel's median time over the segment, the
	// rest of the segment's figures are as measured.
	RefUs float64 `json:"ref_us"`
}

// stealShare is the share of the machine's runnable CPU time between two
// samples that the hypervisor gave to other guests (-1 unknown).
func stealShare(a, b resSample) float64 {
	if !a.ticksOK || !b.ticksOK {
		return -1
	}
	return stolen(a.ticks, b.ticks)
}

// stolen is steal / (busy + steal) between two tick readings (0 when the
// machine ran nothing in between).
func stolen(a, b cpuTicks) float64 {
	steal, busy := b.steal-a.steal, b.busy-a.busy
	if steal+busy <= 0 {
		return 0
	}
	return float64(steal) / float64(steal+busy)
}

// segmentStats is the per-segment view of a window: medians over the
// segments, corrected where noted.
type segmentStats struct {
	opsPerS, p50Ms       float64 // corrected for the host's speed and steal
	cpuMsPerOp           float64 // corrected for the host's speed
	wallOpsPerS, wallP50 float64 // as measured
	measuredCPUMsPerOp   float64 // as measured
	allocKBPerOp         float64
	refUs                float64 // the reference kernel's median over the segments
	segs                 []segment
}

// segmented splits a window of nominal length into segments by op
// completion time (ops completing after the nominal end belong to the last
// segment, which runs to the final sample) and returns the medians of the
// per-segment figures. Each inner boundary moves back to the last op
// completion at or before it, so a segment holds whole ops: with ops of a
// quarter second, cutting them at fixed instants would move a segment's
// rate and CPU per op by a twentieth.
func segmented(ops []opTiming, samples []resSample, length time.Duration) segmentStats {
	n := int(length / segmentLen)
	if n < 1 {
		n = 1
	}
	for n > 1 && len(ops)/n < minSegmentOps {
		n--
	}
	ends := make([]time.Duration, len(ops))
	for i, o := range ops {
		ends[i] = o.end
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	seg := length / time.Duration(n)
	bounds := make([]time.Duration, n+1)
	for k := 1; k < n; k++ {
		bounds[k] = time.Duration(k) * seg
		if i := sort.Search(len(ends), func(i int) bool { return ends[i] > bounds[k] }) - 1; i >= 0 && ends[i] > bounds[k-1] {
			bounds[k] = ends[i]
		}
	}
	last := samples[len(samples)-1]
	bounds[n] = last.at
	lat := make([][]float64, n)
	for _, o := range ops {
		k := sort.Search(n, func(k int) bool { return bounds[k+1] >= o.end })
		if k >= n {
			k = n - 1
		}
		lat[k] = append(lat[k], float64(o.latency)/float64(time.Millisecond))
	}
	var st segmentStats
	var rate, p50, cpu, wallRate, wallP50, wallCPU, alloc, refs []float64
	for k := 0; k < n; k++ {
		c := float64(len(lat[k]))
		if c == 0 {
			continue
		}
		a, b := at(samples, bounds[k]), at(samples, bounds[k+1])
		if k == n-1 {
			b = last
		}
		secs := (bounds[k+1] - bounds[k]).Seconds()
		sg := segment{
			OpsPerS: c / secs, P50Ms: median(lat[k]),
			CPUMsPerOp:   float64(b.cpu-a.cpu) / float64(time.Millisecond) / c,
			AllocKBPerOp: float64(b.alloc-a.alloc) / 1024 / c,
			Steal:        -1,
		}
		ref := refOver(samples, a.at, b.at)
		sg.RefUs = float64(ref) / float64(time.Microsecond)
		scale := refScale(ref)
		stolen := 0.0
		if sg.Steal = stealShare(a, b); sg.Steal >= 0 {
			stolen = math.Min(sg.Steal, maxSteal)
		}
		st.segs = append(st.segs, sg)
		wallRate = append(wallRate, sg.OpsPerS)
		wallP50 = append(wallP50, sg.P50Ms)
		wallCPU = append(wallCPU, sg.CPUMsPerOp)
		refs = append(refs, sg.RefUs)
		rate = append(rate, sg.OpsPerS/scale/(1-stolen))
		scaled := sg.P50Ms * scale
		p50 = append(p50, scaled*(1-stolen*math.Min(1, scaled/stealPause)))
		cpu = append(cpu, sg.CPUMsPerOp*scale)
		alloc = append(alloc, sg.AllocKBPerOp)
	}
	st.opsPerS, st.p50Ms = median(rate), median(p50)
	st.cpuMsPerOp, st.allocKBPerOp = median(cpu), median(alloc)
	st.wallOpsPerS, st.wallP50, st.measuredCPUMsPerOp = median(wallRate), median(wallP50), median(wallCPU)
	st.refUs = median(refs)
	return st
}

// refOver is the reference kernel's median time over the samples taken in
// (from, to], or over the sample at to when none was (0 when unknown).
func refOver(samples []resSample, from, to time.Duration) time.Duration {
	var refs []float64
	for _, s := range samples {
		if s.at > from && s.at <= to && s.ref > 0 {
			refs = append(refs, float64(s.ref))
		}
	}
	if len(refs) == 0 {
		return at(samples, to).ref
	}
	return time.Duration(median(refs))
}
