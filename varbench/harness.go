package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"varpower/internal/telemetry"
)

// harness is one set-up instance of a workload: it draws operations from
// the workload's generator and runs them against the system under test.
type harness interface {
	// begin marks the start of the timed window.
	begin()
	// prepare draws the next operation's input and returns the function
	// that runs it. Calls are serialised in op order, so the op sequence is
	// a function of the seed alone; the returned functions run
	// concurrently. op is the ID the op's replay will name, or -1 when the
	// op will not be replayed.
	prepare(op int64) func(sp spanRef) error
	// replay re-runs, through the lower layers' public functions, the work
	// op hid inside a call the benchmark cannot open, as spans under the
	// op's spans (traced decomposition only; may do nothing).
	replay(op int64, sp spanRef) error
	// check makes the correctness checks that run outside the timed window
	// and returns how many checked items failed, with the first failure.
	check() (int64, error)
	// windowMetrics sets the per-layer metrics the workload measures over
	// its own traced window.
	windowMetrics(m metrics, w window)
	close()
}

// opTiming is one completed op: its latency and when it completed,
// measured from the start of the loop.
type opTiming struct {
	latency, end time.Duration
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	ops    []opTiming
	failed int64
	// defects counts the ops that failed with the program's known defect
	// (errInvertedRange); they are not in failed.
	defects  int64
	firstErr error
	elapsed  time.Duration
	// ids are the op IDs the phase completed without an error.
	ids map[int64]bool
}

// opSource hands out op IDs and inputs in sequence order.
type opSource struct {
	mu   sync.Mutex
	next int64
	h    harness
}

func (s *opSource) take(replay bool) (int64, func(spanRef) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	op := s.next
	s.next++
	if !replay {
		return op, s.h.prepare(-1)
	}
	return op, s.h.prepare(op)
}

// runLoop drives the harness with clients goroutines in a closed loop: each
// sends its next operation only after the previous one completed. It stops
// issuing at the deadline (zero: no deadline) or once limit ops were issued
// (0: no limit); operations in flight at that point complete and count.
// Op completion times are measured from start. With replay set, every op is
// followed by its replay on the same goroutine.
func runLoop(src *opSource, clients int, start, deadline time.Time, limit int64, tr *tracer, replay bool) loopResult {
	var (
		mu  sync.Mutex
		res = loopResult{ids: make(map[int64]bool)}
		wg  sync.WaitGroup
	)
	var issued int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []opTiming
			for {
				mu.Lock()
				if (!deadline.IsZero() && !time.Now().Before(deadline)) || (limit > 0 && issued >= limit) {
					mu.Unlock()
					break
				}
				issued++
				mu.Unlock()
				op, run := src.take(replay)
				sp := tr.root(op, "op")
				t := time.Now()
				err := run(sp)
				done := time.Now()
				sp.end()
				if replay && err == nil {
					if rerr := src.h.replay(op, sp); rerr != nil {
						err = fmt.Errorf("replay: %w", rerr)
					}
				}
				lat = append(lat, opTiming{latency: done.Sub(t), end: done.Sub(start)})
				mu.Lock()
				switch {
				case err == nil:
					res.ids[op] = true
				case errors.Is(err, errInvertedRange):
					res.defects++
				default:
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
				}
				mu.Unlock()
			}
			mu.Lock()
			res.ops = append(res.ops, lat...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInuse collects garbage and returns the in-use heap in bytes.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

// counterFamilies are the program's telemetry families whose deltas the
// traced run reports per op; histograms contribute their count, and the
// parallel task histogram its summed seconds as well.
var counterFamilies = []string{
	"varpower_measure_runs_total",
	"varpower_mpi_rounds_total",
	"varpower_rapl_limit_writes_total",
	"varpower_fault_injected_total",
	"varpower_parallel_tasks_total",
	telemetry.PhaseDurationMetric,
	"varpower_attrib_samples_total",
	"varpower_parallel_task_seconds",
}

// counters maps a family to its value summed over every series (for
// histograms, the observation count); parallelSeconds is the summed
// observation value of varpower_parallel_task_seconds.
type counters struct {
	values          map[string]float64
	parallelSeconds float64
}

func gatherCounters() counters {
	want := make(map[string]bool, len(counterFamilies))
	for _, f := range counterFamilies {
		want[f] = true
	}
	c := counters{values: make(map[string]float64)}
	for _, f := range telemetry.Default().Gather() {
		if !want[f.Name] {
			continue
		}
		for _, s := range f.Series {
			if s.Hist != nil {
				c.values[f.Name] += float64(s.Hist.Count)
				if f.Name == "varpower_parallel_task_seconds" {
					c.parallelSeconds += s.Hist.Sum
				}
				continue
			}
			c.values[f.Name] += s.Value
		}
	}
	return c
}

// counterDelta is the change of every counter family over a window.
type counterDelta struct {
	values          map[string]float64
	parallelSeconds float64
	elapsed         time.Duration
}

func deltaOf(a, b counters, elapsed time.Duration) counterDelta {
	d := counterDelta{values: make(map[string]float64), parallelSeconds: b.parallelSeconds - a.parallelSeconds, elapsed: elapsed}
	for _, f := range counterFamilies {
		d.values[f] = b.values[f] - a.values[f]
	}
	return d
}
