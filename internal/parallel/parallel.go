// Package parallel provides the bounded worker-pool fan-out primitive the
// simulation's hot paths are built on: per-module measurement loops, PVT and
// PMT construction over module populations, and the evaluation grid's
// (benchmark, constraint, scheme) cells are all embarrassingly parallel
// because every module draws from its own SplitMix64 stream (internal/xrand).
//
// The engine therefore guarantees determinism: for a pure task function,
// Map produces results — including which error is reported — that are
// byte-identical for every worker count. Three properties make this hold:
//
//  1. Results are written to the slot of their own index; no output depends
//     on completion order.
//  2. Workers claim indices in ascending order from a shared counter, so
//     when any task fails, every lower index has already been claimed and
//     will run to completion — the error reported is always the one with
//     the lowest failing index, exactly what a serial loop would return.
//  3. Reductions over the results are performed by the caller in index
//     order after the fan-out, never concurrently.
//
// Panics inside a task are captured on the worker goroutine and re-raised
// on the caller's goroutine (lowest index wins), so a crashing task behaves
// like a crashing serial loop instead of killing the process from an
// anonymous goroutine.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"varpower/internal/telemetry"
)

// Fan-out telemetry: every task's wall-clock duration feeds one histogram
// and a counter, so sweeps expose their per-task cost distribution without
// any per-call-site wiring. Handles are resolved once; the per-task cost
// is a counter add plus a lock-free histogram insert.
var (
	mTasks = telemetry.Default().Counter("varpower_parallel_tasks_total",
		"Tasks executed by the parallel fan-out engine.", nil)
	mTaskDur = telemetry.Default().Histogram("varpower_parallel_task_seconds",
		"Wall-clock duration of individual parallel tasks.", nil, nil)
)

// progressKey carries a ProgressFunc through a context.
type progressKey struct{}

// ProgressFunc receives completion updates during a fan-out: done tasks
// out of total. It is called after every task completion — successful or
// not — from whichever goroutine finished the task, so implementations
// must be safe for concurrent use (an atomic print is enough). Progress is
// presentation-only: it cannot influence task scheduling or results.
type ProgressFunc func(done, total int)

// WithProgress attaches a progress callback to ctx; Map invocations under
// that context report per-task completion to it. Nested fan-outs inherit
// the context, so attach progress only at the granularity you want reported
// (e.g. grid cells, not per-rank inner loops) — or strip it with
// WithProgress(ctx, nil).
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// progressFrom extracts the callback, nil when absent.
func progressFrom(ctx context.Context) ProgressFunc {
	fn, _ := ctx.Value(progressKey{}).(ProgressFunc)
	return fn
}

// Workers resolves a requested worker count: values < 1 select
// runtime.GOMAXPROCS(0) (the default everywhere in this repository), and the
// result is clamped to n so no idle goroutines are spawned for small jobs.
// A fan-out of at most one task is serial without asking the scheduler.
func Workers(requested, n int) int {
	if n <= 1 {
		return 1
	}
	w := requested
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PanicError wraps a panic captured from a task goroutine. It is re-raised
// by Map on the calling goroutine with the original value and the worker's
// stack trace attached.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// indexed pairs an outcome with the task index that produced it, so the
// caller can deterministically prefer the lowest index.
type indexed struct {
	index int
	err   error
	panic *PanicError
}

// Map runs fn(ctx, i) for every i in [0, n) on at most workers goroutines
// (workers < 1 selects GOMAXPROCS) and returns the results in index order.
// On failure it returns the error of the lowest failing index — the same
// error a serial loop would have returned — and the partial results slice
// is discarded. Workers stop claiming new indices once ctx is cancelled,
// and ctx.Err() is returned if no task error precedes it; in-flight tasks
// run to completion (tasks are not preempted). A caller with nothing to
// collect maps to struct{}.
func Map[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("parallel: negative task count %d", n)
	}
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	progress := progressFrom(ctx)
	var done atomic.Int64
	finish := func(start time.Time) {
		mTasks.Inc()
		mTaskDur.Observe(time.Since(start).Seconds())
		if progress != nil {
			progress(int(done.Add(1)), n)
		}
	}
	workers = Workers(workers, n)
	if workers == 1 {
		// Serial fast path: no goroutines, no synchronisation — exactly
		// today's loop, used by -workers=1 and single-task jobs.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			start := time.Now()
			v, err := fn(ctx, i)
			finish(start)
			if err != nil {
				return nil, fmt.Errorf("parallel: task %d: %w", i, err)
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next     atomic.Int64 // next index to claim
		stopped  atomic.Bool  // set on first failure: stop claiming new work
		mu       sync.Mutex
		failures []indexed
		wg       sync.WaitGroup
	)
	record := func(rec indexed) {
		mu.Lock()
		failures = append(failures, rec)
		mu.Unlock()
		stopped.Store(true)
	}
	worker := func() {
		defer wg.Done()
		for {
			if stopped.Load() || ctx.Err() != nil {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			func() {
				start := time.Now()
				defer finish(start)
				defer func() {
					if r := recover(); r != nil {
						// debug.Stack grows its buffer to fit, so deep
						// task stacks are never truncated the way a
						// fixed-size runtime.Stack buffer would be.
						record(indexed{index: i, panic: &PanicError{Index: i, Value: r, Stack: debug.Stack()}})
					}
				}()
				v, err := fn(ctx, i)
				if err != nil {
					record(indexed{index: i, err: err})
					return
				}
				out[i] = v
			}()
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()

	if len(failures) > 0 {
		first := failures[0]
		for _, f := range failures[1:] {
			if f.index < first.index {
				first = f
			}
		}
		if first.panic != nil {
			panic(first.panic)
		}
		return nil, fmt.Errorf("parallel: task %d: %w", first.index, first.err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
