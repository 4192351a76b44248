package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0, 100) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3, 100); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3, 100) = %d", got)
	}
	if got := Workers(8, 3); got != 3 {
		t.Fatalf("Workers(8, 3) = %d, want clamp to 3", got)
	}
	if got := Workers(8, 0); got != 1 {
		t.Fatalf("Workers(8, 0) = %d, want 1", got)
	}
	if got := Workers(2, 100); got != 2 {
		t.Fatalf("Workers(2, 100) = %d", got)
	}
}

func TestMapOrderAndValues(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		got, err := Map(context.Background(), workers, 100, func(_ context.Context, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapZeroAndNegativeN(t *testing.T) {
	got, err := Map(context.Background(), 4, 0, func(_ context.Context, i int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("n=0: %v, %v", got, err)
	}
	if _, err := Map(context.Background(), 4, -1, func(_ context.Context, i int) (int, error) { return 0, nil }); err == nil {
		t.Fatal("n=-1 must error")
	}
}

// TestMapLowestErrorWins: the reported error must be the lowest failing
// index for every worker count — the determinism contract reductions and
// callers rely on.
func TestMapLowestErrorWins(t *testing.T) {
	failAt := map[int]bool{7: true, 23: true, 61: true}
	for _, workers := range []int{1, 2, 8} {
		_, err := Map(context.Background(), workers, 100, func(_ context.Context, i int) (int, error) {
			if failAt[i] {
				return 0, fmt.Errorf("boom at %d", i)
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if want := "parallel: task 7: boom at 7"; err.Error() != want {
			t.Fatalf("workers=%d: error %q, want %q", workers, err, want)
		}
	}
}

func TestMapErrorStopsClaiming(t *testing.T) {
	var ran atomic.Int64
	_, err := Map(context.Background(), 2, 1000, func(_ context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 3 {
			return 0, errors.New("early failure")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	// Workers stop claiming new indices after the failure; far fewer than
	// all 1000 tasks may run. Allow generous slack for in-flight tasks.
	if n := ran.Load(); n == 1000 {
		t.Fatalf("all %d tasks ran despite early failure", n)
	}
}

func TestMapPanicCapture(t *testing.T) {
	for _, workers := range []int{2, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic not propagated", workers)
				}
				pe, ok := r.(*PanicError)
				if !ok {
					t.Fatalf("workers=%d: recovered %T, want *PanicError", workers, r)
				}
				if pe.Index != 5 || pe.Value != "kaboom" {
					t.Fatalf("workers=%d: %+v", workers, pe)
				}
				if !strings.Contains(pe.Error(), "kaboom") || len(pe.Stack) == 0 {
					t.Fatalf("workers=%d: PanicError missing detail: %v", workers, pe)
				}
			}()
			Map(context.Background(), workers, 10, func(_ context.Context, i int) (int, error) {
				if i == 5 {
					panic("kaboom")
				}
				return i, nil
			})
		}()
	}
}

func TestMapCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	started := make(chan struct{}, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := Map(ctx, 2, 10000, func(ctx context.Context, i int) (int, error) {
			ran.Add(1)
			select {
			case started <- struct{}{}:
			default:
			}
			time.Sleep(time.Millisecond)
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Map after cancel: %v", err)
		}
	}()
	<-started
	cancel()
	<-done
	if n := ran.Load(); n == 10000 {
		t.Fatal("cancellation did not stop the fan-out")
	}
}

func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := Map(ctx, workers, 10, func(ctx context.Context, i int) (int, error) {
			return i, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}

// TestForEach: a for-each fan-out, which has nothing to collect — the job
// queue's executor pool — maps to struct{}, writes its own distinct slots and
// still gets the lowest failing index.
func TestForEach(t *testing.T) {
	out := make([]int, 64)
	if _, err := Map(context.Background(), 4, 64, func(_ context.Context, i int) (struct{}, error) {
		out[i] = i + 1 // distinct slots: no race
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	_, err := Map(context.Background(), 4, 64, func(_ context.Context, i int) (struct{}, error) {
		if i >= 32 {
			return struct{}{}, errors.New("upper half")
		}
		return struct{}{}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "task 32") {
		t.Fatalf("Map error = %v", err)
	}
}

// TestForEachCtx: every task of a struct{}-result fan-out sees a live ctx.
func TestForEachCtx(t *testing.T) {
	if _, err := Map(context.Background(), 3, 10, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
}

// TestWithProgress: every completed task reports exactly once, the final
// report is (n, n), and done values cover 1..n with no duplicates.
func TestWithProgress(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 64
		var mu sync.Mutex
		seen := make(map[int]int)
		ctx := WithProgress(context.Background(), func(done, total int) {
			if total != n {
				t.Errorf("workers=%d: total = %d, want %d", workers, total, n)
			}
			mu.Lock()
			seen[done]++
			mu.Unlock()
		})
		if _, err := Map(ctx, workers, n, func(ctx context.Context, i int) (int, error) {
			return i, nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(seen) != n {
			t.Fatalf("workers=%d: %d distinct done values, want %d", workers, len(seen), n)
		}
		for d := 1; d <= n; d++ {
			if seen[d] != 1 {
				t.Fatalf("workers=%d: done=%d reported %d times", workers, d, seen[d])
			}
		}
	}
}

// TestWithProgressStrip: WithProgress(ctx, nil) shadows an outer callback so
// nested fan-outs stay silent.
func TestWithProgressStrip(t *testing.T) {
	var calls atomic.Int64
	outer := WithProgress(context.Background(), func(done, total int) { calls.Add(1) })
	inner := WithProgress(outer, nil)
	if _, err := Map(inner, 2, 8, func(ctx context.Context, i int) (int, error) {
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("stripped progress still fired %d times", calls.Load())
	}
}

// TestPanicErrorStackNamesCulprit: the captured stack must include the
// panicking function's name — the whole point of carrying the worker-side
// stack to the caller's goroutine.
func TestPanicErrorStackNamesCulprit(t *testing.T) {
	defer func() {
		pe, ok := recover().(*PanicError)
		if !ok {
			t.Fatal("expected *PanicError")
		}
		if !strings.Contains(string(pe.Stack), "explosiveTask") {
			t.Fatalf("stack does not name the panicking function:\n%s", pe.Stack)
		}
	}()
	Map(context.Background(), 2, 4, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			explosiveTask()
		}
		return i, nil
	})
}

//go:noinline
func explosiveTask() { panic("bang") }

// TestMapDeterministicReduction mimics the simulation's usage pattern:
// float accumulation in index order after the fan-out must be bit-identical
// across worker counts.
func TestMapDeterministicReduction(t *testing.T) {
	sum := func(workers int) float64 {
		vals, err := Map(context.Background(), workers, 500, func(_ context.Context, i int) (float64, error) {
			return 1.0 / float64(i+1), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		var s float64
		for _, v := range vals {
			s += v
		}
		return s
	}
	base := sum(1)
	for _, workers := range []int{2, 3, 8} {
		if got := sum(workers); got != base {
			t.Fatalf("workers=%d: sum %v != serial %v", workers, got, base)
		}
	}
}
