package main

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"sync"

	"varpower/internal/service"
)

// keepBodies is how many distinct solve bodies a run retains for the
// Equation 6 check made after the timed window.
const keepBodies = 256

// bodyLedger checks that every solve body for one request identity is
// byte-identical to the first one seen. It keeps a 64-bit hash per identity
// rather than the body (a run issues thousands of ~20 KB bodies), plus the
// first keepBodies distinct bodies in full for checkBudget.
type bodyLedger struct {
	seed  maphash.Seed
	mu    sync.Mutex
	first map[string]uint64
	kept  [][]byte
}

func newBodyLedger() *bodyLedger {
	return &bodyLedger{seed: maphash.MakeSeed(), first: make(map[string]uint64)}
}

// observe records body for key, or checks it against the first body seen.
func (l *bodyLedger) observe(key string, body []byte) error {
	h := maphash.Bytes(l.seed, body)
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.first[key]; ok {
		if prev != h {
			return fmt.Errorf("body for %s differs from the first one served", key)
		}
		return nil
	}
	l.first[key] = h
	if len(l.kept) < keepBodies {
		l.kept = append(l.kept, body)
	}
	return nil
}

// checkKept runs checkBudget on every retained body and returns the number
// of bodies that fail it, with the first failure.
func (l *bodyLedger) checkKept() (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	bad := 0
	var first error
	for _, b := range l.kept {
		if err := checkBudget(b); err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	return bad, first
}

// budgetSlack absorbs float rounding in the summed allocations (watts).
const budgetSlack = 1e-6

// checkBudget decodes a solve body and verifies Equation 6: when the solve
// is feasible, the per-module allocations (plus the GPU devices' on hybrid
// systems) sum to at most the budget, and every module is allocated.
func checkBudget(body []byte) error {
	var resp service.SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decode solve body: %w", err)
	}
	if len(resp.Allocations) != resp.Modules {
		return fmt.Errorf("%s/%s: %d allocations for %d modules", resp.Workload, resp.Scheme, len(resp.Allocations), resp.Modules)
	}
	if !resp.Feasible {
		return nil
	}
	sum := 0.0
	for _, a := range resp.Allocations {
		sum += a.PModule
	}
	for _, a := range resp.GPUAllocations {
		sum += a.PowerW
	}
	if sum > resp.BudgetWatts+budgetSlack {
		return fmt.Errorf("%s/%s: allocations sum to %.6f W over the %.6f W budget", resp.Workload, resp.Scheme, sum, resp.BudgetWatts)
	}
	return nil
}
