package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"varpower/internal/service"
)

func solveBody(t *testing.T, budget float64, allocs ...float64) []byte {
	t.Helper()
	resp := service.SolveResponse{System: "HA8K", Workload: "*DGEMM", Scheme: "VaPc", BudgetWatts: budget, Modules: len(allocs), Feasible: true}
	for i, a := range allocs {
		resp.Allocations = append(resp.Allocations, service.ModuleAllocation{Module: i, PModule: a})
	}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestLedgerRejectsMutatedBody(t *testing.T) {
	l := newBodyLedger()
	body := solveBody(t, 300, 100, 100, 100)
	if err := l.observe("k", body); err != nil {
		t.Fatalf("first body: %v", err)
	}
	if err := l.observe("k", append([]byte(nil), body...)); err != nil {
		t.Fatalf("identical body: %v", err)
	}
	mutated := bytes.Replace(body, []byte(`"pmodule_w":100`), []byte(`"pmodule_w":101`), 1)
	if bytes.Equal(mutated, body) {
		t.Fatal("mutation did not apply")
	}
	if err := l.observe("k", mutated); err == nil {
		t.Fatal("mutated body passed the byte-identity check")
	}
	if err := l.observe("other", mutated); err != nil {
		t.Fatalf("another key's first body: %v", err)
	}
}

func TestCheckBudget(t *testing.T) {
	if err := checkBudget(solveBody(t, 300, 100, 100, 100)); err != nil {
		t.Errorf("allocations at the budget: %v", err)
	}
	if err := checkBudget(solveBody(t, 300, 100, 100, 100.5)); err == nil {
		t.Error("allocations over the budget passed Equation 6")
	}
	var resp service.SolveResponse
	if err := json.Unmarshal(solveBody(t, 300, 200, 200), &resp); err != nil {
		t.Fatal(err)
	}
	resp.Feasible = false // an infeasible answer may exceed the budget
	b, _ := json.Marshal(resp)
	if err := checkBudget(b); err != nil {
		t.Errorf("infeasible solve: %v", err)
	}
	resp.Modules = 3
	b, _ = json.Marshal(resp)
	if err := checkBudget(b); err == nil {
		t.Error("a missing module allocation passed")
	}
	if err := checkBudget([]byte(`{"allocations":`)); err == nil {
		t.Error("a truncated body passed")
	}
}

func TestLedgerChecksKeptBodies(t *testing.T) {
	l := newBodyLedger()
	_ = l.observe("ok", solveBody(t, 300, 100, 100))
	_ = l.observe("over", solveBody(t, 300, 200, 200))
	bad, err := l.checkKept()
	if bad != 1 || err == nil {
		t.Errorf("checkKept = %d, %v; want 1 failure", bad, err)
	}
}
