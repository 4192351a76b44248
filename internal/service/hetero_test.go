package service_test

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"varpower/internal/service"
)

// hybridConfig serves the hybrid preset eagerly at a small scale.
func hybridConfig() service.Config {
	return service.Config{
		Systems: []string{"HA8K-hybrid"},
		Modules: 16,
		Seed:    0x5c15,
	}
}

func hybridReq() service.SolveRequest {
	return service.SolveRequest{
		System:      "hybrid", // the alias must resolve over HTTP too
		Workload:    "mhd",
		Scheme:      "vapc",
		BudgetWatts: 9000,
	}
}

// TestHybridSolve: /v1/solve on a hybrid preset returns the hierarchical
// answer — class budgets that sum to the machine budget, a GPU solve, and
// per-device allocations — deterministically across repeats.
func TestHybridSolve(t *testing.T) {
	_, _, c := newTestServer(t, hybridConfig())
	ctx := context.Background()
	resp, disp, err := c.Solve(ctx, hybridReq())
	if err != nil {
		t.Fatal(err)
	}
	if disp != "miss" {
		t.Fatalf("first solve disposition %q", disp)
	}
	if resp.System != "HA8K-hybrid" {
		t.Fatalf("alias resolved to %q", resp.System)
	}
	if resp.Splitter != "greedy" {
		t.Fatalf("default splitter %q, want greedy", resp.Splitter)
	}
	if resp.CPUBudgetW+resp.GPUBudgetW != resp.BudgetWatts {
		t.Fatalf("class budgets %v + %v != %v", resp.CPUBudgetW, resp.GPUBudgetW, resp.BudgetWatts)
	}
	if len(resp.GPUAllocations) == 0 || resp.GPUClockHz <= 0 {
		t.Fatalf("missing GPU solve: %+v", resp)
	}
	if resp.PredictedPowerW > resp.BudgetWatts {
		t.Fatalf("predicted power %v exceeds budget %v", resp.PredictedPowerW, resp.BudgetWatts)
	}
	var gpuSum float64
	for _, a := range resp.GPUAllocations {
		gpuSum += a.PowerW
	}
	if gpuSum > resp.GPUBudgetW+1e-6 {
		t.Fatalf("GPU allocations %v exceed class budget %v", gpuSum, resp.GPUBudgetW)
	}
	again, disp, err := c.Solve(ctx, hybridReq())
	if err != nil {
		t.Fatal(err)
	}
	if disp != "hit" {
		t.Fatalf("repeat disposition %q, want hit", disp)
	}
	if again.GPUAlpha != resp.GPUAlpha || len(again.GPUAllocations) != len(resp.GPUAllocations) {
		t.Fatal("cached hybrid answer differs")
	}
	// A different splitter is a different cache identity and a different
	// split.
	req := hybridReq()
	req.Splitter = "uniform"
	uni, disp, err := c.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if disp != "miss" {
		t.Fatalf("new splitter disposition %q, want miss", disp)
	}
	if uni.GPUBudgetW == resp.GPUBudgetW {
		t.Fatal("uniform and greedy split identically on the GPU-heavy preset")
	}
}

// TestHybridSystemsAndMetrics: /v1/systems reports the GPU population and
// /v1/metrics carries the varpower_gpu_* telemetry families after a solve.
func TestHybridSystemsAndMetrics(t *testing.T) {
	_, _, c := newTestServer(t, hybridConfig())
	ctx := context.Background()
	if _, _, err := c.Solve(ctx, hybridReq()); err != nil {
		t.Fatal(err)
	}
	systems, err := c.Systems(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, sys := range systems {
		if sys["name"] == "HA8K-hybrid" {
			found = true
			if sys["gpu_arch"] != "NVIDIA K20X" {
				t.Fatalf("gpu_arch = %v", sys["gpu_arch"])
			}
			if n, ok := sys["gpus_loaded"].(float64); !ok || n <= 0 {
				t.Fatalf("gpus_loaded = %v", sys["gpus_loaded"])
			}
		}
	}
	if !found {
		t.Fatal("HA8K-hybrid missing from /v1/systems")
	}
	metrics, err := c.Metrics(ctx, "prom")
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{"varpower_gpu_limit_writes_total", "varpower_gpu_clock_locks_total"} {
		if !strings.Contains(metrics, family) {
			t.Fatalf("metrics missing %s", family)
		}
	}
}

// TestHybridJob: the job path (full simulated run + attribution) accepts
// hybrid presets; the measured run covers the CPU class.
func TestHybridJob(t *testing.T) {
	_, _, c := newTestServer(t, hybridConfig())
	ctx := context.Background()
	st, err := c.SubmitJob(ctx, hybridReq())
	if err != nil {
		t.Fatal(err)
	}
	st, err = c.WaitJob(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.JobDone || st.Result == nil {
		t.Fatalf("job state %v (%s)", st.State, st.Error)
	}
	if st.Result.ElapsedS <= 0 || st.Result.AvgPowerW <= 0 {
		t.Fatalf("degenerate job result %+v", st.Result)
	}
	if st.Request.Splitter != "greedy" {
		t.Fatalf("job request splitter %q", st.Request.Splitter)
	}
	// Attribution observed the run.
	ar, err := c.Attrib(ctx, "HA8K-hybrid")
	if err != nil {
		t.Fatal(err)
	}
	if ar.Report == nil {
		t.Fatal("no attribution report for the hybrid system")
	}
}

// TestSplitterRejectedOnCPUOnly: CPU-only systems refuse a splitter.
func TestSplitterRejectedOnCPUOnly(t *testing.T) {
	_, _, c := newTestServer(t, testConfig())
	req := solveReq()
	req.Splitter = "greedy"
	if _, _, err := c.Solve(context.Background(), req); err == nil {
		t.Fatal("splitter accepted on a CPU-only system")
	}
}

// TestSolveHybridGolden pins the rendered hierarchical /v1/solve body for a
// fixed seed, healthy and under the "low" fault rung (which also runs the
// GPU install sweep under injection).
func TestSolveHybridGolden(t *testing.T) {
	for _, tc := range []struct{ name, faults string }{
		{"solve_hybrid", ""},
		{"solve_hybrid_faults", "low"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, hs, _ := newTestServer(t, hybridConfig())
			req := hybridReq()
			req.Faults = tc.faults
			body, status, _ := postSolve(t, hs.URL, req)
			if status != http.StatusOK {
				t.Fatalf("solve status = %d, body %s", status, body)
			}
			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, body, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("hybrid solve body diverges from %s\n got: %s\nwant: %s", golden, body, want)
			}
		})
	}
}
