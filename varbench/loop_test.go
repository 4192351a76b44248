package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"varpower/internal/service"
	"varpower/internal/service/client"
)

// TestJobsLoop drives the jobs harness through a short traced window and a
// decomposition with two clients, as a traced run does.
func TestJobsLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("serves real jobs")
	}
	tr := newTracer()
	h, err := setupServed("jobs", 1, 0, tr, true)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	h.begin()
	src := &opSource{h: h}
	start := time.Now()
	lr := runLoop(src, 2, start, start.Add(300*time.Millisecond), 0, tr, false)
	if lr.failed != 0 || len(lr.ops) == 0 {
		t.Fatalf("window: %d ops, %d failed (%v)", len(lr.ops), lr.failed, lr.firstErr)
	}
	tr.cut()
	dr := runLoop(src, 2, time.Now(), time.Time{}, 4, tr, true)
	if dr.failed != 0 || len(dr.ops) != 4 {
		t.Fatalf("decomposition: %d ops, %d failed (%v)", len(dr.ops), dr.failed, dr.firstErr)
	}
	self := layerSelfTimes(tr.cut().Spans, dr.ids)
	for _, name := range []string{"http.submit", "http.poll", "service.handler", "core.run"} {
		if _, ok := self[name]; !ok {
			t.Errorf("no %s span in the decomposed ops", name)
		}
	}
	m := make(metrics)
	h.windowMetrics(m, window{delta: counterDelta{values: map[string]float64{}}})
	if m["service.polls_per_job"].Value < 1 {
		t.Errorf("polls per job %v, want at least 1", m["service.polls_per_job"].Value)
	}
}

// TestKnownDefectCountedApart serves a faulted solve that fails with the
// inverted power range and one that fails otherwise: the first is counted
// as the known defect, the second as a failed op.
func TestKnownDefectCountedApart(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"core: module 0 has inverted power range [12, 0]"}`, http.StatusUnprocessableEntity)
	}))
	defer hs.Close()
	s := &served{kind: "cold", cl: client.New(hs.URL), ledger: newBodyLedger()}
	faulted := newRequest(service.SolveRequest{System: "HA8K", Workload: "dgemm", Scheme: "VaFs", BudgetWatts: 15360, Seed: 1, Faults: "low"}, true)
	clean := newRequest(service.SolveRequest{System: "HA8K", Workload: "dgemm", Scheme: "VaFs", BudgetWatts: 15360, Seed: 2}, true)
	if err := s.solve(faulted, spanRef{}, nil); !errors.Is(err, errInvertedRange) {
		t.Errorf("faulted solve: %v, want the known defect", err)
	}
	if err := s.solve(clean, spanRef{}, nil); err == nil || errors.Is(err, errInvertedRange) {
		t.Errorf("unfaulted solve: %v, want an ordinary failure", err)
	}

	errs := []error{nil, fmt.Errorf("op: %w", errInvertedRange), errors.New("wrong body"), nil}
	src := &opSource{h: &stubHarness{errs: errs}}
	lr := runLoop(src, 1, time.Now(), time.Time{}, int64(len(errs)), nil, false)
	if len(lr.ops) != 4 || lr.defects != 1 || lr.failed != 1 || len(lr.ids) != 2 {
		t.Errorf("%d ops, %d defects, %d failed, %d clean; want 4, 1, 1, 2", len(lr.ops), lr.defects, lr.failed, len(lr.ids))
	}
}

// stubHarness runs ops that return the given errors in turn.
type stubHarness struct {
	errs []error
	n    int
}

func (h *stubHarness) begin() {}
func (h *stubHarness) prepare(int64) func(spanRef) error {
	err := h.errs[h.n]
	h.n++
	return func(spanRef) error { return err }
}
func (h *stubHarness) replay(int64, spanRef) error   { return nil }
func (h *stubHarness) check() (int64, error)         { return 0, nil }
func (h *stubHarness) windowMetrics(metrics, window) {}
func (h *stubHarness) close()                        {}
