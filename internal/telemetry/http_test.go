package telemetry

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestServeGracefulShutdownReleasesPort starts the debug endpoint, hits
// /metrics, shuts it down, and proves the port is immediately reusable —
// the leak the bare-listener implementation had.
func TestServeGracefulShutdownReleasesPort(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("varpower_test_total", "test counter", nil).Inc()
	tr := NewTracer(reg, time.Now)

	addr, stop, err := Serve("127.0.0.1:0", reg, tr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "varpower_test_total") {
		t.Fatalf("/metrics missing registered counter:\n%s", body)
	}
	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The port must be free the moment stop returns.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port not released after shutdown: %v", err)
	}
	ln.Close()
}

// TestStartServerShutdownWaitsForInflight proves Shutdown is graceful: a
// handler that is mid-response when Shutdown begins still completes.
func TestStartServerShutdownWaitsForInflight(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "done")
	})
	s, err := StartServer("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + s.Addr() + "/slow")
		if err != nil {
			got <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		got <- result{body: string(b), err: err}
	}()

	<-entered
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// Give Shutdown a moment to close the listener, then release the handler.
	time.Sleep(20 * time.Millisecond)
	close(release)

	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight request cut by shutdown: %v", r.err)
	}
	if r.body != "done" {
		t.Fatalf("in-flight response truncated: %q", r.body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDebugMuxRoutes pins both mount points of the metrics and spans
// handlers: the CLIs serve the mux at the root, varpowerd under /debug/.
func TestDebugMuxRoutes(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, time.Now)
	tr.Start("debug.phase").End()
	h := DebugMux(reg, tr)
	for _, path := range []string{"/metrics", "/spans", "/debug/metrics", "/debug/spans"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s status = %d, want 200", path, rec.Code)
		}
		if !strings.Contains(rec.Body.String(), "debug.phase") {
			t.Fatalf("GET %s body lacks the recorded phase:\n%s", path, rec.Body.String())
		}
	}
}
