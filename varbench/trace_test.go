package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// opTree is one cold-style op: a round trip holding a server handler,
// with replayed PVT and PMT children of the handler recorded after the op.
func opTree(op, id0 int64, total, rt, handler, pvt, pmt time.Duration) []span {
	ms := int64(time.Millisecond)
	t0 := op * 100 * ms
	return []span{
		{ID: id0, Op: op, Name: "op", Start: t0, End: t0 + int64(total)},
		{ID: id0 + 1, Parent: id0, Op: op, Name: "http.roundtrip", Start: t0 + ms, End: t0 + ms + int64(rt)},
		{ID: id0 + 2, Parent: id0 + 1, Op: op, Name: "service.handler", Start: t0 + 2*ms, End: t0 + 2*ms + int64(handler)},
		{ID: id0 + 3, Parent: id0 + 2, Op: op, Name: "core.pvt", Start: t0 + 50*ms, End: t0 + 50*ms + int64(pvt)},
		{ID: id0 + 4, Parent: id0 + 2, Op: op, Name: "core.pmt", Start: t0 + 60*ms, End: t0 + 60*ms + int64(pmt)},
	}
}

func TestLayerSelfTimes(t *testing.T) {
	ms := time.Millisecond
	one := opTree(1, 1, 10*ms, 8*ms, 6*ms, 2*ms, 3*ms)
	got := layerSelfTimes(one, map[int64]bool{1: true})
	want := map[string]time.Duration{
		"op": 2 * ms, "http.roundtrip": 2 * ms, "service.handler": 1 * ms,
		"core.pvt": 2 * ms, "core.pmt": 3 * ms,
	}
	var sum time.Duration
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s self time %v, want %v", name, got[name], w)
		}
		sum += got[name]
	}
	if sum != 10*ms {
		t.Errorf("self times sum to %v, want the op's 10ms", sum)
	}

	// Over three ops each layer's median is taken before subtracting: the
	// handler's is 7 ms, its replays' 3 + 2 ms, so its self time is 2 ms
	// although one op's replays outran its handler.
	var three []span
	three = append(three, opTree(1, 1, 10*ms, 8*ms, 6*ms, 2*ms, 3*ms)...)
	three = append(three, opTree(2, 10, 11*ms, 9*ms, 7*ms, 6*ms, 2*ms)...)
	three = append(three, opTree(3, 20, 12*ms, 10*ms, 9*ms, 3*ms, 1*ms)...)
	three = append(three, opTree(4, 30, 99*ms, 99*ms, 99*ms, 1*ms, 1*ms)...) // not selected
	got = layerSelfTimes(three, map[int64]bool{1: true, 2: true, 3: true})
	if got["service.handler"] != 2*ms || got["core.pvt"] != 3*ms || got["op"] != 2*ms {
		t.Errorf("medians: handler %v pvt %v op %v; want 2ms 3ms 2ms", got["service.handler"], got["core.pvt"], got["op"])
	}

	// Children longer than their parent floor it at zero.
	clamp := opTree(5, 40, 10*ms, 8*ms, 6*ms, 5*ms, 4*ms)
	if got := layerSelfTimes(clamp, map[int64]bool{5: true}); got["service.handler"] != 0 {
		t.Errorf("handler self time %v, want 0", got["service.handler"])
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.root(9, "op")
	hdr, hid := root.child("http.roundtrip").remote()
	if hid == 0 || hdr.Get(spanHeader) == "" {
		t.Fatal("traced remote span has no ID or header")
	}
	var untraced *tracer
	sp := untraced.root(1, "op")
	if h, id := sp.child("x").remote(); h != nil || id != 0 {
		t.Error("untraced span reserved a remote ID")
	}
	sp.end()
	root.end()
	if got := len(tr.cut().Spans); got != 1 {
		t.Errorf("%d spans recorded, want 1", got)
	}
}

func TestWrapNestsHandlerSpan(t *testing.T) {
	tr := newTracer()
	h := tr.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	rt := tr.root(3, "op").child("http.roundtrip")
	hdr, hid := rt.remote()
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header = hdr
	h.ServeHTTP(httptest.NewRecorder(), req)
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil)) // no header: no span
	spans := tr.cut().Spans
	if len(spans) != 1 {
		t.Fatalf("%d spans, want the handler's alone", len(spans))
	}
	if s := spans[0]; s.ID != hid || s.Parent != rt.id || s.Op != 3 || s.Name != "service.handler" {
		t.Errorf("handler span %+v, want id %d under %d in op 3", s, hid, rt.id)
	}
}

func TestTracerRingAndCut(t *testing.T) {
	// A full tracer overwrites its oldest spans and counts them; a cut
	// returns the newest maxSpans oldest first and leaves the tracer empty.
	tr := newTracer()
	for i := int64(1); i <= maxSpans+3; i++ {
		tr.add(span{ID: i})
	}
	set := tr.cut()
	if set.Dropped != 3 || len(set.Spans) != maxSpans {
		t.Fatalf("cut kept %d spans, dropped %d; want %d and 3", len(set.Spans), set.Dropped, maxSpans)
	}
	if first, last := set.Spans[0].ID, set.Spans[maxSpans-1].ID; first != 4 || last != maxSpans+3 {
		t.Errorf("spans run from %d to %d, want 4 to %d", first, last, maxSpans+3)
	}
	tr.add(span{ID: 1})
	if again := tr.cut(); again.Dropped != 0 || len(again.Spans) != 1 {
		t.Errorf("after a cut: %d spans, %d dropped; want 1 and 0", len(again.Spans), again.Dropped)
	}
}
