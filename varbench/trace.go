package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// maxSpans bounds the spans a tracer keeps in memory. Once full it
// overwrites its oldest span and counts it as dropped, so recording a span
// costs the same however many came before.
const maxSpans = 1 << 19

// spanHeader carries "<op>/<parent>/<id>" from a traced client request to
// the server-side handler span, which then nests under the client's span
// with an ID the client reserved (so replays can name it as their parent).
const spanHeader = "X-Varbench-Span"

// span is one timed call made by the benchmark around a layer's public
// function. Parent is the span that caused it (0 for an op's root); Op groups
// every span of one operation. Start and End are nanoseconds since the
// tracer was created.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until they are cut. A nil *tracer is the
// untraced mode: every method is a no-op.
type tracer struct {
	t0      time.Time
	seq     atomic.Int64
	mu      sync.Mutex
	spans   []span // a ring once full, oldest at next
	next    int
	dropped int
}

// spanSet is the spans a tracer recorded between two cuts, oldest first.
type spanSet struct {
	Dropped int    `json:"dropped"`
	Spans   []span `json:"spans"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is a started span; end records it.
type spanRef struct {
	tr     *tracer
	id     int64
	parent int64
	op     int64
	name   string
	start  time.Time
}

// root starts the root span of operation op.
func (t *tracer) root(op int64, name string) spanRef {
	return t.start(op, 0, name)
}

func (t *tracer) start(op, parent int64, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	return spanRef{tr: t, id: t.seq.Add(1), parent: parent, op: op, name: name, start: time.Now()}
}

// child starts a span caused by s.
func (s spanRef) child(name string) spanRef {
	return s.tr.start(s.op, s.id, name)
}

// remote reserves the ID of a "service.handler" span the server will
// record under s, and returns it with the request header that carries it
// (nil header and 0 when untraced).
func (s spanRef) remote() (http.Header, int64) {
	if s.tr == nil {
		return nil, 0
	}
	id := s.tr.seq.Add(1)
	return http.Header{spanHeader: {fmt.Sprintf("%d/%d/%d", s.op, s.id, id)}}, id
}

// end records the span.
func (s spanRef) end() {
	if s.tr == nil {
		return
	}
	s.tr.add(span{
		ID: s.id, Parent: s.parent, Op: s.op, Name: s.name,
		Start: int64(s.start.Sub(s.tr.t0)), End: int64(time.Since(s.tr.t0)),
	})
}

func (t *tracer) add(sp span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, sp)
		return
	}
	t.spans[t.next] = sp
	t.next = (t.next + 1) % maxSpans
	t.dropped++
}

// wrap returns h with a "service.handler" span around every request that
// carries spanHeader. It is the benchmark's own code around the layer's
// public entry point, so the server-side span nests inside the client's
// round trip without touching the program.
func (t *tracer) wrap(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var op, parent, id int64
		if _, err := fmt.Sscanf(r.Header.Get(spanHeader), "%d/%d/%d", &op, &parent, &id); err != nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := spanRef{tr: t, id: id, parent: parent, op: op, name: "service.handler", start: time.Now()}
		h.ServeHTTP(w, r)
		sp.end()
	})
}

// bytes is the memory the recorded spans hold (span names are constants).
func (t *tracer) bytes() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return float64(cap(t.spans)) * float64(unsafe.Sizeof(span{}))
}

// cut returns the spans recorded since the last cut and starts afresh.
func (t *tracer) cut() spanSet {
	t.mu.Lock()
	defer t.mu.Unlock()
	set := spanSet{Dropped: t.dropped, Spans: slices.Concat(t.spans[t.next:], t.spans[:t.next])}
	t.spans, t.next, t.dropped = nil, 0, 0
	return set
}

// writeSpans stores a traced run's span sets as JSON at path.
func writeSpans(path string, window, decomposition spanSet) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]spanSet{"window": window, "decomposition": decomposition})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerSelfTimes returns each layer's self time over the given ops: the
// median over those ops of the op's total time in spans of that name (0
// for an op without one), minus the same medians of the names its child
// spans carry, floored at zero. Children are either nested in time (a
// server handler inside the client's round trip) or replays — a lower layer
// called again on the op's own input right after the op, because it runs
// inside a call the benchmark cannot open. Either way the child's time
// belongs to the child's layer, not the parent's. Subtracting medians rather
// than each op's replay keeps a replay's own noise out of its parent.
func layerSelfTimes(spans []span, ops map[int64]bool) map[string]time.Duration {
	nameOf := make(map[int64]string)
	perOp := make(map[int64]map[string]time.Duration)
	for _, s := range spans {
		if !ops[s.Op] {
			continue
		}
		nameOf[s.ID] = s.Name
		m := perOp[s.Op]
		if m == nil {
			m = make(map[string]time.Duration)
			perOp[s.Op] = m
		}
		m[s.Name] += s.dur()
	}
	children := make(map[string]map[string]bool)
	for _, s := range spans {
		parent, ok := nameOf[s.Parent]
		if !ok || !ops[s.Op] {
			continue
		}
		if children[parent] == nil {
			children[parent] = make(map[string]bool)
		}
		children[parent][s.Name] = true
	}
	med := make(map[string]time.Duration)
	for _, name := range nameOf {
		if _, done := med[name]; done {
			continue
		}
		xs := make([]time.Duration, 0, len(perOp))
		for _, m := range perOp {
			xs = append(xs, m[name])
		}
		med[name] = time.Duration(medianDur(xs, 1))
	}
	self := make(map[string]time.Duration, len(med))
	for name, d := range med {
		for c := range children[name] {
			d -= med[c]
		}
		self[name] = max(d, 0)
	}
	return self
}
