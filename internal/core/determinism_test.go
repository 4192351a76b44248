package core

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/flight"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// workerWidths are the fan-out widths every parallelized generator must
// agree across: fully serial, minimally concurrent, and machine-wide.
func workerWidths() []int {
	widths := []int{1, 2}
	if p := runtime.GOMAXPROCS(0); p != 1 && p != 2 {
		widths = append(widths, p)
	}
	return widths
}

// TestGeneratePVTWorkerDeterminism: the PVT must be deep-equal — including
// every float bit — no matter how many workers generate it.
func TestGeneratePVTWorkerDeterminism(t *testing.T) {
	ref, err := GeneratePVT(context.Background(), cluster.MustNew(cluster.HA8K(), 96, 0x5c15), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerWidths()[1:] {
		got, err := GeneratePVT(context.Background(), cluster.MustNew(cluster.HA8K(), 96, 0x5c15), nil, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d produced a different PVT than serial", w)
		}
	}
}

// TestOraclePMTWorkerDeterminism: oracle measurement of every module must
// not depend on the fan-out width.
func TestOraclePMTWorkerDeterminism(t *testing.T) {
	bench := workload.BT()
	run := func(w int) *PMT {
		t.Helper()
		sys := cluster.MustNew(cluster.HA8K(), 96, 0x5c15)
		ids, err := sys.AllocateFirst(96)
		if err != nil {
			t.Fatal(err)
		}
		pmt, err := OraclePMT(sys, bench, ids, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		return pmt
	}
	ref := run(1)
	for _, w := range workerWidths()[1:] {
		if got := run(w); !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d produced a different PMT than serial", w)
		}
	}
}

// TestFrameworkRunWorkerDeterminism: the full pipeline — PVT, calibration,
// α-solve, enforcement, final measured run — is byte-identical for every
// worker count, for both a capping and a frequency-selection scheme.
func TestFrameworkRunWorkerDeterminism(t *testing.T) {
	for _, scheme := range []Scheme{VaPc, VaFs} {
		run := func(w int) *SchemeRun {
			t.Helper()
			sys := cluster.MustNew(cluster.HA8K(), 96, 0x5c15)
			ids, err := sys.AllocateFirst(96)
			if err != nil {
				t.Fatal(err)
			}
			fw, err := NewFrameworkWorkers(sys, nil, w)
			if err != nil {
				t.Fatal(err)
			}
			r, err := fw.Run(workload.MHD(), ids, 70*96, scheme)
			if err != nil {
				t.Fatalf("workers=%d: %v", w, err)
			}
			return r
		}
		ref := run(1)
		for _, w := range workerWidths()[1:] {
			if got := run(w); !reflect.DeepEqual(ref, got) {
				t.Fatalf("%v: workers=%d produced a different run than serial", scheme, w)
			}
		}
	}
}

// TestClonedFrameworkMeasuresIdentically: a framework clone must reproduce
// the original's runs exactly — the property the grid engines rely on to
// hand each cell its own replica.
func TestClonedFrameworkMeasuresIdentically(t *testing.T) {
	sys := cluster.MustNew(cluster.HA8K(), 64, 0x5c15)
	ids, err := sys.AllocateFirst(64)
	if err != nil {
		t.Fatal(err)
	}
	fw, err := NewFrameworkWorkers(sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fw.Clone().Run(workload.BT(), ids, 70*64, VaFs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fw.Clone().Run(workload.BT(), ids, 70*64, VaFs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("two fresh clones measured differently")
	}
}

// TestPooledReplicaEquivalence is the pooled-vs-fresh property behind the
// sweep engines' replica pooling: at every worker width, a run on a
// *recycled* pool replica must deep-equal the same run on a fresh clone,
// and the flight traces the two runs record must be byte-identical. The
// pool is primed with a used-and-returned replica so the borrow is a real
// recycle, not a hidden fresh Clone.
func TestPooledReplicaEquivalence(t *testing.T) {
	bench := workload.MHD()
	budget := units.Watts(70 * 64)
	trace := func(fw *Framework) []byte {
		t.Helper()
		fw.Recorder = flight.New(flight.Config{Hz: 2})
		defer func() { fw.Recorder = nil }()
		ids, err := fw.Sys.AllocateFirst(64)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Run(bench, ids, budget, VaPc); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := flight.WriteTrace(&buf, fw.Recorder.Snapshot()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	run := func(fw *Framework) *SchemeRun {
		t.Helper()
		ids, err := fw.Sys.AllocateFirst(64)
		if err != nil {
			t.Fatal(err)
		}
		r, err := fw.Run(bench, ids, budget, VaPc)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	for _, w := range workerWidths() {
		sys := cluster.MustNew(cluster.HA8K(), 64, 0x5c15)
		fw, err := NewFrameworkWorkers(sys, nil, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		wantRun := run(fw.Clone())
		wantTrace := trace(fw.Clone())

		pool := NewReplicaPool(fw)
		// Dirty a replica and return it, so the next Get recycles it.
		dirty := pool.Get()
		run(dirty)
		pool.Put(dirty)

		recycled := pool.Get()
		if gotRun := run(recycled); !reflect.DeepEqual(wantRun, gotRun) {
			t.Fatalf("workers=%d: recycled replica's run differs from fresh clone's", w)
		}
		pool.Put(recycled)
		recycled = pool.Get()
		if gotTrace := trace(recycled); !bytes.Equal(wantTrace, gotTrace) {
			t.Fatalf("workers=%d: recycled replica's flight trace differs from fresh clone's", w)
		}
		pool.Put(recycled)
	}
}
