package main

import (
	"bytes"
	"math"
	"testing"

	"varpower/internal/core"
)

func TestGeneratorDeterministic(t *testing.T) {
	for _, kind := range []string{"admit", "cold", "jobs"} {
		a, b, c := newGenerator(kind, 7), newGenerator(kind, 7), newGenerator(kind, 8)
		same := 0
		for i := 0; i < 2000; i++ {
			ra, rb, rc := a.next(), b.next(), c.next()
			if ra.key != rb.key || !bytes.Equal(ra.body, rb.body) {
				t.Fatalf("%s: request %d differs for one seed: %s vs %s", kind, i, ra.key, rb.key)
			}
			if ra.key == rc.key {
				same++
			}
		}
		if same > 100 {
			t.Errorf("%s: seeds 7 and 8 agree on %d of 2000 requests", kind, same)
		}
	}
}

func TestAdmitMix(t *testing.T) {
	g := newGenerator("admit", 1)
	const n = 20000
	seen := make(map[string]bool)
	repeats, hybrid := 0, 0
	for i := 0; i < n; i++ {
		r := g.next()
		if seen[r.key] {
			repeats++
		}
		seen[r.key] = true
		if r.req.System == "HA8K-hybrid" {
			hybrid++
		}
		if r.mustMiss {
			t.Fatalf("admit request %s marked must-miss", r.key)
		}
	}
	if share := float64(repeats) / n; share < 0.78 || share > 0.82 {
		t.Errorf("repeat share %.3f, want about %.2f", share, repeatShare)
	}
	if share := float64(hybrid) / n; share < 0.03 || share > 0.07 {
		t.Errorf("hybrid share %.3f, want about %.2f", share, hybridShare)
	}
}

func TestColdSeedsUnique(t *testing.T) {
	seen := make(map[uint64]bool)
	for _, ws := range []uint64{0, 1, servingSeed} {
		for phase := uint64(0); phase < 4; phase++ {
			for i := uint64(0); i < 5000; i++ {
				s := coldSeed(ws, phase, i)
				if s == 0 || s == servingSeed {
					t.Fatalf("cold seed %#x collides with the serving seed", s)
				}
				if ws == 1 && seen[s] {
					t.Fatalf("cold seed %#x repeats (phase %d, index %d)", s, phase, i)
				}
				if ws == 1 {
					seen[s] = true
				}
			}
		}
	}
	// A generator per set-up repetition, as a run makes them.
	keys := make(map[uint64]bool)
	for rep := uint64(0); rep < 3; rep++ {
		g := newGenerator("cold", 1)
		g.setPhase(rep)
		for i := 0; i < 1000; i++ {
			r := g.next()
			if !r.mustMiss {
				t.Fatalf("cold request %s not marked must-miss", r.key)
			}
			if keys[r.req.Seed] {
				t.Fatalf("repetition %d reuses seed %#x", rep, r.req.Seed)
			}
			keys[r.req.Seed] = true
		}
	}
}

func TestColdFaultMix(t *testing.T) {
	// Faulted cold requests keep the class the Zipf draw picked, so the
	// schemes that fail under faults today are asked for too.
	g := newGenerator("cold", 3)
	const n = 4000
	faulted := 0
	schemes := make(map[string]bool)
	for i := 0; i < n; i++ {
		r := g.next()
		if r.req.Faults == "" {
			continue
		}
		faulted++
		schemes[r.req.Scheme] = true
	}
	if share := float64(faulted) / n; math.Abs(share-faultShare) > 0.03 {
		t.Errorf("faulted share %.3f, want %.2f", share, faultShare)
	}
	if len(schemes) != len(core.AllSchemes()) {
		t.Errorf("faulted requests use %d schemes, want all %d", len(schemes), len(core.AllSchemes()))
	}
}

func TestRecordedVaFs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two reproductions")
	}
	for _, seed := range []uint64{0, 1} {
		_, vafs, _, err := reproduction(reproOptions(seed, 0), spanRef{})
		if err != nil {
			t.Fatal(err)
		}
		if want := recordedVaFs[seed]; vafs != want {
			t.Errorf("seed %d: VaFs average %v, recorded %v", seed, vafs, want)
		}
	}
}
