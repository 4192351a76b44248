package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"varpower/internal/cluster"
	"varpower/internal/faults"
	"varpower/internal/workload"
)

// update rewrites the golden tables instead of comparing against them:
//
//	go test ./internal/core -run TestGolden -update
var update = flag.Bool("update", false, "rewrite the testdata golden files")

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("%s: table diverged from the golden file (%d bytes, want %d)", path, len(got), len(want))
	}
}

// goldenSystem is HA8K at 192 modules, seed 1, healthy or under the "low"
// fault rung over a 10 s horizon.
func goldenSystem(t *testing.T, faulty bool) *cluster.System {
	t.Helper()
	const n, seed = 192, 1
	sys := cluster.MustNew(cluster.HA8K(), n, seed)
	if faulty {
		level, err := faults.LevelByName("low", 10)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := faults.Generate(seed, level.Spec, n)
		if err != nil {
			t.Fatal(err)
		}
		sys.InstallFaults(faults.MustInjector(plan))
	}
	return sys
}

// TestGoldenPVT pins the install sweep's table, in pvtgen's JSON form,
// healthy and under faults: every test run's RAPL quantisation, poll
// retries and noise draws reach it.
func TestGoldenPVT(t *testing.T) {
	for _, tc := range []struct {
		name   string
		faulty bool
	}{{"pvt_ha8k192", false}, {"pvt_ha8k192_faults", true}} {
		t.Run(tc.name, func(t *testing.T) {
			pvt, err := GeneratePVT(context.Background(), goldenSystem(t, tc.faulty), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := pvt.Save(&buf); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tc.name, buf.Bytes())
		})
	}
}

// TestGoldenOraclePMT pins a VaPcOr *DGEMM table under faults: one
// two-frequency test pair per module, unreadable rows replaced.
func TestGoldenOraclePMT(t *testing.T) {
	sys := goldenSystem(t, true)
	fw, err := NewFrameworkWorkers(sys, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := sys.AllocateFirst(sys.NumModules())
	if err != nil {
		t.Fatal(err)
	}
	pmt, err := fw.BuildPMT(workload.DGEMM(), ids, VaPcOr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(pmt, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "pmt_vapcor_dgemm_faults", append(got, '\n'))
}
