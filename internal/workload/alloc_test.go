package workload

import (
	"testing"

	"varpower/internal/simmpi"
	"varpower/internal/units"
)

// The budgets below are explicit failing bounds, not measurements: programs
// pre-box their per-rank ops at build time, so serving rounds is
// allocation-free, and a whole DES run allocates only its result and one
// scratch slice. A regression that reintroduces per-round boxing (the old
// 36%-of-all-allocations hot spot) trips these immediately.

// TestRoundAllocBudget: Program.Round must return pre-built ops for every
// communication pattern — zero allocations per round, any rank, any phase.
func TestRoundAllocBudget(t *testing.T) {
	for _, b := range []*Benchmark{DGEMM(), MHD(), MVMC(), EP()} {
		prog, err := b.Program(64, 42)
		if err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(100, func() {
			for r := 0; r < 4; r++ {
				for rank := 0; rank < 64; rank++ {
					_ = prog.Round(rank, r)
				}
			}
		})
		if avg != 0 {
			t.Errorf("%s: %.1f allocs per 256 Round calls, budget 0", b.Name, avg)
		}
	}
}

// TestCollectiveRunAllocBudget: one full simmpi run — every compute round,
// halo exchange or collective, and the finalize barrier — must stay within
// a fixed handful of allocations (the per-rank result slice and the
// runtime's arrival snapshot), independent of round count.
func TestCollectiveRunAllocBudget(t *testing.T) {
	model := simmpi.ModelFunc(func(rank int, cycles, bytes float64) units.Seconds {
		return units.Seconds(cycles / 2.7e9)
	})
	for _, b := range []*Benchmark{MHD(), MVMC(), EP()} {
		prog, err := b.Program(64, 42)
		if err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(20, func() {
			if _, err := simmpi.Run(prog, 64, model, simmpi.DefaultNetwork, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 8 {
			t.Errorf("%s: %.1f allocs per run, budget 8", b.Name, avg)
		}
	}
}
