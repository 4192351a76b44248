package main

import (
	"bytes"
	"fmt"
	"math"
	"sync"

	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/experiments"
)

// reproOptions is the small scale BenchmarkParallelSpeedup runs the
// Figure 7 pipeline at, with the workload seed as the experiment seed
// (0 selects the paper default) and the grid fanned out over GOMAXPROCS.
func reproOptions(seed uint64, workers int) experiments.Options {
	return experiments.Options{
		Seed: seed, HA8KModules: 192, CabSockets: 300, VulcanBoards: 12, TellerSockets: 48,
		Workers: workers,
	}
}

// reproduction runs EvaluationGrid and Figure7 once and returns the rendered
// Figure 7 table, VaFs's average speedup over Naive and the ID of the
// experiments.grid span (0 untraced).
func reproduction(o experiments.Options, sp spanRef) ([]byte, float64, int64, error) {
	gs := sp.child("experiments.grid")
	g, err := experiments.EvaluationGrid(o)
	gs.end()
	if err != nil {
		return nil, 0, 0, err
	}
	fs := sp.child("experiments.figure7")
	f7, err := experiments.Figure7(g)
	fs.end()
	if err != nil {
		return nil, 0, 0, err
	}
	var buf bytes.Buffer
	if err := experiments.RenderFigure7(&buf, f7); err != nil {
		return nil, 0, 0, err
	}
	return buf.Bytes(), f7.Avg[core.VaFs], gs.id, nil
}

// reproducer is the reproduce workload's harness: the paper pipeline run
// offline, no HTTP.
type reproducer struct {
	seed uint64

	mu    sync.Mutex
	first []byte // the first reproduction's Figure 7 table
	vafs  float64
	// grids maps a traced op to its experiments.grid span, for replay.
	grids map[int64]int64
}

func setupReproduce(seed uint64) (*reproducer, error) {
	r := &reproducer{seed: seed, grids: make(map[int64]int64)}
	// One reproduction lets first-use costs finish before timing; it also
	// fixes the Figure 7 table every timed reproduction must match.
	if err := r.prepare(-1)(spanRef{}); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *reproducer) begin() {}

func (r *reproducer) prepare(op int64) func(spanRef) error {
	return func(sp spanRef) error {
		table, vafs, grid, err := reproduction(reproOptions(r.seed, 0), sp)
		if err != nil {
			return err
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		if grid != 0 {
			r.grids[op] = grid
		}
		if r.first == nil {
			r.first, r.vafs = table, vafs
			return nil
		}
		if !bytes.Equal(table, r.first) {
			return fmt.Errorf("figure 7 differs between reproductions")
		}
		return nil
	}
}

// replay repeats the grid's install-time step, building the HA8K system
// and generating its PVT, under the op's experiments.grid span.
func (r *reproducer) replay(op int64, sp spanRef) error {
	o := reproOptions(r.seed, 0)
	if o.Seed == 0 {
		o.Seed = servingSeed
	}
	r.mu.Lock()
	parent := spanRef{tr: sp.tr, op: op, id: r.grids[op]}
	delete(r.grids, op)
	r.mu.Unlock()
	b := parent.child("cluster.build")
	sys, err := cluster.New(cluster.HA8K(), o.HA8KModules, o.Seed)
	b.end()
	if err != nil {
		return err
	}
	p := parent.child("core.pvt")
	_, err = core.NewFrameworkWorkers(sys, nil, o.Workers)
	p.end()
	return err
}

// check compares VaFs's average speedup with a serial (workers = 1)
// reproduction, which must be byte-identical, and with the value recorded
// for the seed when there is one.
func (r *reproducer) check() (int64, error) {
	table, vafs, _, err := reproduction(reproOptions(r.seed, 1), spanRef{})
	if err != nil {
		return 1, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !bytes.Equal(table, r.first) {
		return 1, fmt.Errorf("serial figure 7 differs from the parallel one")
	}
	if want, ok := recordedVaFs[r.seed]; ok && math.Abs(vafs-want) > 1e-9 {
		return 1, fmt.Errorf("VaFs average speedup %.12f, recorded %.12f for seed %d", vafs, want, r.seed)
	}
	return 0, nil
}

// windowMetrics reports the service's window figures as 0: a reproduction
// makes no request and runs no job.
func (r *reproducer) windowMetrics(m metrics, _ window) {
	for _, s := range perLayer {
		switch s.name {
		case "service.solve_hit_ratio", "service.solve_coalesced_ratio", "service.pmt_hit_ratio",
			"service.body_bytes", "service.polls_per_job", "attrib.samples_per_job", "service.heap_bytes_per_job":
			m.set(s.name, 0, s.unit)
		}
	}
}

func (r *reproducer) close() {}
