package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"varpower/internal/attrib"
	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/measure"
	"varpower/internal/units"
	"varpower/internal/workload"
)

// Probe sizes: each layer is timed this many times and the median kept.
const (
	probeBuilds   = 5    // cluster.New, PVT generation, BuildPMT, runs
	probeFast     = 200  // core.Solve, Collector.ObserveRun
	probeTestRuns = 50   // measure.TestRun
	probeGrids    = 2    // EvaluationGrid + Figure7
	probeHandler  = 2000 // in-process solve requests per server
	probeLoopback = 1000 // loopback solve requests
	probeJobs     = 20   // submitted jobs
)

// probePhase is the cold-seed phase of the layer probes, apart from every
// set-up repetition's.
const probePhase = 1 << 20

// probeLayers times every layer of the ladder in isolation, through its
// public functions, on fixed inputs: HA8K and HA8K-hybrid at the served
// module count, DGEMM under VaPc at 80 W per module, and the admit request
// mix for the service layer. The probes do not depend on the workload, so
// every traced run reports the same ladder; only the seed varies the
// systems' draws and the request sequence.
func probeLayers(seed uint64, m metrics) error {
	spec := cluster.HA8K()
	bench := workload.DGEMM()
	scheme := core.VaPc
	budget := units.Watts(servedModules * 80)

	var build, pvt, pmtT, solve, testrun []time.Duration
	for k := 0; k < probeBuilds; k++ {
		t := time.Now()
		sys, err := cluster.New(spec, servedModules, coldSeed(seed, probePhase, uint64(k)))
		build = append(build, time.Since(t))
		if err != nil {
			return err
		}
		t = time.Now()
		fw, err := core.NewFrameworkWorkers(sys, nil, 0)
		pvt = append(pvt, time.Since(t))
		if err != nil {
			return err
		}
		ids, err := sys.AllocateFirst(servedModules)
		if err != nil {
			return err
		}
		t = time.Now()
		pmt, err := fw.BuildPMT(bench, ids, scheme)
		pmtT = append(pmtT, time.Since(t))
		if err != nil {
			return err
		}
		for j := 0; j < probeFast/probeBuilds; j++ {
			t = time.Now()
			_, err := core.Solve(pmt, spec.Arch, budget)
			solve = append(solve, time.Since(t))
			if err != nil {
				return err
			}
		}
		for j := 0; j < probeTestRuns/probeBuilds; j++ {
			t = time.Now()
			_, err := measure.TestRun(sys, workload.PVTMicrobenchmark(), ids[j], spec.Arch.FNom)
			testrun = append(testrun, time.Since(t))
			if err != nil {
				return err
			}
		}
	}
	m.set("cluster.build_ms", medianDur(build, time.Millisecond), "ms")
	m.set("core.pvt_ms", medianDur(pvt, time.Millisecond), "ms")
	m.set("core.pmt_ms", medianDur(pmtT, time.Millisecond), "ms")
	m.set("core.solve_us", medianDur(solve, time.Microsecond), "us")
	m.set("measure.testrun_us", medianDur(testrun, time.Microsecond), "us")

	if err := probeRuns(spec, bench, scheme, budget, m); err != nil {
		return err
	}
	if err := probeHetero(bench, scheme, m); err != nil {
		return err
	}
	if err := probeExperiments(seed, m); err != nil {
		return err
	}
	return probeService(seed, m)
}

// probeRuns times a job's executor work on pooled replicas of the serving
// system: Framework.Run, a bare measure.Run, and the attribution
// collector's ingestion of one run.
func probeRuns(spec cluster.Spec, bench *workload.Benchmark, scheme core.Scheme, budget units.Watts, m metrics) error {
	sys, err := cluster.New(spec, servedModules, servingSeed)
	if err != nil {
		return err
	}
	fw, err := core.NewFrameworkWorkers(sys, nil, 0)
	if err != nil {
		return err
	}
	pool := core.NewReplicaPool(fw)
	ids, err := sys.AllocateFirst(servedModules)
	if err != nil {
		return err
	}
	freqs := make([]units.Hertz, len(ids))
	for i := range freqs {
		freqs[i] = spec.Arch.FNom
	}
	var runs, mruns, observe []time.Duration
	var last measure.Result
	for k := 0; k < probeBuilds; k++ {
		r := pool.Get()
		t := time.Now()
		_, err := r.Run(bench, ids, budget, scheme)
		runs = append(runs, time.Since(t))
		pool.Put(r)
		if err != nil {
			return err
		}
		r = pool.Get()
		t = time.Now()
		last, err = measure.Run(r.Sys, measure.Config{Bench: bench, Modules: ids, Mode: measure.ModePinned, Freqs: freqs})
		mruns = append(mruns, time.Since(t))
		pool.Put(r)
		if err != nil {
			return err
		}
	}
	obs := observation(sys, bench, last)
	c := attrib.New(attrib.Config{})
	for k := 0; k < probeFast; k++ {
		t := time.Now()
		c.ObserveRun(obs)
		observe = append(observe, time.Since(t))
	}
	m.set("core.run_ms", medianDur(runs, time.Millisecond), "ms")
	m.set("measure.run_ms", medianDur(mruns, time.Millisecond), "ms")
	m.set("attrib.observe_us", medianDur(observe, time.Microsecond), "us")
	return nil
}

// observation turns a measured run into the collector's input, every rank
// trusted and matching its expectation (the collector's healthy case).
func observation(sys *cluster.System, bench *workload.Benchmark, res measure.Result) attrib.RunObservation {
	o := attrib.RunObservation{Workload: bench.Name, Elapsed: res.Elapsed, Ranks: make([]attrib.RankObservation, len(res.Ranks))}
	for i, r := range res.Ranks {
		e := r.PkgEnergy + r.DramEnergy
		o.Ranks[i] = attrib.RankObservation{
			Rank: i, Module: r.ModuleID, Busy: r.Busy, Wait: r.Wait,
			MeasuredJ: e, ExpectedJ: e, BusyShare: 1,
			IdleFloorW: sys.Module(r.ModuleID).IdleFloor(),
		}
	}
	return o
}

// probeHetero times the hierarchical CPU+GPU solve on HA8K-hybrid.
func probeHetero(bench *workload.Benchmark, scheme core.Scheme, m metrics) error {
	sys, err := cluster.New(cluster.HA8KHybrid(), servedModules, servingSeed)
	if err != nil {
		return err
	}
	fw, err := core.NewFrameworkWorkers(sys, nil, 0)
	if err != nil {
		return err
	}
	gpvt, err := core.GenerateGPUPVT(context.Background(), sys, 0)
	if err != nil {
		return err
	}
	hf := &core.HeteroFramework{Framework: fw, GPVT: gpvt}
	ids, err := sys.AllocateFirst(servedModules)
	if err != nil {
		return err
	}
	devs := hf.AllDevices()
	var solve []time.Duration
	for k := 0; k < probeBuilds; k++ {
		t := time.Now()
		_, _, _, err := hf.SolveHetero(bench, ids, devs, units.Watts(servedModules*430), scheme, core.SplitGreedy)
		solve = append(solve, time.Since(t))
		if err != nil {
			return err
		}
	}
	m.set("core.hetero_solve_us", medianDur(solve, time.Microsecond), "us")
	return nil
}

// probeExperiments times EvaluationGrid and Figure7 at the reproduce
// workload's scale.
func probeExperiments(seed uint64, m metrics) error {
	tr := newTracer()
	for k := 0; k < probeGrids; k++ {
		if _, _, _, err := reproduction(reproOptions(seed, 0), tr.root(int64(k), "op")); err != nil {
			return err
		}
	}
	byName := make(map[string][]time.Duration)
	for _, s := range tr.cut().Spans {
		byName[s.Name] = append(byName[s.Name], s.dur())
	}
	m.set("experiments.grid_ms", medianDur(byName["experiments.grid"], time.Millisecond), "ms")
	m.set("experiments.figure7_ms", medianDur(byName["experiments.figure7"], time.Millisecond), "ms")
	return nil
}

// probeService times the service layer on the admit mix: the in-process
// handler (ServeHTTP into a recorder, no socket) with request tracing on
// and off, the loopback transport around it, and a job submission.
func probeService(seed uint64, m metrics) error {
	tr := newTracer()
	// Two servers set up alike, so every request meets the same cache
	// state on both.
	on, err := setupServed("admit", seed, probePhase, tr, true)
	if err != nil {
		return err
	}
	defer on.close()
	off, err := setupServed("admit", seed, probePhase, nil, false)
	if err != nil {
		return err
	}
	defer off.close()
	serve := func(h http.Handler, rq request) (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(rq.body))
		rec := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t)
		if rec.Code != http.StatusOK {
			return d, fmt.Errorf("solve %s: status %d", rq.key, rec.Code)
		}
		return d, nil
	}
	// Both servers answer every request; which goes first alternates.
	handlers := [2]http.Handler{on.srv.Handler(), off.srv.Handler()}
	var times [2][]time.Duration
	for j := 0; j < probeHandler; j++ {
		rq := on.gen.next()
		for k := 0; k < 2; k++ {
			i := (j + k) % 2
			d, err := serve(handlers[i], rq)
			if err != nil {
				return err
			}
			times[i] = append(times[i], d)
		}
	}
	onD, offD := times[0], times[1]
	onUs := medianDur(onD, time.Microsecond)
	m.set("service.handler_us", onUs, "us")
	m.set("obs.overhead_us", onUs-medianDur(offD, time.Microsecond), "us")

	ops := make(map[int64]bool)
	for j := int64(0); j < probeLoopback; j++ {
		sp := tr.root(j, "op")
		err := on.prepare(j)(sp)
		sp.end()
		if err != nil {
			return err
		}
		ops[j] = true
	}
	m.set("http.transport_us", float64(layerSelfTimes(tr.cut().Spans, ops)["http.roundtrip"])/float64(time.Microsecond), "us")

	jobs, err := setupServed("jobs", seed, probePhase, tr, true)
	if err != nil {
		return err
	}
	defer jobs.close()
	var submit []time.Duration
	for j := int64(0); j < probeJobs; j++ {
		sp := tr.root(probeLoopback+j, "op")
		err := jobs.prepare(-1)(sp)
		sp.end()
		if err != nil {
			return err
		}
	}
	for _, s := range tr.cut().Spans {
		if s.Name == "http.submit" {
			submit = append(submit, s.dur())
		}
	}
	m.set("service.submit_us", medianDur(submit, time.Microsecond), "us")
	return nil
}
