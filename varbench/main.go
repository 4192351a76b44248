// Command varbench is varpower's benchmark: one process that loads an
// in-process varpowerd (service.Server with the daemon's defaults) over HTTP
// loopback, or runs the paper pipeline directly, in a closed loop, and
// reports end-to-end and per-layer metrics. See README.md.
//
//	bash varbench/run.sh --workload admit --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"varpower/internal/telemetry"
)

// setupReps is how many times a run sets its workload up; setup_s is the
// median of their corrected times (the host's speed and steal), and the
// last instance is the one measured.
const setupReps = 5

// spansDir is where traced runs write their spans, inside the checkout.
var spansDir = filepath.Join(".bench_build", "varbench", "spans")

// decomposeOps is how many ops a traced run decomposes, per workload, after
// its timed window.
var decomposeOps = map[string]int64{"admit": 2000, "cold": 200, "jobs": 60, "reproduce": 3}

// workloadDef is one benchmark workload (BENCHMARK.json says why each
// exists).
type workloadDef struct {
	name string
	// clients is the number of request goroutines in the closed loop.
	clients int
	setup   func(seed uint64, rep int, tr *tracer) (harness, error)
}

func servedSetup(kind string) func(uint64, int, *tracer) (harness, error) {
	return func(seed uint64, rep int, tr *tracer) (harness, error) {
		return setupServed(kind, seed, rep, tr, true)
	}
}

var workloads = []workloadDef{
	{"admit", 1, servedSetup("admit")},
	{"cold", 2, servedSetup("cold")},
	{"jobs", 2, servedSetup("jobs")},
	{"reproduce", 1, func(seed uint64, _ int, _ *tracer) (harness, error) { return setupReproduce(seed) }},
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics of the untraced run (--trace 0). The record
// line also carries the uncorrected throughput, median latency and CPU per
// op and the latency tail, which are too exposed to the host to gate on.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_inuse_mb", "MiB"},
}

// selfLayers are the span names whose self times the traced run reports.
var selfLayers = []string{
	"op", "http.roundtrip", "http.submit", "http.poll", "service.handler",
	"cluster.build", "core.pvt", "core.pmt", "core.solve", "core.run",
	"experiments.grid", "experiments.figure7",
}

// perLayer are the metrics of the traced run (--trace 1).
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"service.handler_us", "us"},
		{"http.transport_us", "us"},
		{"service.solve_hit_ratio", "ratio"},
		{"service.solve_coalesced_ratio", "ratio"},
		{"service.pmt_hit_ratio", "ratio"},
		{"service.body_bytes", "bytes"},
		{"obs.overhead_us", "us"},
		{"core.solve_us", "us"},
		{"core.hetero_solve_us", "us"},
		{"cluster.build_ms", "ms"},
		{"core.pvt_ms", "ms"},
		{"measure.testrun_us", "us"},
		{"core.pmt_ms", "ms"},
		{"measure.runs_per_op", "count"},
		{"mpi.rounds_per_op", "count"},
		{"rapl.limit_writes_per_op", "count"},
		{"fault.injected_per_op", "count"},
		{"parallel.tasks_per_op", "count"},
		{"telemetry.spans_per_op", "count"},
		{"service.submit_us", "us"},
		{"service.polls_per_job", "count"},
		{"core.run_ms", "ms"},
		{"measure.run_ms", "ms"},
		{"attrib.samples_per_job", "count"},
		{"attrib.observe_us", "us"},
		{"service.heap_bytes_per_job", "bytes"},
		{"experiments.grid_ms", "ms"},
		{"experiments.figure7_ms", "ms"},
		{"parallel.busy_share", "ratio"},
		{"core.solve_error_ratio", "ratio"},
		{"trace.latency_p50_ms", "ms"},
		{"trace.self_sum_ms", "ms"},
	}
	for _, l := range selfLayers {
		specs = append(specs, metricSpec{"self." + l + "_ms", "ms"})
	}
	return specs
}()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// pick returns the metrics named in specs, failing on a missing one.
func (m metrics) pick(specs []metricSpec) (metrics, error) {
	out := make(metrics, len(specs))
	for _, s := range specs {
		v, ok := m[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		if v.Unit != s.unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", s.name, v.Unit, s.unit)
		}
		out[s.name] = v
	}
	return out, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// record is the line before it: the same run with its metadata and every
// metric it measured.
type record struct {
	Workload       string      `json:"workload"`
	Seed           uint64      `json:"seed"`
	Trace          bool        `json:"trace"`
	Seconds        int         `json:"seconds"`
	Clients        int         `json:"clients"`
	Machine        machineMeta `json:"machine"`
	Samples        int         `json:"samples"`
	TailPercentile float64     `json:"tail_percentile"`
	Segments       []segment   `json:"segments"`
	// StealShare is the share of the window's CPU time the hypervisor gave
	// to other guests (-1 unknown): a run with a high share measured a busy
	// host, not the program.
	StealShare float64 `json:"steal_share"`
	// ErrorRate is every failed op over attempted ops, the known defect's
	// failures included; KnownDefectFailures counts those (README.md).
	ErrorRate           float64 `json:"error_rate"`
	KnownDefectFailures int64   `json:"known_defect_failures"`
	FirstError          string  `json:"first_error,omitempty"`
	// SetupSeconds are the measured set-up times, SetupSteal the steal
	// share over each (-1 unknown) and SetupRefUs the reference kernel's
	// median time over all of them; setup_s is the median of their
	// corrected times.
	SetupSeconds []float64 `json:"setup_samples_s"`
	SetupSteal   []float64 `json:"setup_steal"`
	SetupRefUs   float64   `json:"setup_ref_us"`
	// SpansDropped counts the traced window's spans the tracer overwrote.
	SpansDropped int     `json:"spans_dropped"`
	SpansFile    string  `json:"spans_file,omitempty"`
	Metrics      metrics `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("varbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: admit, cold, jobs or reproduce")
	seed := fs.Uint64("seed", 0, "workload seed")
	seconds := fs.Int("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "varbench: need --workload admit|cold|jobs|reproduce, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	rec, res, err := bench(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "varbench: %v\n", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]record{"record": rec}); err != nil {
		fmt.Fprintf(stderr, "varbench: %v\n", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintf(stderr, "varbench: %v\n", err)
		return 1
	}
	return 0
}

// bench runs one workload: set-up (repeated), the timed closed-loop window,
// the correctness checks and, when traced, the decomposition and the layer
// probes.
func bench(wl *workloadDef, seed uint64, length time.Duration, traced bool) (record, result, error) {
	rec := record{
		Workload: wl.name, Seed: seed, Trace: traced, Seconds: int(length / time.Second),
		Clients: wl.clients, Machine: collectMeta(),
	}
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var h harness
	var setup, setupRefs []float64
	for rep := 0; rep < setupReps; rep++ {
		if h != nil {
			h.close()
		}
		smp := startSampler(time.Now())
		t := time.Now()
		var err error
		if h, err = wl.setup(seed, rep, tr); err != nil {
			smp.stop()
			return rec, result{}, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		secs := time.Since(t).Seconds()
		samples := smp.stop()
		for _, s := range samples {
			if s.ref > 0 {
				setupRefs = append(setupRefs, float64(s.ref))
			}
		}
		steal := stealShare(samples[0], samples[len(samples)-1])
		rec.SetupSeconds = append(rec.SetupSeconds, secs)
		rec.SetupSteal = append(rec.SetupSteal, steal)
		setup = append(setup, secs*(1-math.Min(math.Max(steal, 0), maxSteal)))
	}
	defer h.close()

	// The set-ups share one host speed: one set-up takes too few samples
	// of the reference kernel to fix its own.
	setupRef := time.Duration(median(setupRefs))
	rec.SetupRefUs = float64(setupRef) / float64(time.Microsecond)
	m := make(metrics)
	m.set("setup_s", median(setup)*refScale(setupRef), "s")
	heap0, spans0 := heapInuse(), tr.bytes()
	h.begin()
	c0 := gatherCounters()
	src := &opSource{h: h}
	start := time.Now()
	smp := startSampler(start)
	lr := runLoop(src, wl.clients, start, start.Add(length), 0, tr, false)
	samples := smp.stop()
	rec.StealShare = stealShare(samples[0], samples[len(samples)-1])
	c1 := gatherCounters()
	heap1, spans1 := heapInuse(), tr.bytes()

	ops := int64(len(lr.ops))
	if ops == 0 {
		return rec, result{}, errors.New("no operation completed in the timed window")
	}
	lat := make([]float64, len(lr.ops))
	for i, o := range lr.ops {
		lat[i] = float64(o.latency) / float64(time.Millisecond)
	}
	tailMs, tailPct := tail(lat)
	seg := segmented(lr.ops, samples, length)
	rec.Samples, rec.TailPercentile, rec.Segments = len(lat), tailPct, seg.segs
	m.set("ops_per_s", seg.opsPerS, "1/s")
	m.set("latency_p50_ms", seg.p50Ms, "ms")
	m.set("latency_tail_ms", tailMs, "ms")
	m.set("wall_ops_per_s", seg.wallOpsPerS, "1/s")
	m.set("wall_latency_p50_ms", seg.wallP50, "ms")
	m.set("cpu_ms_per_op", seg.cpuMsPerOp, "ms")
	m.set("measured_cpu_ms_per_op", seg.measuredCPUMsPerOp, "ms")
	m.set("ref_us", seg.refUs, "us")
	m.set("alloc_kb_per_op", seg.allocKBPerOp, "KiB")
	m.set("heap_inuse_mb", float64(heap1)/(1<<20), "MiB")

	attempted, failed, defects, firstErr := ops, lr.failed, lr.defects, lr.firstErr
	if traced {
		d := deltaOf(c0, c1, lr.elapsed)
		windowCounters(m, d, ops)
		// The benchmark's own spans are not the program's heap.
		h.windowMetrics(m, window{delta: d, heapGrowth: float64(heap1) - float64(heap0) - (spans1 - spans0)})
		m.set("core.solve_error_ratio", float64(lr.defects)/float64(ops), "ratio")
		m.set("trace.latency_p50_ms", seg.p50Ms, "ms")

		// The decomposition records into a store of its own, so however
		// many spans the window left, none of its spans is overwritten.
		win := tr.cut()
		rec.SpansDropped = win.Dropped
		dsmp := startSampler(time.Now())
		dr := runLoop(src, wl.clients, time.Now(), time.Time{}, decomposeOps[wl.name], tr, true)
		dsamples := dsmp.stop()
		dref := refOver(dsamples, -1, dsamples[len(dsamples)-1].at)
		m.set("decompose_ref_us", float64(dref)/float64(time.Microsecond), "us")
		attempted += int64(len(dr.ops))
		failed += dr.failed
		defects += dr.defects
		if firstErr == nil {
			firstErr = dr.firstErr
		}
		dec := tr.cut()
		if dec.Dropped > 0 {
			return rec, result{}, fmt.Errorf("the decomposition dropped %d of its spans", dec.Dropped)
		}
		// Self times are rescaled to the host's speed like the untraced
		// latency they add up to.
		self, scale := layerSelfTimes(dec.Spans, dr.ids), refScale(dref)
		sum := 0.0
		for _, l := range selfLayers {
			v := float64(self[l]) / float64(time.Millisecond) * scale
			sum += v
			m.set("self."+l+"_ms", v, "ms")
		}
		m.set("trace.self_sum_ms", sum, "ms")
		if err := probeLayers(seed, m); err != nil {
			return rec, result{}, fmt.Errorf("layer probes: %w", err)
		}
		rec.SpansFile = filepath.Join(spansDir, fmt.Sprintf("%s-%d.json", wl.name, seed))
		if err := writeSpans(rec.SpansFile, win, dec); err != nil {
			return rec, result{}, fmt.Errorf("write spans: %w", err)
		}
	}

	bad, err := h.check()
	failed += bad
	if firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		rec.FirstError = firstErr.Error()
	}
	rec.KnownDefectFailures = defects
	rec.ErrorRate = float64(failed+defects) / float64(attempted)
	rec.Metrics = m

	specs := endToEnd
	if traced {
		specs = perLayer
	}
	picked, err := m.pick(specs)
	if err != nil {
		return rec, result{}, err
	}
	return rec, result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: picked}, nil
}

// window summarises a traced run's timed window for the per-layer metrics.
type window struct {
	delta      counterDelta
	heapGrowth float64 // in-use heap after the window minus before, bytes
}

// windowCounters sets the per-op deltas of the program's telemetry
// families and the parallel engine's busy share.
func windowCounters(m metrics, d counterDelta, ops int64) {
	per := func(f string) float64 { return d.values[f] / float64(ops) }
	m.set("measure.runs_per_op", per("varpower_measure_runs_total"), "count")
	m.set("mpi.rounds_per_op", per("varpower_mpi_rounds_total"), "count")
	m.set("rapl.limit_writes_per_op", per("varpower_rapl_limit_writes_total"), "count")
	m.set("fault.injected_per_op", per("varpower_fault_injected_total"), "count")
	m.set("parallel.tasks_per_op", per("varpower_parallel_tasks_total"), "count")
	m.set("telemetry.spans_per_op", per(telemetry.PhaseDurationMetric), "count")
	m.set("parallel.busy_share", d.parallelSeconds/(d.elapsed.Seconds()*float64(runtime.GOMAXPROCS(0))), "ratio")
}
