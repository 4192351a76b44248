package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"varpower/internal/core"
	"varpower/internal/service"
	"varpower/internal/workload"
)

// Request-mix constants. They are fixed across seeds, so every seed draws
// from the same stationary mix and only the realisation differs.
// Only the budget range comes from the paper; the shares are assumptions,
// listed in README.md until measured admission traffic replaces them.
const (
	// servedModules is varpowerd's default module count per system.
	servedModules = 192
	// servingSeed is varpowerd's default serving seed.
	servingSeed = 0x5c15

	// Per-module budget range: the paper's constrained regime, ~50–110 W
	// per module (96–211 kW over HA8K's 1,920 modules).
	minModuleW, maxModuleW = 50.0, 110.0
	// Jobs run the budget, so it must be feasible: below ~66 W per module
	// *STREAM has no frequency within it and the job fails by design.
	minJobW = 70.0
	// The hybrid preset's modules carry two K20X boards each as well, so
	// its per-module budgets sit higher.
	minHybridW, maxHybridW = 300.0, 560.0

	// zipfS skews class popularity: the most popular of the 42 classes
	// draws about a fifth of the requests.
	zipfS = 1.1
	// repeatShare of admit requests repeat an already issued request (a
	// solve-cache hit); the rest carry a fresh budget (a solve-cache miss
	// whose PMT is cached).
	repeatShare = 0.8
	// repeatWindow is how many recent distinct requests a repeat draws
	// from. It is far below the solve cache's 4096 entries, so a repeat
	// is never evicted before it is asked again.
	repeatWindow = 512
	// hybridShare of fresh admit requests target HA8K-hybrid, whose
	// hierarchical CPU+GPU solve has no PMT cache.
	hybridShare = 0.05
	// faultShare of cold requests name the "low" fault level.
	faultShare = 0.25
)

// class is one (workload, scheme) request class.
type class struct{ workload, scheme string }

// classes lists the 7 workloads × 6 schemes in a fixed popularity order.
func classes() []class {
	var out []class
	for _, s := range core.AllSchemes() {
		for _, b := range workload.All() {
			out = append(out, class{b.Name, s.String()})
		}
	}
	return out
}

// request is one generated operation input.
type request struct {
	req  service.SolveRequest
	body []byte
	// key is the request's identity: equal keys must get equal bodies.
	key string
	// repeat marks an admit request that repeats an issued one.
	repeat bool
	// mustMiss marks a request no earlier one can have answered: its
	// response must be a cache miss. (A fresh admit request is not one: a
	// repeat of it drawn right after can reach the server first.)
	mustMiss bool
}

func newRequest(r service.SolveRequest, mustMiss bool) request {
	body, err := json.Marshal(r)
	if err != nil {
		panic(err) // a SolveRequest always marshals
	}
	key := fmt.Sprintf("%s|%s|%s|%.3f|%d|%s", r.System, r.Workload, r.Scheme, r.BudgetWatts, r.Seed, r.Faults)
	return request{req: r, body: body, key: key, mustMiss: mustMiss}
}

// generator draws a workload's request sequence from its seed. It is not
// safe for concurrent use; the load loop serialises calls.
type generator struct {
	kind    string
	seed    uint64
	rng     *rand.Rand
	zipf    *rand.Zipf
	classes []class
	n       int64

	// admit: the recent distinct requests repeats draw from, and every
	// issued identity (fresh budgets are redrawn until new).
	recent []request
	issued map[string]bool

	// cold: the phase the next cold seeds belong to.
	phase uint64
}

func newGenerator(kind string, seed uint64) *generator {
	h := fnv.New64a()
	h.Write([]byte(kind))
	rng := rand.New(rand.NewSource(int64(mix64(seed ^ h.Sum64()))))
	cs := classes()
	return &generator{
		kind: kind, seed: seed, rng: rng, classes: cs,
		zipf:   rand.NewZipf(rng, zipfS, 1, uint64(len(cs)-1)),
		issued: make(map[string]bool),
	}
}

// setPhase makes the following cold requests draw their seeds from phase p.
func (g *generator) setPhase(p uint64) { g.phase = p }

// next returns the sequence's next request.
func (g *generator) next() request {
	i := g.n
	g.n++
	c := g.classes[g.zipf.Uint64()]
	r := service.SolveRequest{System: "HA8K", Workload: c.workload, Scheme: c.scheme}
	switch g.kind {
	case "admit":
		if len(g.recent) > 0 && g.rng.Float64() < repeatShare {
			rep := g.recent[g.rng.Intn(len(g.recent))]
			rep.repeat = true
			return rep
		}
		lo, hi := minModuleW, maxModuleW
		if g.rng.Float64() < hybridShare {
			r.System = "HA8K-hybrid"
			lo, hi = minHybridW, maxHybridW
		}
		var req request
		for {
			r.BudgetWatts = g.budget(lo, hi)
			req = newRequest(r, false)
			if !g.issued[req.key] {
				break
			}
		}
		g.issued[req.key] = true
		if len(g.recent) < repeatWindow {
			g.recent = append(g.recent, req)
		} else {
			g.recent[int(i)%repeatWindow] = req
		}
		return req
	case "cold":
		r.BudgetWatts = g.budget(minModuleW, maxModuleW)
		r.Seed = coldSeed(g.seed, g.phase, uint64(i))
		if g.rng.Float64() < faultShare {
			r.Faults = "low"
		}
		return newRequest(r, true)
	default: // jobs
		r.BudgetWatts = g.budget(minJobW, maxModuleW)
		return newRequest(r, false)
	}
}

// budget draws a whole-system budget for the served module count, rounded
// to a milliwatt.
func (g *generator) budget(lo, hi float64) float64 {
	w := servedModules * (lo + (hi-lo)*g.rng.Float64())
	return float64(int64(w*1000)) / 1000
}

// coldSeed derives a cold request's system seed from the workload seed, the
// phase of the run (each set-up repetition, the timed window and the layer
// probes have their own) and the request index. For one workload seed the
// map from (phase, index) is injective for phase < 2^23 and index < 2^40,
// and the top bit keeps every seed clear of the serving seed, so no cold
// request can hit a cache entry another one left.
func coldSeed(workloadSeed, phase, index uint64) uint64 {
	return 1<<63 | ((phase<<40 | index) ^ (mix64(workloadSeed) >> 1))
}

// mix64 is the splitmix64 finaliser, a bijection on uint64.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
