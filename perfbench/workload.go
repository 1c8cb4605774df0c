package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	hanccr "repro"
)

// families are the four Pegasus-like generators every workload draws
// from, always in equal shares so that a seed changes which workflows
// are planned but not the mix of families and sizes.
var families = []string{"montage", "ligo", "genome", "cybershake"}

// storeSizes are the task counts of the pipeline structures: one
// small, two medium and one large size per family.
var storeSizes = []int{100, 300, 300, 1000}

// request is one HTTP request of a workload's stream.
type request struct {
	path string // /v1/plan, /v1/estimate or /v1/simulate
	kind string // plan, estimate:<method>, simulate, or new/variant for pipeline plans
	body []byte
	sreq hanccr.ScenarioRequest
	// method, trials: the estimator and its Monte Carlo trial count
	// (estimate) or the simulation trial count (simulate).
	method string
	trials int
}

// workload is one named traffic mix.
type workload struct {
	name string
	// rate is the open-loop arrival rate in requests per second.
	rate float64
	// boots is how many times a run sets the processes up; setup_s is
	// their median.
	boots int
	// block is the number of consecutive requests over which a run
	// takes each latency quantile and CPU per request; the reported
	// figures are medians over the calmer half of the window's blocks.
	// It spans one to four seconds and a whole number of the stream's
	// mix cycles.
	block int
	// store boots serve with -store over an empty directory.
	store bool
	// inputs builds the workload's scenarios and request stream from
	// the benchmark seed; n is the number of stream requests.
	inputs func(rng *rand.Rand, n int) inputs
}

// inputs are everything a run sends or loads, derived from the seed.
type inputs struct {
	// warm is the -warm replay log.
	warm []hanccr.ScenarioRequest
	// prewarm requests are sent once before the window (not timed) so
	// that one-time per-plan work does not land in the measured tail.
	prewarm []request
	stream  []request
}

// workloads: each rate keeps the servers near a quarter of one core.
var workloads = []*workload{
	// The cache-hit path of one serve (decode, Scenario.Key, LRU,
	// PathApprox, encode); planner and store stay idle.
	{name: "hot", rate: 400, boots: 8, block: 400, inputs: hotInputs},
	// Planner, estimators and simulator at request time, every new plan
	// written to the store. A block is one full cycle of its mix: each
	// request kind over the 16 family x size classes.
	{name: "pipeline", rate: 40, boots: 8, block: 160, store: true, inputs: pipelineInputs},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func scenario(rng *rand.Rand, family string, tasks int, seed int64) hanccr.ScenarioRequest {
	pfail := []float64{0.0005, 0.001, 0.002, 0.005}[rng.Intn(4)]
	// A continuous CCR keeps every parameter variant a distinct scenario.
	ccr := 0.01 + 0.49*rng.Float64()
	return hanccr.ScenarioRequest{
		Family: family, Tasks: tasks, Procs: 35,
		PFail: &pfail, CCR: &ccr, Seed: &seed,
	}
}

// variant keeps sr's structure (family, tasks, procs, seed) and draws
// new failure and communication parameters.
func variant(rng *rand.Rand, sr hanccr.ScenarioRequest) hanccr.ScenarioRequest {
	return scenario(rng, sr.Family, sr.Tasks, *sr.Seed)
}

func newSeed(rng *rand.Rand) int64 { return 1 + rng.Int63n(1<<40) }

func planRequest(sr hanccr.ScenarioRequest) request {
	return request{path: "/v1/plan", kind: "plan", body: mustJSON(sr), sreq: sr}
}

func estimateRequest(sr hanccr.ScenarioRequest, method string, trials int) request {
	body := mustJSON(hanccr.EstimateRequest{ScenarioRequest: sr, Method: method, MCTrials: trials, Workers: 1})
	return request{path: "/v1/estimate", kind: "estimate:" + method, body: body, sreq: sr, method: method, trials: trials}
}

func simulateRequest(sr hanccr.ScenarioRequest, trials int) request {
	body := mustJSON(hanccr.SimulateRequest{ScenarioRequest: sr, Trials: trials, Workers: 1})
	return request{path: "/v1/simulate", kind: "simulate", body: body, sreq: sr, trials: trials}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire types always marshal
	}
	return b
}

// hotInputs: 64 scenarios of 300 tasks on 35 processors, 16 per
// family, requested with Zipf(1.1) popularity. Rank r is always a
// scenario of family r mod 4, so every seed has the same family shares.
// Requests alternate /v1/plan and a PathApprox /v1/estimate.
func hotInputs(rng *rand.Rand, n int) inputs {
	var in inputs
	for i := 0; i < 64; i++ {
		in.warm = append(in.warm, scenario(rng, families[i%4], 300, newSeed(rng)))
	}
	for _, sr := range in.warm {
		in.prewarm = append(in.prewarm, estimateRequest(sr, string(hanccr.PathApprox), 0))
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(in.warm)-1))
	for i := 0; i < n; i++ {
		sr := in.warm[zipf.Uint64()]
		if i%2 == 0 {
			in.stream = append(in.stream, planRequest(sr))
		} else {
			in.stream = append(in.stream, estimateRequest(sr, string(hanccr.PathApprox), 0))
		}
	}
	return in
}

// pipelineInputs: 32 warm structures (two per family and size), then
// blocks of ten requests in a seed-shuffled order: three new
// structures, three parameter variants of recent structures (the
// structure-hit path), a Dodin, a Monte Carlo (1000 trials) and a
// Normal estimate of recent scenarios, and a 200-trial simulation.
// Each request kind cycles through the 16 family x size classes, so
// every seed plans, estimates and simulates the same class mix.
func pipelineInputs(rng *rand.Rand, n int) inputs {
	var in inputs
	type class struct {
		family string
		tasks  int
	}
	var classes []class
	for _, fam := range families {
		for _, tasks := range storeSizes {
			classes = append(classes, class{fam, tasks})
		}
	}
	// latest[c] is the most recently planned scenario of class c.
	latest := make([]hanccr.ScenarioRequest, len(classes))
	for round := 0; round < 2; round++ {
		for c, cl := range classes {
			latest[c] = scenario(rng, cl.family, cl.tasks, newSeed(rng))
			in.warm = append(in.warm, latest[c])
		}
	}
	// Each kind walks its own seed-shuffled permutation of the classes.
	cursors := map[string][]int{}
	next := func(kind string) int {
		if len(cursors[kind]) == 0 {
			cursors[kind] = rng.Perm(len(classes))
		}
		c := cursors[kind][0]
		cursors[kind] = cursors[kind][1:]
		return c
	}
	kinds := []string{"new", "new", "new", "variant", "variant", "variant",
		"Dodin", "MonteCarlo", "Normal", "simulate"}
	for len(in.stream) < n {
		for _, i := range rng.Perm(len(kinds)) {
			kind := kinds[i]
			c := next(kind)
			switch kind {
			case "new":
				latest[c] = scenario(rng, classes[c].family, classes[c].tasks, newSeed(rng))
				r := planRequest(latest[c])
				r.kind = "plan:new"
				in.stream = append(in.stream, r)
			case "variant":
				latest[c] = variant(rng, latest[c])
				r := planRequest(latest[c])
				r.kind = "plan:variant"
				in.stream = append(in.stream, r)
			case "simulate":
				in.stream = append(in.stream, simulateRequest(latest[c], 200))
			case "MonteCarlo":
				in.stream = append(in.stream, estimateRequest(latest[c], kind, 1000))
			default:
				in.stream = append(in.stream, estimateRequest(latest[c], kind, 0))
			}
		}
	}
	in.stream = in.stream[:n]
	return in
}
