package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	hanccr "repro"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/mspg"
	"repro/internal/pegasus"
	"repro/internal/platform"
	"repro/internal/sched"
)

// reference answers every distinct request of a stream with an
// in-process handler over a store-less Service: the bodies the
// servers' responses must equal byte for byte. It runs after every
// measurement, one worker per core; a body does not depend on the
// order in which the requests are answered.
func reference(ctx context.Context, stream []request) (map[string][]byte, error) {
	distinct := map[string]request{}
	for _, r := range stream {
		distinct[r.path+string(r.body)] = r
	}
	keys := make([]string, 0, len(distinct))
	for k := range distinct {
		keys = append(keys, k)
	}
	h := hanccr.NewHandler(hanccr.NewService(hanccr.WithCacheCapacity(len(distinct) + 64)))
	ref := make(map[string][]byte, len(distinct))
	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	errs := make([]error, runtime.GOMAXPROCS(0))
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(keys) && ctx.Err() == nil; i = int(next.Add(1)) - 1 {
				r := distinct[keys[i]]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
				if rec.Code != http.StatusOK {
					errs[w] = fmt.Errorf("reference %s %s: status %d: %s", r.path, r.body, rec.Code, rec.Body.Bytes())
					return
				}
				mu.Lock()
				ref[keys[i]] = rec.Body.Bytes()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(append(errs, ctx.Err())...); err != nil {
		return nil, err
	}
	return ref, nil
}

// replayResult is what one serial in-process replay produced.
type replayResult struct {
	bodies   [][]byte // handler-path response per stream request
	wall     time.Duration
	failed   int     // component path disagreeing with the handler path
	checked  int     // cold plans whose decomposition matched bit for bit
	mismatch int     // cold plans whose decomposition did not
	retained float64 // resident ÷ stored after a store boot
	bytesPer float64 // store bytes per record, from the store probe
}

// replayer runs a workload's stream serially in-process through two
// identical copies of its serving stack: the component path calls the
// public layer APIs one by one (decode, Scenario/Validate, Key,
// PlanDetail, Estimate/Simulate, encode) and the handler path sends
// the same request through NewHandler. The probe also sends a few of
// the workload's scenarios through a Router over three in-process
// replicas. A nil tracer replays the same calls without recording
// anything.
type replayer struct {
	wl  *workload
	in  inputs
	dir string // scratch directory for the services' stores
	tr  *tracer
	res replayResult

	svc      *hanccr.Service   // component path
	store    *hanccr.PlanStore // the component service's store
	putStore *hanccr.PlanStore // receives store.put copies
	handler  http.Handler
	closers  []func()
	// cur is the open lb.hop span that in-process replicas nest under
	// (-1 when none), and curReq its request index.
	cur, curReq atomic.Int64
}

func (r *replayer) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// newService builds one service of the workload's shape: with a store
// in an empty directory when the workload has one.
func (r *replayer) newService(tag string, extra ...hanccr.ServiceOption) (*hanccr.Service, *hanccr.PlanStore, error) {
	if !r.wl.store {
		return hanccr.NewService(extra...), nil, nil
	}
	dir, err := os.MkdirTemp(r.dir, tag+"-store-")
	if err != nil {
		return nil, nil, err
	}
	st, err := hanccr.OpenPlanStore(dir)
	if err != nil {
		return nil, nil, err
	}
	svc := hanccr.NewService(append([]hanccr.ServiceOption{hanccr.WithPlanStore(st)}, extra...)...)
	r.closers = append(r.closers, func() { _ = svc.CloseStore() }) // read-mostly scratch copy, deleted with the run directory
	return svc, st, nil
}

// boot brings a service to the state its serve process reaches before
// listening: the warm replay. Spans are recorded only for the component
// service (traced).
func (r *replayer) boot(ctx context.Context, svc *hanccr.Service, traced bool) error {
	tr := r.tr
	if !traced {
		tr = nil
	}
	for _, sr := range r.in.warm {
		var (
			p   *hanccr.Plan
			err error
		)
		sc := sr.Scenario()
		tr.timed("plan.warm", -1, -1, func() { p, _, err = svc.PlanDetail(ctx, sc) })
		if err != nil {
			return err
		}
		if traced {
			r.decompose(ctx, -1, sr, p)
		}
	}
	return nil
}

// decompose re-plans a scenario stage by stage, with a span around
// each internal call, and checks the result against the service's plan
// bit for bit.
func (r *replayer) decompose(ctx context.Context, req int, sr hanccr.ScenarioRequest, want *hanccr.Plan) {
	tr := r.tr
	root := tr.begin("decompose", req, -1)
	defer tr.end(root)
	sc := sr.Scenario()
	opts := pegasus.Options{Tasks: sr.Tasks, Seed: *sr.Seed}
	var (
		w   *mspg.Workflow
		err error
	)
	tr.timed("pegasus.generate", req, root, func() { w, err = pegasus.Generate(sr.Family, opts) })
	if err == nil {
		tr.timed("pegasus.clone", req, root, func() { w = w.Clone() })
	}
	var pf platform.Platform
	if err == nil {
		tr.timed("platform.calibrate", req, root, func() {
			pf = platform.New(sr.Procs, 0, hanccr.DefaultBandwidth).WithLambdaForPFail(*sr.PFail, w.G)
			pf.ScaleToCCR(w.G, *sr.CCR)
		})
	}
	cfg := core.Config{Strategy: ckpt.Strategy(sc.Strategy()), Estimator: ckpt.EstPathApprox, Seed: sc.Seed(), Model: ckpt.ModelFirstOrder}
	var res *core.Result
	if err == nil {
		var s *sched.Schedule
		tr.timed("sched.allocate", req, root, func() { s, err = core.BuildSchedule(w, pf, cfg) })
		if err == nil {
			tr.counted("ckpt.tail", req, root, func() { res, err = core.RunOnSchedule(ctx, s, pf, cfg) })
		}
	}
	if err != nil || !samePlan(res, want) {
		r.res.mismatch++
		return
	}
	r.res.checked++
}

// samePlan compares a decomposed result with a service plan: every
// float by its bit pattern, every superchain and checkpoint mark.
func samePlan(res *core.Result, p *hanccr.Plan) bool {
	bits := math.Float64bits
	if bits(res.ExpectedMakespan) != bits(p.ExpectedMakespan()) ||
		bits(res.FailureFreeMakespan) != bits(p.FailureFreeMakespan()) ||
		res.Checkpoints != p.NumCheckpoints() || res.Superchains != p.NumSuperchains() ||
		res.Segments != p.NumSegments() {
		return false
	}
	chains := p.Superchains()
	for i, c := range res.Schedule.Chains {
		if c.Proc != chains[i].Proc || len(c.Tasks) != len(chains[i].Tasks) {
			return false
		}
		for j, t := range c.Tasks {
			if int(t) != chains[i].Tasks[j] || res.Plan.CheckpointAfter[t] != chains[i].Checkpointed[j] {
				return false
			}
		}
	}
	segs := p.Segments()
	for i, s := range res.Plan.Segments {
		if bits(s.R) != bits(segs[i].R) || bits(s.W) != bits(segs[i].W) || bits(s.C) != bits(segs[i].C) {
			return false
		}
	}
	return true
}

// setup builds both paths and boots them.
func (r *replayer) setup(ctx context.Context) error {
	var err error
	if r.svc, r.store, err = r.newService("component"); err != nil {
		return err
	}
	if err := r.boot(ctx, r.svc, true); err != nil {
		return err
	}
	if r.wl.store {
		dir, err := os.MkdirTemp(r.dir, "put-")
		if err != nil {
			return err
		}
		if r.putStore, err = hanccr.OpenPlanStore(dir); err != nil {
			return err
		}
		ps := r.putStore
		r.closers = append(r.closers, func() { _ = ps.Close() }) // scratch store, deleted with the run directory
	}
	svc, _, err := r.newService("handler")
	if err != nil {
		return err
	}
	if err := r.boot(ctx, svc, false); err != nil {
		return err
	}
	r.handler = hanccr.NewHandler(svc)
	for _, q := range r.in.prewarm {
		if _, err := r.component(ctx, -1, q, nil); err != nil {
			return err
		}
		if rec := r.serve(q); rec.Code != http.StatusOK {
			return fmt.Errorf("prewarm %s: status %d", q.path, rec.Code)
		}
	}
	return nil
}

// router starts three in-process replicas behind a Router and warms
// them through it. Each replica's handler records an http.handler span
// nested in the router's open lb.hop span.
func (r *replayer) router(ctx context.Context, warm []hanccr.ScenarioRequest) (http.Handler, error) {
	var urls []string
	for i := 0; i < 3; i++ {
		h := hanccr.NewHandler(hanccr.NewService())
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			if cur := int(r.cur.Load()); cur >= 0 {
				r.tr.counted("http.handler", int(r.curReq.Load()), cur, func() { h.ServeHTTP(w, req) })
				return
			}
			h.ServeHTTP(w, req)
		}))
		r.closers = append(r.closers, srv.Close)
		urls = append(urls, srv.URL)
	}
	rt, err := hanccr.NewRouter(urls)
	if err != nil {
		return nil, err
	}
	r.cur.Store(-1)
	for _, sr := range warm {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rec := httptest.NewRecorder()
		rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(mustJSON(sr))))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("router warm: status %d", rec.Code)
		}
	}
	return rt, nil
}

// hop runs send, a request through the router, inside an lb.hop span
// that the replica's http.handler span nests under.
func (r *replayer) hop(req int, send func() *httptest.ResponseRecorder) *httptest.ResponseRecorder {
	i := r.tr.begin("lb.hop", req, -1)
	r.curReq.Store(int64(req))
	r.cur.Store(int64(i))
	rec := send()
	r.cur.Store(-1)
	r.tr.end(i)
	return rec
}

// serve sends one request down the handler path.
func (r *replayer) serve(q request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, q.path, bytes.NewReader(q.body))
	r.handler.ServeHTTP(rec, req)
	return rec
}

// component answers one request by calling the layers' public APIs
// in the order the handler does, one span per call, and returns the
// encoded body.
func (r *replayer) component(ctx context.Context, req int, q request, tr *tracer) ([]byte, error) {
	root := tr.begin("request", req, -1)
	defer tr.end(root)
	var (
		sreq hanccr.ScenarioRequest
		est  hanccr.EstimateRequest
		sim  hanccr.SimulateRequest
		err  error
	)
	tr.timed("http.decode", req, root, func() {
		switch q.path {
		case "/v1/estimate":
			err = json.Unmarshal(q.body, &est)
			sreq = est.ScenarioRequest
		case "/v1/simulate":
			err = json.Unmarshal(q.body, &sim)
			sreq = sim.ScenarioRequest
		default:
			err = json.Unmarshal(q.body, &sreq)
		}
	})
	if err != nil {
		return nil, err
	}
	var sc hanccr.Scenario
	tr.timed("scenario.build", req, root, func() {
		sc = sreq.Scenario()
		err = sc.Validate()
	})
	if err != nil {
		return nil, err
	}
	var key string
	tr.counted("scenario.key", req, root, func() { key = sc.Key() })
	tr.timed("scenario.structure_key", req, root, func() { _ = sc.StructureKey() })

	storeHits := r.svc.Stats().StoreHits
	var (
		p       *hanccr.Plan
		outcome hanccr.CacheOutcome
	)
	pi := tr.counted("plan", req, root, func() { p, outcome, err = r.svc.PlanDetail(ctx, sc) })
	if err != nil {
		return nil, err
	}
	// Name the span after the path PlanDetail took.
	storeHit := r.svc.Stats().StoreHits > storeHits
	name := "plan.cold"
	switch {
	case outcome == hanccr.CacheHit:
		name = "lru.hit"
	case outcome == hanccr.CacheStructureHit:
		name = "scaffold.tail"
	case storeHit:
		name = "store.hit"
	}
	tr.set(pi, func(s *span) { s.Name = name })
	if storeHit {
		tr.timed("store.get", req, root, func() { _, _, err = r.store.Get(key) })
	} else if outcome != hanccr.CacheHit && req >= 0 {
		r.decompose(ctx, req, sreq, p)
		if r.store != nil {
			var payload []byte
			tr.timed("store.get", req, root, func() { payload, _, err = r.store.Get(key) })
			if err == nil {
				tr.timed("store.put", req, root, func() { err = r.putStore.Put(key, payload) })
			}
		}
	}
	if err != nil {
		return nil, err
	}

	var resp any
	switch q.path {
	case "/v1/estimate":
		m := hanccr.Method(q.method)
		opts := []hanccr.EstimateOption{hanccr.WithEstimateWorkers(1)}
		if q.trials > 0 {
			opts = append(opts, hanccr.WithMCTrials(q.trials))
		}
		var em float64
		tr.timed("probdag."+strings.ToLower(q.method), req, root, func() { em, err = p.Estimate(ctx, m, opts...) })
		resp = hanccr.EstimateResponse{Key: key, Method: q.method, ExpectedMakespan: em}
	case "/v1/simulate":
		var s hanccr.SimResult
		tr.timed("sim.simulate", req, root, func() {
			s, err = p.Simulate(ctx, hanccr.WithSimTrials(q.trials), hanccr.WithSimWorkers(1))
		})
		resp = hanccr.SimulateResponse{Key: key, Trials: s.Trials, Mean: s.Mean, StdDev: s.StdDev, CI95: s.CI95, MeanFailures: s.MeanFailures}
	default:
		resp = hanccr.PlanResponse{
			Key: key, Strategy: string(p.Strategy()), Workflow: p.Workflow().Name, Tasks: p.Workflow().Tasks,
			ExpectedMakespan: p.ExpectedMakespan(), FailureFreeMakespan: p.FailureFreeMakespan(),
			Checkpoints: p.NumCheckpoints(), Superchains: p.NumSuperchains(), Segments: p.NumSegments(),
		}
	}
	if err != nil {
		return nil, err
	}
	var body []byte
	tr.timed("http.encode", req, root, func() {
		body, err = json.Marshal(resp)
		body = append(body, '\n')
	})
	return body, err
}

// replay runs the whole stream once and returns the handler bodies.
func (r *replayer) replay(ctx context.Context) (replayResult, error) {
	defer r.close()
	r.cur.Store(-1)
	if err := r.setup(ctx); err != nil {
		return r.res, err
	}
	// The wall clock covers the stream loop alone, the part the spans
	// instrument, so that the boots do not dilute trace.overhead_ratio.
	start := time.Now()
	r.res.bodies = make([][]byte, len(r.in.stream))
	for i, q := range r.in.stream {
		if err := ctx.Err(); err != nil {
			return r.res, err
		}
		body, err := r.component(ctx, i, q, r.tr)
		if err != nil {
			return r.res, fmt.Errorf("replay request %d: %w", i, err)
		}
		var rec *httptest.ResponseRecorder
		r.tr.counted("http.handler", i, -1, func() { rec = r.serve(q) })
		r.res.bodies[i] = rec.Body.Bytes()
		if rec.Code != http.StatusOK || !bytes.Equal(body, r.res.bodies[i]) {
			r.res.failed++
		}
	}
	r.res.wall = time.Since(start)
	if r.tr != nil {
		if err := r.probe(ctx); err != nil {
			return r.res, fmt.Errorf("probe: %w", err)
		}
	}
	return r.res, nil
}

// probe measures, on a few of the workload's own scenarios, every layer
// the replay did not reach, so that each workload reports every layer.
// Its spans are marked as probes.
func (r *replayer) probe(ctx context.Context) error {
	tr := r.tr
	tr.probe = true
	defer func() { tr.probe = false }()
	have := map[string]bool{}
	for _, s := range tr.spans {
		have[s.Name] = true
	}
	var sample []hanccr.ScenarioRequest
	seen := map[string]bool{}
	for _, q := range r.in.stream {
		if k := q.sreq.Scenario().Key(); !seen[k] && len(sample) < 8 {
			seen[k] = true
			sample = append(sample, q.sreq)
		}
	}
	rng := rand.New(rand.NewSource(int64(len(r.in.stream))))
	fresh := hanccr.NewService()
	var plans []*hanccr.Plan
	for _, sr := range sample {
		// The component service's own plan: resident, or read from
		// its store, which the decomposition then checks bit for bit.
		p, err := r.svc.Plan(ctx, sr.Scenario())
		if err != nil {
			return err
		}
		plans = append(plans, p)
		if !have["pegasus.generate"] {
			r.decompose(ctx, -1, sr, p)
		}
		if !have["scaffold.tail"] {
			if _, err := fresh.Plan(ctx, sr.Scenario()); err != nil {
				return err
			}
			vs := variant(rng, sr).Scenario()
			tr.timed("scaffold.tail", -1, -1, func() { _, _, err = fresh.PlanDetail(ctx, vs) })
			if err != nil {
				return err
			}
		}
	}
	var err error
	for _, p := range plans {
		for _, m := range hanccr.Methods() {
			name := "probdag." + strings.ToLower(string(m))
			if !have[name] {
				tr.timed(name, -1, -1, func() {
					_, err = p.Estimate(ctx, m, hanccr.WithEstimateWorkers(1), hanccr.WithMCTrials(1000))
				})
			}
		}
		if !have["sim.simulate"] {
			tr.timed("sim.simulate", -1, -1, func() {
				_, err = p.Simulate(ctx, hanccr.WithSimTrials(200), hanccr.WithSimWorkers(1))
			})
		}
		if err != nil {
			return err
		}
	}
	if !have["store.get"] || !have["store.put"] || !have["store.hit"] || !have["store.boot"] {
		if err := r.probeStore(ctx, sample); err != nil {
			return err
		}
	}
	if !have["lb.hop"] {
		rt, err := r.router(ctx, sample)
		if err != nil {
			return err
		}
		for _, sr := range sample {
			r.hop(-1, func() *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				rt.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(mustJSON(sr))))
				return rec
			})
		}
	}
	return nil
}

// probeStore writes the sample through a store, reads it back, serves
// it as store hits from a second service and reboots a third from it.
func (r *replayer) probeStore(ctx context.Context, sample []hanccr.ScenarioRequest) error {
	tr := r.tr
	dir := filepath.Join(r.dir, "probe-store")
	st, err := hanccr.OpenPlanStore(dir)
	if err != nil {
		return err
	}
	put, err := hanccr.OpenPlanStore(filepath.Join(r.dir, "probe-put"))
	if err != nil {
		return err
	}
	writer := hanccr.NewService(hanccr.WithPlanStore(st))
	for _, sr := range sample {
		sc := sr.Scenario()
		if _, err := writer.Plan(ctx, sc); err != nil {
			return err
		}
		var payload []byte
		tr.timed("store.get", -1, -1, func() { payload, _, err = st.Get(sc.Key()) })
		if err == nil {
			tr.timed("store.put", -1, -1, func() { err = put.Put(sc.Key(), payload) })
		}
		if err != nil {
			return err
		}
	}
	reader := hanccr.NewService(hanccr.WithPlanStore(st))
	for _, sr := range sample {
		sc := sr.Scenario()
		tr.counted("store.hit", -1, -1, func() { _, _, err = reader.PlanDetail(ctx, sc) })
		if err != nil {
			return err
		}
	}
	if err := errors.Join(writer.CloseStore(), put.Close()); err != nil {
		return err
	}
	boot := hanccr.NewService(hanccr.WithStore(dir))
	tr.timed("store.boot", -1, -1, func() { _, _, err = boot.LoadStore(ctx, 1) })
	if err != nil {
		return err
	}
	s := boot.Stats()
	r.res.retained = float64(s.Entries) / float64(max(s.StoreRecords, 1))
	r.res.bytesPer = float64(s.StoreBytes) / float64(max(s.StoreRecords, 1))
	return boot.CloseStore()
}
