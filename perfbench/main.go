// Command perfbench is the repository's serving benchmark. It boots the
// real cmd/serve binary, drives one named workload open-loop at a fixed
// rate from this single process over at most two connections, verifies
// every response byte for byte against an in-process reference, and
// prints the end-to-end metrics as the last line of its output. With
// --trace 1 it also replays the same stream serially in-process with
// spans around every layer call, puts a cmd/hanccr-lb in front of the
// server to measure the router, and prints the per-layer metrics
// instead.
//
//	bash perfbench/run.sh --workload hot --seed 1 --seconds 20 --trace 0
//
// run.sh builds the binaries from the checkout first; DESIGN.md gives
// the workloads, the metrics and what each layer should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	hanccr "repro"
	"repro/internal/pegasus"
)

// conns is the generator's connection limit.
const conns = 2

// Before the measured window the servers idle for settle, then take
// warmup of traffic, rounded up to whole blocks, from the same
// generator that is verified but not timed: the set-ups' CPU burst
// left the first seconds of a window visibly slower on a shared 2-core
// VM.
const (
	settle = time.Second
	warmup = 2 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: hot or pipeline")
		seed    = flag.Int64("seed", 1, "seed of the workload's inputs") //hanccr:allow flagdrift the benchmark's input seed, not a scenario knob
		seconds = flag.Int("seconds", 16, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 = print the per-layer metrics of a traced in-process replay")
		root    = flag.String("root", ".", "checkout root holding .bench_build/bin")
	)
	flag.Parse()
	runtime.GOMAXPROCS(1)
	res, err := run(*root, *name, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// bench is one invocation: a workload, its inputs and its processes.
type bench struct {
	wl *workload
	in inputs
	// warmup and measured split in.stream: the untimed requests that
	// precede the window, then the window's own.
	warmup, measured []request
	dir              string
	bin              string
	warm             string // -warm log path
	c                *cluster
	info             []string
}

func (b *bench) note(format string, args ...any) {
	b.info = append(b.info, fmt.Sprintf(format, args...))
}

func run(root, name string, seed int64, seconds int, traced bool) (*result, error) {
	wl, err := workloadByName(name)
	if err != nil {
		return nil, err
	}
	if seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	// A hung child cannot keep the run from exiting: the deadline is
	// 170 s at a 20 s window, under the 180 s a run is allowed, and
	// grows with longer windows.
	ctx, cancel := context.WithTimeout(context.Background(), 130*time.Second+2*time.Duration(seconds)*time.Second)
	defer cancel()
	bin := filepath.Join(root, ".bench_build", "bin")
	if _, err := os.Stat(filepath.Join(bin, "serve")); err != nil {
		return nil, fmt.Errorf("serve binary missing (build with perfbench/run.sh): %w", err)
	}
	var waitNote string
	if !traced {
		waited, share, err := waitForCalm(ctx, filepath.Join(root, ".bench_build", "steal-wait"))
		if err != nil {
			return nil, err
		}
		waitNote = fmt.Sprintf("waited %.1fs for steal <= %.0f%% over %s (last: %.1f%%)", waited.Seconds(), calmSteal*100, calmSpan, share*100)
	}
	dir, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-"+name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	n := int(wl.rate * float64(seconds))
	nWarm := (int(wl.rate*warmup.Seconds()) + wl.block - 1) / wl.block * wl.block
	b := &bench{
		wl: wl, in: wl.inputs(rand.New(rand.NewSource(seed)), nWarm+n), dir: dir, bin: bin,
		c: &cluster{dir: dir, client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}}},
	}
	defer b.c.stop()
	b.warmup, b.measured = b.in.stream[:nWarm], b.in.stream[nWarm:]
	b.note("workload=%s seed=%d seconds=%d rate=%g/s requests=%d conns=%d GOMAXPROCS=1 nproc=%d go=%s",
		name, seed, seconds, wl.rate, n, conns, runtime.NumCPU(), runtime.Version())
	if waitNote != "" {
		b.note("%s", waitNote)
	}

	// phases records how long each stage of the run took.
	var phases []string
	last := time.Now()
	phase := func(name string) {
		phases = append(phases, fmt.Sprintf("%s=%.1f", name, time.Since(last).Seconds()))
		last = time.Now()
	}
	b.warm = filepath.Join(dir, "warm.jsonl")
	if err := writeJSONL(b.warm, b.in.warm); err != nil {
		return nil, err
	}
	// Half the set-ups precede the window, whose servers the last of
	// them boots, and half follow it, so that setup_s samples the
	// host's speed across the whole run rather than one burst.
	before, after := (wl.boots+1)/2, wl.boots/2
	if traced {
		before, after = 1, 0
	}
	var setups []float64
	boot := func(n int) error {
		for k := 0; k < n; k++ {
			s, err := b.boot(ctx)
			if err != nil {
				return fmt.Errorf("boot %d: %w", len(setups)+1, err)
			}
			setups = append(setups, s)
		}
		return nil
	}
	if err := boot(before); err != nil {
		return nil, err
	}
	for _, q := range b.in.prewarm {
		if status, body, err := post(ctx, b.c.client, b.c.serve.base+q.path, q.body); err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("prewarm %s: status %d err %v: %s", q.path, status, err, body)
		}
	}

	phase("setups")
	w, err := b.window(ctx, seconds)
	if err != nil {
		return nil, err
	}
	phase("window")
	var lbCPU float64
	if traced {
		if lbCPU, err = b.lbProbe(ctx); err != nil {
			return nil, fmt.Errorf("router probe: %w", err)
		}
	}
	if err := boot(after); err != nil {
		return nil, err
	}
	b.c.stop()
	phase("setups_after")
	b.note("setup_s per boot: %v", setups)

	// Verify every answer against the in-process reference.
	var (
		rep    replayResult
		untrac replayResult
		tr     *tracer
	)
	ref := map[string][]byte{}
	if traced {
		pegasus.ClearGenerateCache()
		untrac, err = (&replayer{wl: wl, in: b.in, dir: dir}).replay(ctx)
		if err != nil {
			return nil, fmt.Errorf("untraced replay: %w", err)
		}
		pegasus.ClearGenerateCache()
		tr = newTracer()
		rep, err = (&replayer{wl: wl, in: b.in, dir: dir, tr: tr}).replay(ctx)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		for i, q := range b.in.stream {
			ref[q.path+string(q.body)] = rep.bodies[i]
		}
	} else {
		// Nothing is measured from here on: the reference may use
		// every core.
		runtime.GOMAXPROCS(runtime.NumCPU())
		if ref, err = reference(ctx, b.in.stream); err != nil {
			return nil, err
		}
	}
	phase("reference")
	b.note("run phases in s: %s", strings.Join(phases, " "))
	ok := func(o outcome, q request) bool {
		return o.err == nil && o.status == http.StatusOK && string(o.body) == string(ref[q.path+string(q.body)])
	}
	failed := 0
	for i, o := range w.warmOut {
		if !ok(o, b.warmup[i]) {
			failed++
		}
	}
	// Each block's latencies of verified responses, and the whole
	// window's.
	var lat, lags []float64
	blockLat := make([][]float64, len(w.blockCPUMS))
	for i, o := range w.out {
		lags = append(lags, ms(o.lag))
		if !ok(o, b.measured[i]) {
			failed++
			continue
		}
		k := min(i/wl.block, len(blockLat)-1)
		blockLat[k] = append(blockLat[k], ms(o.latency))
		lat = append(lat, ms(o.latency))
	}
	// A run's latency quantiles and CPU per request are medians over
	// the blocks in which the hypervisor stole no more CPU time from
	// this machine than in the median block, so that another guest's
	// burst on the shared host, which only steal time shows, does not
	// move them.
	calm := calmBlocks(w.blockHost)
	var p50s, p95s, cpus, steals []float64
	for k, l := range blockLat {
		p50s = append(p50s, quantile(l, 0.50))
		p95s = append(p95s, quantile(l, 0.95))
		cpus = append(cpus, w.blockCPUMS[k]/float64(w.blockSent[k]))
		steals = append(steals, w.blockHost[k].stealShare()*100)
	}
	pick := func(xs []float64) []float64 {
		var out []float64
		for _, k := range calm {
			out = append(out, xs[k])
		}
		return out
	}
	shareFailures := b.checkShares(w.delta, len(w.out))
	failed += shareFailures + rep.failed + rep.mismatch
	b.note("warm-up=%d measured=%d verified=%d failed=%d (share mismatches %d)", len(w.warmOut), len(w.out), len(lat), failed, shareFailures)
	b.note("stats delta: hits=%d misses=%d structure_hits=%d store_hits=%d shed=%d",
		w.delta.Cache.Hits, w.delta.Cache.Misses, w.delta.StructureCache.Hits, w.delta.Store.Hits, w.delta.Gate.Shed)
	b.note("latency samples=%d blocks=%d of %d requests; whole window p50_ms=%.3f p95_ms=%.3f p99_ms=%.3f beyond_p99=%d max_ms=%.3f",
		len(lat), len(blockLat), wl.block, quantile(lat, 0.50), quantile(lat, 0.95), quantile(lat, 0.99),
		len(lat)-int(0.99*float64(len(lat))), quantile(lat, 1))
	b.note("per block: p50_ms=%.3f p95_ms=%.3f cpu_ms_per_req=%.3f", p50s, p95s, cpus)
	b.note("per block: steal_pct=%.1f; calm blocks %v; all blocks' medians p50_ms=%.3f p95_ms=%.3f cpu_ms_per_req=%.3f",
		steals, calm, median(p50s), median(p95s), median(cpus))

	res := &result{Attempted: len(w.warmOut) + len(w.out), Failed: failed, Metrics: map[string]metric{}}
	res.Correct = failed == 0 && len(lat) > 0
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !traced {
		put("setup_s", "s", median(setups))
		put("p50_ms", "ms", median(pick(p50s)))
		put("p95_ms", "ms", median(pick(p95s)))
		put("throughput_rps", "1/s", float64(len(lat))/w.elapsed.Seconds())
		put("cpu_ms_per_req", "ms", median(pick(cpus)))
		put("rss_peak_mb", "MB", w.rssMB)
	} else {
		b.layerMetrics(put, w, tr, rep, untrac, lbCPU, lags)
		if err := tr.write(filepath.Join(root, ".bench_build", fmt.Sprintf("trace-%s-seed%d.jsonl", name, seed))); err != nil {
			return nil, err
		}
		b.note("decomposition: %d cold plans bit-equal to the service's, %d not; component/handler disagreements: %d",
			rep.checked, rep.mismatch, rep.failed)
		if rep.checked == 0 {
			res.Correct = false
		}
	}
	for _, line := range b.info {
		fmt.Println("# " + line)
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func writeJSONL(path string, scenarios []hanccr.ScenarioRequest) error {
	var sb strings.Builder
	for _, sr := range scenarios {
		sb.Write(mustJSON(sr))
		sb.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// boot stops the previous processes and sets the workload up afresh,
// returning the seconds from the spawn until /healthz answers after
// the warm replay.
func (b *bench) boot(ctx context.Context) (float64, error) {
	c := b.c
	c.stop()
	args := []string{"-warm", b.warm, "-warm-workers", "1"}
	if b.wl.store {
		dir, err := os.MkdirTemp(b.dir, "store-")
		if err != nil {
			return 0, err
		}
		args = append(args, "-store", dir)
	}
	start := time.Now()
	p, err := c.start("serve", filepath.Join(b.bin, "serve"), "GOMAXPROCS=1", args...)
	if err != nil {
		return 0, err
	}
	c.procs = append(c.procs, p)
	c.serve = p
	if err := c.waitReady(ctx, p, 150*time.Second); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

// windowResult is the measured window of one run.
type windowResult struct {
	warmOut []outcome // the untimed warm-up requests
	out     []outcome
	elapsed time.Duration
	delta   serviceStats
	// blockSent and blockCPUMS are, per block of the window, the
	// requests due in it and the CPU the server spent between its
	// first request's due instant and the next block's (the last
	// block's until its last response).
	blockSent  []int
	blockCPUMS []float64
	blockHost  []hostTimes
	rssMB      float64 // the server's VmHWM
}

func (b *bench) window(ctx context.Context, seconds int) (windowResult, error) {
	c := b.c
	var w windowResult
	url := func(q request) string { return c.serve.base + q.path }
	time.Sleep(settle)
	w.warmOut, _ = drive(ctx, c.client, url, b.warmup, b.wl.rate, conns, time.Now().Add(20*time.Millisecond))
	before, err := c.stats(ctx)
	if err != nil {
		return w, err
	}
	n := len(b.measured)
	blocks := max(1, n/b.wl.block)
	for range blocks {
		w.blockSent = append(w.blockSent, b.wl.block)
	}
	w.blockSent[blocks-1] = n - (blocks-1)*b.wl.block
	// A sampler reads the server's and the machine's CPU times at each
	// block's first due instant while the generator drives the window.
	pid := c.serve.cmd.Process.Pid
	type sample struct {
		server map[int]uint64
		host   hostTimes
	}
	read := func() (sample, error) {
		var sm sample
		var err1, err2 error
		sm.server, err1 = cpuNS(pid)
		sm.host, err2 = hostCPU()
		return sm, errors.Join(err1, err2)
	}
	start := time.Now().Add(20 * time.Millisecond)
	samples := make([]sample, blocks+1)
	sampled := make(chan error, 1)
	go func() {
		var err error
		for k := 0; k < blocks && err == nil; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(float64(k*b.wl.block) / b.wl.rate * float64(time.Second)))))
			samples[k], err = read()
		}
		sampled <- err
	}()
	w.out, w.elapsed = drive(ctx, c.client, url, b.measured, b.wl.rate, conns, start)
	if err := <-sampled; err != nil {
		return w, err
	}
	if samples[blocks], err = read(); err != nil {
		return w, err
	}
	for k := range blocks {
		w.blockCPUMS = append(w.blockCPUMS, float64(cpuDelta(samples[k].server, samples[k+1].server))/1e6)
		w.blockHost = append(w.blockHost, samples[k+1].host.minus(samples[k].host))
	}
	b.note("host CPU during the window: %s", samples[blocks].host.minus(samples[0].host))
	kb, err := hwmKB(pid)
	if err != nil {
		return w, err
	}
	w.rssMB = float64(kb) / 1024
	after, err := c.stats(ctx)
	if err != nil {
		return w, err
	}
	w.delta = after.minus(before)
	w.delta.Store.Records, w.delta.Store.Bytes = after.Store.Records, after.Store.Bytes
	if d := time.Duration(seconds) * time.Second; w.elapsed < d/2 {
		return w, fmt.Errorf("window lasted %s, expected about %s", w.elapsed, d)
	}
	return w, nil
}

// lbProbe puts a hanccr-lb process in front of the workload's server and returns the router's CPU per request over a
// serial pass of the stream's first requests: the router's cost on
// this workload's traffic, which its own window never routes.
func (b *bench) lbProbe(ctx context.Context) (float64, error) {
	c := b.c
	lb, err := c.start("lb-probe", filepath.Join(b.bin, "hanccr-lb"), "GOMAXPROCS=1", "-backends", c.serve.base)
	if err != nil {
		return 0, err
	}
	c.procs = append(c.procs, lb)
	if err := c.waitReady(ctx, lb, 30*time.Second); err != nil {
		return 0, err
	}
	pid := lb.cmd.Process.Pid
	t0, err := cpuNS(pid)
	if err != nil {
		return 0, err
	}
	k := min(len(b.measured), 400)
	for _, q := range b.measured[:k] {
		if status, _, err := post(ctx, c.client, lb.base+q.path, q.body); err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("status %d: %v", status, err)
		}
	}
	t1, err := cpuNS(pid)
	if err != nil {
		return 0, err
	}
	return float64(cpuDelta(t0, t1)) / 1e6 / float64(k), nil
}

// checkShares asserts the cache outcomes each workload is designed to
// produce, from the /v1/stats deltas of its window, and returns how
// many requests were answered another way than designed.
func (b *bench) checkShares(d serviceStats, sent int) int {
	var bad uint64
	diff := func(got, want uint64) {
		if got > want {
			bad += got - want
		} else {
			bad += want - got
		}
	}
	diff(d.Gate.Shed, 0)
	switch b.wl.name {
	case "hot":
		// Every request is a resident plan.
		diff(d.Cache.Hits, uint64(sent))
		diff(d.Cache.Misses+d.Store.Hits, 0)
	case "pipeline":
		var plans, variants uint64
		for _, q := range b.measured {
			switch q.kind {
			case "plan:new":
				plans++
			case "plan:variant":
				variants++
			}
		}
		// New structures miss, variants take the structure-hit path,
		// estimates and simulations hit resident plans.
		diff(d.StructureCache.Hits, variants)
		diff(d.Cache.Misses, plans+variants)
		diff(d.Cache.Hits+d.Store.Hits, uint64(sent)-plans-variants)
	}
	return int(bad)
}

// layerMetrics fills the per-layer metrics of a traced run.
func (b *bench) layerMetrics(put func(string, string, float64), w windowResult, tr *tracer, rep, untrac replayResult, lbCPU float64, lags []float64) {
	ls := tr.layers()
	var probed []string
	get := func(name string) layer {
		l := ls[name]
		if l.probe {
			probed = append(probed, name)
		}
		return l
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	d := w.delta
	lookups := d.Cache.Hits + d.Cache.Misses + d.Store.Hits

	h := get("http.handler")
	put("http.handler_us", "us", h.us)
	put("http.decode_us", "us", get("http.decode").us)
	put("http.encode_us", "us", get("http.encode").us)
	put("http.allocs_per_req", "count", h.allocs)
	k := get("scenario.key")
	put("scenario.key_us", "us", k.us)
	put("scenario.structure_key_us", "us", get("scenario.structure_key").us)
	put("scenario.key_allocs", "count", k.allocs)
	put("gate.shed_ratio", "ratio", ratio(d.Gate.Shed, uint64(len(w.out))))
	put("lru.hit_ratio", "ratio", ratio(d.Cache.Hits, lookups))
	put("lru.hit_us", "us", get("lru.hit").us)
	put("scaffold.hit_ratio", "ratio", ratio(d.StructureCache.Hits, d.Cache.Misses))
	put("scaffold.tail_us", "us", get("scaffold.tail").us)
	put("store.boot_s", "s", get("store.boot").us/1e6)
	put("store.boot_retained_ratio", "ratio", rep.retained)
	put("store.hit_ratio", "ratio", ratio(d.Store.Hits, lookups))
	put("store.get_us", "us", get("store.get").us)
	sh := get("store.hit")
	put("store.hit_us", "us", sh.us)
	put("store.hit_allocs", "count", sh.allocs)
	put("store.put_us", "us", get("store.put").us)
	bytesPer := rep.bytesPer
	if d.Store.Records > 0 {
		bytesPer = float64(d.Store.Bytes) / float64(d.Store.Records)
	}
	put("store.bytes_per_plan", "B", bytesPer)
	put("pegasus.generate_us", "us", get("pegasus.generate").us)
	put("pegasus.clone_us", "us", get("pegasus.clone").us)
	put("sched.allocate_us", "us", get("sched.allocate").us)
	c := get("ckpt.tail")
	put("ckpt.tail_us", "us", c.us)
	put("ckpt.tail_allocs", "count", c.allocs)
	for _, m := range hanccr.Methods() {
		name := "probdag." + strings.ToLower(string(m))
		put(name+"_us", "us", get(name).us)
	}
	put("sim.simulate_us", "us", get("sim.simulate").us)
	put("lb.hop_us", "us", get("lb.hop").us)
	put("lb.cpu_ms_per_req", "ms", lbCPU)
	put("gen.lag_p99_ms", "ms", quantile(lags, 0.99))
	put("trace.overhead_ratio", "ratio", rep.wall.Seconds()/untrac.wall.Seconds())
	sort.Strings(probed)
	b.note("layers measured by the probe (not reached by this workload's traffic): %s", strings.Join(probed, " "))
}
