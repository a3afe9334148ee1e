package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/server"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

const (
	// serveRate is the open loop's fixed arrival rate: about half of what
	// one closed-loop client sustains on 8-query requests on a 2-vCPU host
	// (about 110 req/s).
	serveRate = 55.0
	// serveLimit is the serve workloads' goodput latency limit.
	serveLimit = 50 * time.Millisecond
	// serveWarmup is how many requests each set-up sends before timing.
	serveWarmup = 16
	// repeatPool is how many distinct specs serve-8-repeat draws from at a
	// time; repeatPhases is how many such pools its window goes through, one
	// after another. A run's figures then average over several pools rather
	// than rest on one pool's draw of specs. Six pools' cache entries (about
	// 360k) still fit the server's L2 (64 shards of at most 8,192), so no
	// shard resets and the caches keep serving reads.
	repeatPool   = 16
	repeatPhases = 6
)

// clients is how many connections and callers the load generator uses: two,
// or fewer on a host with fewer CPUs.
func clients() int { return min(2, runtime.NumCPU()) }

// serveSpec is an 8-query Mixed spec (sharing 0.6, fan-out 4).
func serveSpec(seed int64, stream, i int) workload.Spec {
	sp := workload.DefaultSpec(8, 0.6)
	sp.Seed = deriveSeed(seed, stream, i)
	return sp
}

func requestBody(spec workload.Spec) ([]byte, error) {
	return json.Marshal(server.OptimizeRequest{Spec: &spec})
}

// serverHarness is a server.New handler with mqoserver's default
// configuration behind a loopback listener, and a client of it.
type serverHarness struct {
	url    string
	hs     *http.Server
	served chan error
	client *http.Client
}

func startServer() (*serverHarness, error) {
	srv := server.New(server.Config{
		DefaultTenant: server.TenantConfig{MaxConcurrent: 4, QueueDepth: 16, QueueWaitMS: 5000, Weight: 1},
		PoolSize:      4,
		MaxQueries:    1024,
		DefaultSF:     1,
		AllowedSFs:    []float64{1, 10, 100},
		Sched:         server.SchedConfig{Quantum: 64, Policy: server.PolicyDRR},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := &serverHarness{
		url:    "http://" + ln.Addr().String(),
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients(),
			MaxIdleConnsPerHost: clients(),
		}},
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// stop shuts the server down and waits for its serving goroutine.
func (h *serverHarness) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.hs.Shutdown(ctx) // a timeout leaves nothing else to do
	<-h.served
	h.client.CloseIdleConnections()
}

// post sends one optimize request and fills r's answer fields. It sets
// r.sent and r.done; a non-200 answer or an answer failing its own checks
// sets r.err.
func (h *serverHarness) post(ctx context.Context, r *request, body []byte) {
	r.sent = time.Now()
	status, data, err := h.do(ctx, http.MethodPost, "/v1/optimize", body)
	r.done = time.Now()
	switch {
	case err != nil:
		r.err = err
	case status != http.StatusOK:
		r.err = fmt.Errorf("spec seed %d: status %d: %s", r.spec.Seed, status, bytes.TrimSpace(data))
	default:
		r.err = r.decode(data)
	}
}

func (h *serverHarness) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, h.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// decode fills r from an optimize response body and checks it on its own.
func (r *request) decode(data []byte) error {
	var resp server.OptimizeResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	r.out = outcome{cost: resp.CostMS, volcano: resp.VolcanoMS, planTotal: resp.Plan.TotalMS, mat: resp.Materialized}
	r.tel = resp.Telemetry
	r.build = time.Duration(resp.BuildNS)
	r.opt = time.Duration(resp.OptNS)
	r.extract = time.Duration(resp.ExtractNS)
	r.queueWait = time.Duration(resp.QueueWaitNS)
	if resp.Queries != r.spec.Queries {
		return fmt.Errorf("spec seed %d: answered %d queries, sent %d", r.spec.Seed, resp.Queries, r.spec.Queries)
	}
	return r.out.check(resp.Telemetry.Stopped)
}

// serverStats is what the benchmark reads from GET /v1/stats.
type serverStats struct {
	recipeHits, recipeMisses int64
	cacheEntries, rejected   int
}

func (h *serverHarness) stats(ctx context.Context) (serverStats, error) {
	status, data, err := h.do(ctx, http.MethodGet, "/v1/stats", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /v1/stats: status %d", status)
	}
	if err != nil {
		return serverStats{}, err
	}
	var sr server.StatsResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return serverStats{}, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	var st serverStats
	for _, p := range sr.Pool {
		st.recipeHits += p.Session.RecipeHits
		st.recipeMisses += p.Session.RecipeMisses
		st.cacheEntries += p.SharedCacheEntries
	}
	for _, t := range sr.Tenants {
		st.rejected += int(t.RejectedQueueFull + t.RejectedQuota + t.QueueTimeouts)
	}
	return st, nil
}

// recordHTTP records one answered HTTP request as a trace: the load
// generator's lag, then the roundtrip with the server phases its response
// reported.
func recordHTTP(tr *tracer, trace int, r *request) {
	root := tr.addSpan(trace, 0, "request", r.due, r.done)
	tr.addSpan(trace, root, "loadgen.lag", r.due, r.sent)
	rt := tr.addSpan(trace, root, "http.roundtrip", r.sent, r.done)
	tr.synth(trace, rt, r.sent, []phase{
		{name: "server.queue_wait", d: r.queueWait},
		{name: "server.build", d: r.build},
		{name: "server.opt", d: r.opt, children: corePhases(r.tel)},
		{name: "server.extract", d: r.extract},
	})
}

// serveWorkload is serve-8-open and serve-8-repeat: an open loop at
// serveRate against POST /v1/optimize on an in-process server.
type serveWorkload struct {
	cfg    config
	cat    *catalog.Catalog
	h      *serverHarness
	reqs   []*request
	bodies [][]byte
}

// specs returns the run's request specs in arrival order.
func (w *serveWorkload) specs(n int) []workload.Spec {
	out := make([]workload.Spec, n)
	if w.cfg.workload == serve8Open {
		for i := range out {
			out[i] = serveSpec(w.cfg.seed, streamServe, i)
		}
		return out
	}
	z := rand.NewZipf(rand.New(rand.NewSource(deriveSeed(w.cfg.seed, streamZipf, 0))), 1.1, 1, repeatPool-1)
	for i := range out {
		phase := i * repeatPhases / n
		out[i] = serveSpec(w.cfg.seed, streamPool, phase*repeatPool+int(z.Uint64()))
	}
	return out
}

func (w *serveWorkload) setup(ctx context.Context) error {
	w.cat = tpcd.Catalog(1)
	h, err := startServer()
	if err != nil {
		return err
	}
	w.h = h
	specs := w.specs(int(serveRate * w.cfg.seconds.Seconds()))
	w.reqs = make([]*request, len(specs))
	w.bodies = make([][]byte, len(specs))
	for i, sp := range specs {
		w.reqs[i] = &request{spec: sp}
		if w.bodies[i], err = requestBody(sp); err != nil {
			return err
		}
	}
	for i := 0; i < serveWarmup; i++ {
		sp := serveSpec(w.cfg.seed, streamWarmup, i)
		body, err := requestBody(sp)
		if err != nil {
			return err
		}
		r := &request{spec: sp}
		h.post(ctx, r, body)
		if r.err != nil {
			return fmt.Errorf("warm-up: %w", r.err)
		}
	}
	return nil
}

func (w *serveWorkload) teardown() {
	if w.h != nil {
		w.h.stop()
		w.h = nil
	}
}

func (w *serveWorkload) measure(ctx context.Context, res *result) error {
	res.limit = serveLimit
	before, err := w.h.stats(ctx)
	if err != nil {
		return err
	}
	runtime.GC()
	rt0 := readRuntime()
	res.peak = watchHeap()
	w.openLoop(ctx)
	res.rt = readRuntime().sub(rt0)
	res.peak.stop()
	res.reqs = w.reqs
	for _, r := range w.reqs {
		res.window = max(res.window, r.done.Sub(w.reqs[0].due))
	}
	after, err := w.h.stats(ctx)
	if err != nil {
		return err
	}
	if err := checkAgainstReference(ctx, w.cat, w.reqs); err != nil {
		return err
	}
	if !w.cfg.trace {
		return nil
	}
	win := newTracer()
	res.traces["window"] = win
	for i, r := range w.reqs {
		if r.err == nil {
			recordHTTP(win, i+1, r)
		}
	}
	layers := productionLayers(res)
	layers = append(layers,
		metric{"memo.recipe_hit_rate", "ratio", hitRate(after.recipeHits-before.recipeHits, after.recipeMisses-before.recipeMisses)},
		metric{"physical.l2_entries", "count", float64(after.cacheEntries)},
	)
	rl, err := replayRequests(ctx, w.cat, res, w.cfg.seconds)
	if err != nil {
		return err
	}
	layers = append(layers, rl...)
	res.layers = append(layers, serverLayers(win, after.rejected-before.rejected)...)
	return nil
}

// openLoop sends request i at its due time, start + i/serveRate, through
// clients() callers. A request due while every caller is busy waits
// for one; its latency still counts from its due time.
func (w *serveWorkload) openLoop(ctx context.Context) {
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < clients(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				w.h.post(ctx, w.reqs[i], w.bodies[i])
			}
		}()
	}
	start := time.Now()
	for i, r := range w.reqs {
		r.due = start.Add(time.Duration(float64(i) * float64(time.Second) / serveRate))
		time.Sleep(time.Until(r.due))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// checkAgainstReference requires every answered request's cost, Volcano
// cost and materialized set to be bit-identical to Session.Optimize on a
// fresh in-process session of its own, so no reference reads a cache
// another one warmed. References run once per distinct spec, on clients()
// goroutines after the window. A request whose reference run fails fails
// with it.
func checkAgainstReference(ctx context.Context, cat *catalog.Catalog, reqs []*request) error {
	type reference struct {
		out outcome
		err error
	}
	var specs []workload.Spec
	refs := map[workload.Spec]reference{}
	for _, r := range reqs {
		if _, ok := refs[r.spec]; !ok {
			refs[r.spec] = reference{}
			specs = append(specs, r.spec)
		}
	}
	var mu sync.Mutex
	next := make(chan workload.Spec)
	var wg sync.WaitGroup
	for k := 0; k < clients(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range next {
				o, err := referenceOutcome(ctx, cat, sp)
				mu.Lock()
				refs[sp] = reference{o, err}
				mu.Unlock()
			}
		}()
	}
	for _, sp := range specs {
		next <- sp
	}
	close(next)
	wg.Wait()
	for _, r := range reqs {
		ref := refs[r.spec]
		switch {
		case r.err != nil:
		case ref.err != nil:
			r.err = fmt.Errorf("spec seed %d: %w", r.spec.Seed, ref.err)
		case !r.out.equal(ref.out):
			r.err = fmt.Errorf("spec seed %d: answer %+v differs from reference Session.Optimize %+v", r.spec.Seed, r.out, ref.out)
		}
	}
	return nil
}

func referenceOutcome(ctx context.Context, cat *catalog.Catalog, sp workload.Spec) (outcome, error) {
	sess, err := repro.NewSession(cat, cost.Default())
	if err != nil {
		return outcome{}, err
	}
	batch, err := workload.Generate(sp)
	if err != nil {
		return outcome{}, err
	}
	res, err := sess.Optimize(ctx, batch, repro.WithParallelism(1))
	if err != nil {
		return outcome{}, fmt.Errorf("reference Session.Optimize: %w", err)
	}
	o := outcomeOf(res.Result, res.Plan)
	if err := o.check(res.Telemetry.Stopped); err != nil {
		return outcome{}, fmt.Errorf("reference Session.Optimize: %w", err)
	}
	return o, nil
}
