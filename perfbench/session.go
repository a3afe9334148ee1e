package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

const (
	// sessionLimit is session-cold-64's goodput latency limit, about 2.5
	// times its median batch latency on a 2-vCPU host.
	sessionLimit = time.Second
	// sessionServerLeg is how many of a traced session-cold-64 run's batches
	// are also posted through the HTTP handler after the window, to give
	// the server layer's figures for 64-query batches.
	sessionServerLeg = 3
)

// sessionSpec is batch i of a session-cold-64 run.
func sessionSpec(seed int64, stream, i int) workload.Spec {
	sp := workload.DefaultSpec(64, 0.25)
	sp.Seed = deriveSeed(seed, stream, i)
	return sp
}

// sessionWorkload is session-cold-64: one closed-loop caller of
// Session.Optimize on a long-lived session, each batch a fresh-seed
// 64-query spec.
type sessionWorkload struct {
	cfg  config
	cat  *catalog.Catalog
	sess *repro.Session
}

func (w *sessionWorkload) setup(ctx context.Context) error {
	w.cat = tpcd.Catalog(1)
	sess, err := repro.NewSession(w.cat, cost.Default())
	if err != nil {
		return err
	}
	w.sess = sess
	// Warm-up: one batch outside the measured seed stream, checked like a
	// timed one.
	batch, err := workload.Generate(sessionSpec(w.cfg.seed, streamWarmup, 0))
	if err != nil {
		return err
	}
	res, err := sess.Optimize(ctx, batch)
	if err != nil {
		return err
	}
	if err := res.Validate(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if err := outcomeOf(res.Result, res.Plan).check(res.Telemetry.Stopped); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return nil
}

func (w *sessionWorkload) teardown() { w.sess, w.cat = nil, nil }

// optimize runs one timed batch — generation, then Session.Optimize — and
// checks it. The check runs after done is taken; its allocations are
// returned so the caller can leave them out of the window's counters.
func (w *sessionWorkload) optimize(ctx context.Context, r *request) (checked rtSnap) {
	r.due = time.Now()
	r.sent = time.Now()
	batch, err := workload.Generate(r.spec)
	r.gen = time.Since(r.sent)
	var res *repro.RunResult
	if err == nil {
		res, err = w.sess.Optimize(ctx, batch)
	}
	r.done = time.Now()

	rt0 := readRuntime()
	if err == nil {
		r.out = outcomeOf(res.Result, res.Plan)
		r.tel = res.Telemetry
		r.build, r.opt, r.extract = res.BuildTime, res.OptTime, res.ExtractTime
		if err = res.Validate(); err == nil {
			err = r.out.check(res.Telemetry.Stopped)
		}
	}
	if err != nil {
		r.err = fmt.Errorf("batch seed %d: %w", r.spec.Seed, err)
	}
	return readRuntime().sub(rt0)
}

func (w *sessionWorkload) measure(ctx context.Context, res *result) error {
	res.limit = sessionLimit
	var win *tracer
	if w.cfg.trace {
		win = newTracer()
		res.traces["window"] = win
	}
	hits0, misses0 := w.sess.Stats().RecipeHits, w.sess.Stats().RecipeMisses
	runtime.GC()

	// Closed loop until the timed work reaches the window length. Checks
	// run between batches and are subtracted from the window and the
	// runtime counters.
	var excluded rtSnap
	var timed time.Duration
	rt0 := readRuntime()
	res.peak = watchHeap()
	for i := 0; timed < w.cfg.seconds; i++ {
		r := &request{spec: sessionSpec(w.cfg.seed, streamSession, i)}
		res.reqs = append(res.reqs, r)
		excluded = excluded.add(w.optimize(ctx, r))
		timed += r.latency()
		if win != nil && r.err == nil {
			recordSessionRequest(win, i+1, r)
		}
	}
	res.rt = readRuntime().sub(rt0).sub(excluded)
	res.peak.stop()
	res.window = timed

	if !w.cfg.trace {
		return nil
	}
	st := w.sess.Stats()
	layers := productionLayers(res)
	layers = append(layers,
		metric{"memo.recipe_hit_rate", "ratio", hitRate(st.RecipeHits-hits0, st.RecipeMisses-misses0)},
		metric{"physical.l2_entries", "count", float64(w.sess.CacheEntries())},
	)
	rl, err := replayRequests(ctx, w.cat, res, w.cfg.seconds)
	if err != nil {
		return err
	}
	layers = append(layers, rl...)
	sl, err := sessionServerLayers(ctx, res)
	if err != nil {
		return err
	}
	res.layers = append(layers, sl...)
	return nil
}

// recordSessionRequest records one session-cold-64 batch as a trace: the
// batch generation timed by the benchmark, then Session.Optimize with the
// phases its RunResult reported.
func recordSessionRequest(tr *tracer, trace int, r *request) {
	root := tr.addSpan(trace, 0, "request", r.due, r.done)
	call := r.sent.Add(r.gen)
	tr.addSpan(trace, root, "workload.Generate", r.sent, call)
	opt := tr.addSpan(trace, root, "session.Optimize", call, r.done)
	tr.synth(trace, opt, call, sessionPhases("session", r.build, r.opt, r.extract, r.tel))
}

// sessionServerLayers posts the first batches of a session-cold-64 run
// through a default-configured server after the window, checking each
// answer against the window's result for the same spec.
func sessionServerLayers(ctx context.Context, res *result) ([]metric, error) {
	h, err := startServer()
	if err != nil {
		return nil, err
	}
	defer h.stop()
	tr := newTracer()
	res.traces["server_leg"] = tr
	for i, r := range res.reqs[:min(sessionServerLeg, len(res.reqs))] {
		if r.err != nil {
			continue
		}
		body, err := requestBody(r.spec)
		if err != nil {
			return nil, err
		}
		hr := &request{spec: r.spec, due: time.Now()}
		h.post(ctx, hr, body)
		if hr.err == nil && !hr.out.equal(r.out) {
			hr.err = fmt.Errorf("batch seed %d: server answer %+v differs from Session.Optimize %+v", r.spec.Seed, hr.out, r.out)
		}
		if hr.err != nil {
			res.fail(hr.err)
			continue
		}
		recordHTTP(tr, i+1, hr)
	}
	st, err := h.stats(ctx)
	if err != nil {
		return nil, err
	}
	return serverLayers(tr, st.rejected), nil
}
