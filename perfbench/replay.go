package main

import (
	"context"
	"fmt"
	"math"
	"slices"
	"time"

	"repro"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/physical"
	"repro/internal/volcano"
	"repro/internal/workload"
)

// outcome is the part of an optimization result the benchmark checks.
type outcome struct {
	cost, volcano, planTotal float64
	mat                      []int
}

func (a outcome) equal(b outcome) bool {
	return math.Float64bits(a.cost) == math.Float64bits(b.cost) &&
		math.Float64bits(a.volcano) == math.Float64bits(b.volcano) &&
		slices.Equal(a.mat, b.mat)
}

func outcomeOf(res repro.Result, plan *physical.ConsolidatedPlan) outcome {
	mat := make([]int, len(res.Materialized))
	for i, g := range res.Materialized {
		mat[i] = int(g)
	}
	return outcome{cost: res.Cost, volcano: res.VolcanoCost, planTotal: plan.Total, mat: mat}
}

// check audits one result on its own: a complete run whose plan total is
// the chosen set's cost. The plan sums its total per extracted subtree and
// the cost search in its own order, so the two may differ in the last
// places; the repository's tests allow a relative 1e-9, and so does this.
func (a outcome) check(stopped repro.StopReason) error {
	if stopped != repro.StopNone {
		return fmt.Errorf("run stopped early: %v", stopped)
	}
	if math.Abs(a.planTotal-a.cost) > 1e-9*max(1, math.Abs(a.cost)) {
		return fmt.Errorf("plan total %v != cost %v", a.planTotal, a.cost)
	}
	return nil
}

// replayer re-runs Session.Optimize through the public calls of the layers
// it is made of, timing each as a span:
//
//	workload.Generate → memo.Build (with a memo.BuildCache) →
//	physical.NewSearcher + AttachSharedCache → core.RunWith →
//	Optimizer.Plan (Searcher.BestPlan) → Searcher.PublishCache
//
// Its BuildCache and SharedCache live as long as the replayer, as a
// session's do, so a replayed request sequence sees the cache state the
// session saw. Each replayed batch also runs through Session.Optimize on a
// mirror session, untimed by layer: its wall is the untraced reference for
// the tracing overhead, and its result must equal the layer replay's.
type replayer struct {
	cat    *catalog.Catalog
	model  cost.Model
	build  *memo.BuildCache
	cache  *physical.SharedCache
	mirror *repro.Session
	tr     *tracer
	// delay, when set, is added inside the named layer's span before the
	// layer call: the attribution test injects a known slowdown with it.
	delay map[string]time.Duration
}

func newReplayer(cat *catalog.Catalog, tr *tracer) (*replayer, error) {
	mirror, err := repro.NewSession(cat, cost.Default())
	if err != nil {
		return nil, err
	}
	return &replayer{
		cat:    cat,
		model:  cost.Default(),
		build:  memo.NewBuildCache(),
		cache:  physical.NewSharedCache(),
		mirror: mirror,
		tr:     tr,
	}, nil
}

// replayed is what one replay observed.
type replayed struct {
	layers, session outcome
	groups          int
	// layersWall and sessionWall are the traced layer replay's wall and the
	// untraced Session.Optimize wall on the same batch.
	layersWall, sessionWall time.Duration
}

// layer runs fn inside a span named name under parent, after the injected
// delay for that layer, if any, and returns the span's id, start and
// duration.
func (r *replayer) layer(trace, parent int, name string, fn func()) (id int, start time.Time, d time.Duration) {
	o := r.tr.begin(trace, parent, name)
	if d := r.delay[name]; d > 0 {
		time.Sleep(d)
	}
	fn()
	d = o.end()
	return o.s.ID, o.start, d
}

// sessionPhases maps a RunResult's reported phase times onto spans.
func sessionPhases(prefix string, build, opt, extract time.Duration, t repro.Telemetry) []phase {
	return []phase{
		{name: prefix + ".build", d: build},
		{name: prefix + ".opt", d: opt, children: corePhases(t)},
		{name: prefix + ".extract", d: extract},
	}
}

// corePhases maps core.RunWith's Telemetry phases onto spans.
func corePhases(t repro.Telemetry) []phase {
	return []phase{
		{name: "core.setup", d: t.SetupTime},
		{name: "core.search", d: t.SearchTime},
		{name: "core.finalize", d: t.FinalizeTime},
	}
}

// replay generates spec's batch and optimizes it twice, through
// Session.Optimize on the mirror session and layer by layer, recording both
// under one root span named "replay" in trace `trace`. Odd traces run the
// session first and even traces the layers first, so neither side is
// always the one that pays for the other's garbage.
func (r *replayer) replay(ctx context.Context, trace int, spec workload.Spec) (replayed, error) {
	var out replayed
	root := r.tr.begin(trace, 0, "replay")
	defer root.end()

	var batch *logical.Batch
	var err error
	r.layer(trace, root.s.ID, "workload.Generate", func() { batch, err = workload.Generate(spec) })
	if err != nil {
		return out, fmt.Errorf("generating batch: %w", err)
	}

	session := func() error {
		var res *repro.RunResult
		var err error
		var id int
		var start time.Time
		id, start, out.sessionWall = r.layer(trace, root.s.ID, "session.Optimize", func() { res, err = r.mirror.Optimize(ctx, batch) })
		if err != nil {
			return fmt.Errorf("mirror Session.Optimize: %w", err)
		}
		r.tr.synth(trace, id, start, sessionPhases("session", res.BuildTime, res.OptTime, res.ExtractTime, res.Telemetry))
		out.session = outcomeOf(res.Result, res.Plan)
		if err := out.session.check(res.Telemetry.Stopped); err != nil {
			return fmt.Errorf("mirror Session.Optimize: %w", err)
		}
		return nil
	}
	layers := func() error {
		o := r.tr.begin(trace, root.s.ID, "layers")
		var err error
		out.layers, out.groups, err = r.runLayers(ctx, trace, o.s.ID, batch)
		out.layersWall = o.end()
		return err
	}
	first, second := session, layers
	if trace%2 == 0 {
		first, second = layers, session
	}
	if err := first(); err != nil {
		return out, err
	}
	return out, second()
}

// runLayers is the body of Session.Optimize on one batch, one public layer
// call per span, with the options the session passes by default.
func (r *replayer) runLayers(ctx context.Context, trace, parent int, batch *logical.Batch) (outcome, int, error) {
	var m *memo.Memo
	var err error
	r.layer(trace, parent, "memo.Build", func() { m, err = memo.Build(r.cat, r.model, batch, memo.WithBuildCache(r.build)) })
	if err != nil {
		return outcome{}, 0, fmt.Errorf("memo.Build: %w", err)
	}
	var opt *volcano.Optimizer
	r.layer(trace, parent, "physical.NewSearcher", func() {
		s := physical.NewSearcher(m)
		s.AttachSharedCache(r.cache)
		opt = &volcano.Optimizer{Memo: m, Searcher: s}
	})
	var res core.Result
	rid, rstart, _ := r.layer(trace, parent, "core.RunWith", func() {
		res = core.RunWith(ctx, opt, core.MarginalGreedy, core.Config{})
	})
	r.tr.synth(trace, rid, rstart, corePhases(res.Telemetry))
	if res.Fault != nil {
		return outcome{}, 0, fmt.Errorf("core.RunWith: %w", res.Fault)
	}
	var plan *physical.ConsolidatedPlan
	r.layer(trace, parent, "physical.BestPlan", func() { plan = opt.Plan(res.MatSet()) })
	r.layer(trace, parent, "physical.PublishCache", func() { opt.Searcher.PublishCache() })

	out := outcomeOf(res, plan)
	return out, m.NumGroups(), out.check(res.Telemetry.Stopped)
}

// replayRequests replays a run's requests in arrival order through the
// layer replay, for replayShare of the window length (at least one
// request), and checks that both the layer replay and the mirror session
// answer every request exactly as the production path did. It returns the
// replay's per-layer metrics.
func replayRequests(ctx context.Context, cat *catalog.Catalog, res *result, window time.Duration) ([]metric, error) {
	tr := newTracer()
	res.traces["replay"] = tr
	rp, err := newReplayer(cat, tr)
	if err != nil {
		return nil, err
	}
	budget := time.Duration(float64(window) * replayShare)
	start := time.Now()
	var groups, overhead []float64
	for i, r := range res.reqs {
		if i > 0 && time.Since(start) > budget {
			break
		}
		got, err := rp.replay(ctx, i+1, r.spec)
		if err != nil {
			res.fail(fmt.Errorf("replay of spec seed %d: %w", r.spec.Seed, err))
			continue
		}
		if r.err == nil && !(got.layers.equal(r.out) && got.session.equal(r.out)) {
			res.fail(fmt.Errorf("replay of spec seed %d: layers %+v, mirror session %+v, production %+v",
				r.spec.Seed, got.layers, got.session, r.out))
		}
		groups = append(groups, float64(got.groups))
		overhead = append(overhead, msOf(got.layersWall-got.sessionWall))
	}
	return replayLayers(tr, groups, overhead), nil
}
