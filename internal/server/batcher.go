package server

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/logical"
	"repro/internal/memo"
)

// BatchConfig parameterizes cross-request continuous batching. The zero
// value does no coalescing: every request runs at once as a lane of one.
type BatchConfig struct {
	// MaxRequests flushes a lane as soon as this many requests wait in it.
	// At most 1 (the zero value) means no coalescing: every request runs
	// at once as a lane of one. Responses carry batched/batch_size when it
	// is at least 1.
	MaxRequests int `json:"max_requests,omitempty"`
	// MaxDelayMS is the longest the first request of a lane waits for
	// peers before the lane flushes anyway (default 5).
	MaxDelayMS int64 `json:"max_delay_ms,omitempty"`
	// MaxQueries flushes a lane when its combined query count reaches this
	// bound (0 = requests-only flushing). It caps the size of the combined
	// DAG one shared run must carry.
	MaxQueries int `json:"max_queries,omitempty"`
}

func (c BatchConfig) normalize() BatchConfig {
	if c.MaxDelayMS <= 0 {
		c.MaxDelayMS = 5
	}
	return c
}

func (c BatchConfig) maxDelay() time.Duration {
	return time.Duration(c.MaxDelayMS) * time.Millisecond
}

// laneKey identifies one batchable stream: requests coalesce only when
// they target the same catalog, resolve to the same effective run spec
// (strategy, parallelism, budgets after tenant and degradation clamps)
// and the same degradation state, so the single shared run's options are
// exactly what every member would have run solo with. Tenancy is NOT part
// of the key — cross-tenant sharing is the point, and the attribution
// split keeps each tenant's accounting exact.
type laneKey struct {
	pool     poolKey
	spec     runSpec
	degraded bool
}

// batchMember is one admitted request: what its run needs (batch,
// grant, resume checkpoint) and what its answer reports. In a lane, its
// outcome channel (buffered, written exactly once) carries the answer
// back to the handler.
type batchMember struct {
	ctx       context.Context
	batch     *logical.Batch
	fp        string // batch fingerprint; "" = not coalescible
	tenant    string
	planText  bool
	grant     *Grant            // the admission hold preemption suspends and resumes
	resume    *repro.Checkpoint // non-nil: continue this checkpoint (never coalesces)
	queueWait time.Duration     // admission wait, reported in the response
	outcome   chan batchOutcome
}

// batchOutcome is the terminal state of one member: a 200 response, an
// error response, or a pre-run cancellation. spent is the member's exact
// oracle-call share, charged against its tenant quota by the handler's
// admission release.
type batchOutcome struct {
	resp      *OptimizeResponse // non-nil: answer 200
	status    int               // else: answer status/body
	body      *errorBody
	spent     int
	cancelled bool // client gone before the run started: answer 499
}

// inBatchOf marks a 200 answer as a slice of an n-member batch.
func (o batchOutcome) inBatchOf(n int) batchOutcome {
	if o.resp != nil {
		o.resp.Batched, o.resp.BatchSize = true, n
	}
	return o
}

// lane is the accumulating state of one laneKey: members joined since the
// last flush, their combined query count, and the deadline timer armed by
// the first member. A lane is detached (removed from the map, timer
// disarmed) exactly once — by the size/query trigger or by the deadline —
// and then owned by the goroutine running it.
type lane struct {
	key       laneKey
	members   []*batchMember
	queries   int
	flushed   bool
	detached  chan struct{}
	stopTimer func() bool
}

// batcher is the one serving path of optimize requests. Each admitted
// request runs as a member of a lane: alone when it cannot coalesce, else
// after waiting in a per-laneKey lane, whose flush coalesces the waiting
// members' batches into one combined DAG, runs one shared optimization,
// and attributes the result back per member — exact materialization
// slices, conserving telemetry shares, per-tenant quota charges.
type batcher struct {
	srv *Server
	cfg BatchConfig

	mu    sync.Mutex
	lanes map[laneKey]*lane

	// newTimer is the deadline-clock hook; tests swap it for a manual
	// trigger so flush timing is deterministic.
	newTimer func(time.Duration) (<-chan time.Time, func() bool)
	// onBatchComplete, when non-nil, observes every successful run: the
	// run's total telemetry and the per-member shares it was split into
	// (a lone run is its own single share). The race-stress conservation
	// audit hangs off it.
	onBatchComplete func(total core.Telemetry, shares []core.Telemetry)
	// onBatchFault mirrors onBatchComplete for faulted runs: the telemetry
	// the run burned before its panic and the conserving per-member shares
	// it was charged out as.
	onBatchFault func(total core.Telemetry, shares []core.Telemetry)
	// coalesced counts members deduplicated away by fingerprint
	// coalescing.
	coalesced atomic.Int64
}

func newBatcher(srv *Server, cfg BatchConfig) *batcher {
	return &batcher{
		srv:   srv,
		cfg:   cfg,
		lanes: make(map[laneKey]*lane),
		newTimer: func(d time.Duration) (<-chan time.Time, func() bool) {
			t := time.NewTimer(d)
			return t.C, t.Stop
		},
	}
}

// batchFingerprint renders the coalescing key of one member batch: the
// concatenated structural fingerprints and names of its queries. Members
// with equal fingerprints submitted structurally identical batches and
// are served from one shared sub-run. ok=false (some query is not
// fingerprintable) makes the member unique — it still batches, it just
// never deduplicates.
func batchFingerprint(b *logical.Batch) (string, bool) {
	if b == nil || len(b.Queries) == 0 {
		return "", false
	}
	key := ""
	for _, q := range b.Queries {
		fp, ok := memo.QueryFingerprint(q)
		if !ok {
			return "", false
		}
		key += strconv.Itoa(len(q.Name)) + ";" + q.Name + ";" + fp + "\x00"
	}
	return key, true
}

// coalesceBatches deduplicates member batches by fingerprint: the
// returned groups hold one batch per distinct fingerprint (first
// submitter wins, order preserved), and memberGroup maps each member to
// its group. Members without a fingerprint get their own group.
func coalesceBatches(members []*batchMember) (groups []*logical.Batch, memberGroup []int) {
	memberGroup = make([]int, len(members))
	index := make(map[string]int, len(members))
	for i, m := range members {
		if m.fp != "" {
			if gi, ok := index[m.fp]; ok {
				memberGroup[i] = gi
				continue
			}
			index[m.fp] = len(groups)
		}
		memberGroup[i] = len(groups)
		groups = append(groups, m.batch)
	}
	return groups, memberGroup
}

// submit runs one admitted request and returns its outcome. A request
// that cannot coalesce — MaxRequests ≤ 1, or a resume checkpoint, which
// binds to its own search space — runs at once on the caller's goroutine
// as a lane of one, never entering the lane map. Any other request
// enqueues into its lane and blocks until the lane's run delivers its
// outcome, which always arrives: flushes deliver to every member
// (including pre-run cancellations), and the run path is panic-isolated.
func (b *batcher) submit(key laneKey, m *batchMember) batchOutcome {
	if b.cfg.MaxRequests <= 1 || m.resume != nil {
		o := b.runOne(key, m, m.resume != nil || preemptibleStrategy(key.spec.strategy))
		if b.cfg.MaxRequests == 1 && m.resume == nil {
			o = o.inBatchOf(1)
		}
		return o
	}
	m.fp, _ = batchFingerprint(m.batch)
	m.outcome = make(chan batchOutcome, 1)
	b.mu.Lock()
	l := b.lanes[key]
	if l == nil {
		l = &lane{key: key, detached: make(chan struct{})}
		ch, stop := b.newTimer(b.cfg.maxDelay())
		l.stopTimer = stop
		b.lanes[key] = l
		go func() {
			select {
			case <-ch:
				b.flush(l)
			case <-l.detached:
			}
		}()
	}
	l.members = append(l.members, m)
	l.queries += len(m.batch.Queries)
	if len(l.members) >= b.cfg.MaxRequests || (b.cfg.MaxQueries > 0 && l.queries >= b.cfg.MaxQueries) {
		b.detachLocked(l)
		b.mu.Unlock()
		// The filling request's goroutine drives the shared run; its own
		// outcome is buffered, so running before receiving cannot deadlock.
		b.run(l)
	} else {
		b.mu.Unlock()
	}
	return <-m.outcome
}

// detachLocked removes the lane from the map and disarms its timer; the
// caller then owns the lane exclusively.
func (b *batcher) detachLocked(l *lane) {
	l.flushed = true
	delete(b.lanes, l.key)
	close(l.detached)
	l.stopTimer()
}

// flush is the deadline trigger: detach the lane unless the size trigger
// beat the timer, then run it.
func (b *batcher) flush(l *lane) {
	b.mu.Lock()
	if l.flushed {
		b.mu.Unlock()
		return
	}
	b.detachLocked(l)
	b.mu.Unlock()
	b.run(l)
}

// deliverer tracks which members already got their outcome, so the panic
// backstop can finish exactly the undelivered ones.
type deliverer struct {
	members []*batchMember
	sent    []bool
}

func (d *deliverer) deliver(i int, o batchOutcome) {
	if d.sent[i] {
		return
	}
	d.sent[i] = true
	d.members[i].outcome <- o
}

// run executes one detached lane: excise already-cancelled members, run
// a lone survivor with runOne, and otherwise coalesce the survivors by
// fingerprint, run one shared optimization on the lane's catalog session,
// and attribute the outcome per member. Every member receives exactly one
// outcome, whatever happens — including a panic anywhere in this
// function.
func (b *batcher) run(l *lane) {
	s := b.srv
	d := &deliverer{members: l.members, sent: make([]bool, len(l.members))}
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		id := s.incident()
		s.panics.Add(1)
		s.logf("server: batch %s: panic recovered (incident %s): %v", l.key.pool, id, rec)
		for i := range l.members {
			d.deliver(i, batchOutcome{
				status: 500,
				body: &errorBody{
					Error:    "internal error (incident " + id + ")",
					Code:     codeInternalPanic,
					Incident: id,
				},
			})
		}
	}()

	// A member whose client disconnected while the lane filled is excised
	// here: answered 499, never part of the shared run.
	live := make([]int, 0, len(l.members))
	for i, m := range l.members {
		if m.ctx.Err() != nil {
			d.deliver(i, batchOutcome{cancelled: true})
			continue
		}
		live = append(live, i)
	}
	switch len(live) {
	case 0:
		return
	case 1:
		i := live[0]
		d.deliver(i, b.runOne(l.key, l.members[i], preemptibleStrategy(l.key.spec.strategy)).inBatchOf(1))
		return
	}

	liveMembers := make([]*batchMember, len(live))
	for k, i := range live {
		liveMembers[k] = l.members[i]
	}
	groups, memberGroup := coalesceBatches(liveMembers)
	b.coalesced.Add(int64(len(live) - len(groups)))

	sess, release, err := s.pool.acquire(l.key.pool)
	if err != nil {
		for _, i := range live {
			d.deliver(i, batchOutcome{status: 500, body: &errorBody{Error: err.Error(), Code: codeInternalError}})
		}
		return
	}
	defer release()
	defer func() {
		if rec := recover(); rec != nil {
			s.pool.quarantine(l.key.pool, sess)
			s.breaker.recordFailure(l.key.pool)
			panic(rec) // the outer backstop answers the members
		}
	}()

	// The shared run is cancelled only when EVERY live member's client is
	// gone; one disconnect must not abort the run the others are riding.
	runCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var remaining atomic.Int32
	remaining.Store(int32(len(live)))
	stops := make([]func() bool, 0, len(live))
	for _, m := range liveMembers {
		stops = append(stops, context.AfterFunc(m.ctx, func() {
			if remaining.Add(-1) == 0 {
				cancel()
			}
		}))
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()

	sres, err := sess.OptimizeShared(runCtx, groups, l.key.spec.options()...)
	if err != nil {
		var fe *repro.FaultError
		if errors.As(err, &fe) {
			b.faultBatch(l, live, sess, fe, d)
			return
		}
		// The combined build failed — typically one member's batch is
		// invalid against the catalog. Run each member alone so an
		// innocent member is never 400'd for a peer's bad request.
		for _, i := range live {
			d.deliver(i, b.runOne(l.key, l.members[i], false))
		}
		return
	}
	b.recordRun(l.key.pool, sres.Telemetry)

	// Split each group's attribution among the members it was coalesced
	// from. Group attributions conserve against the run exactly
	// (repro.OptimizeShared's contract) and SplitTelemetry conserves each
	// group's share exactly, so summing every member's telemetry
	// reproduces the run's — the invariant the quota charges and the
	// race-stress audit check.
	sharers := make([][]int, len(groups)) // group -> positions in live order
	for k, gi := range memberGroup {
		sharers[gi] = append(sharers[gi], k)
	}
	shares := make([]core.Telemetry, len(live))
	for gi, a := range sres.Attributions {
		split := repro.SplitTelemetry(a.Telemetry, ones(len(sharers[gi])))
		for j, k := range sharers[gi] {
			shares[k] = split[j]
		}
	}
	if b.onBatchComplete != nil {
		b.onBatchComplete(sres.Telemetry, shares)
	}

	// PlanText and checkpoints span the combined run — every member's
	// queries and search space — so no member of a shared run gets them.
	for k, i := range live {
		a := sres.Attributions[memberGroup[k]]
		a.Telemetry = shares[k]
		resp := respond(l.key, liveMembers[k], sres.RunResult, a)
		d.deliver(i, batchOutcome{resp: resp, spent: shares[k].OracleCalls}.inBatchOf(len(live)))
	}
}

// ones is n unit weights: an even SplitTelemetry split.
func ones(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// faultBatch answers every live member of a faulted shared run: one
// incident, one quarantine, one breaker failure — but each member is
// charged its exact telemetry share of the work the run burned before the
// panic, so the fault costs tenants what it actually cost the server.
func (b *batcher) faultBatch(l *lane, live []int, sess *repro.Session, fe *repro.FaultError, d *deliverer) {
	body := b.fault(l.key.pool, sess, "batch "+l.key.pool.String(), fe)
	body.Checkpoint = nil // it resumes only the combined batch
	shares := repro.SplitTelemetry(fe.Telemetry, ones(len(live)))
	if b.onBatchFault != nil {
		b.onBatchFault(fe.Telemetry, shares)
	}
	for k, i := range live {
		d.deliver(i, batchOutcome{status: 500, body: body, spent: shares[k].OracleCalls})
	}
}

// fault handles a run stopped by a recovered worker panic: one incident,
// one quarantine of the run's session, one breaker failure. It returns
// the 500 body, carrying whatever resumable state the run had committed.
func (b *batcher) fault(key poolKey, sess *repro.Session, who string, fe *repro.FaultError) *errorBody {
	s := b.srv
	id := s.incident()
	s.panics.Add(1)
	s.pool.quarantine(key, sess)
	s.breaker.recordFailure(key)
	s.logf("server: %s: optimization faulted (incident %s): %v", who, id, fe.Panic)
	return &errorBody{
		Error:      "optimization faulted (incident " + id + ")",
		Code:       codeInternalPanic,
		Incident:   id,
		Checkpoint: fe.Checkpoint,
	}
}

// recordRun feeds a completed run to its catalog's breaker. A deadline
// stop is a failure — a catalog that cannot finish inside its budgets
// degrades before it monopolizes the pool.
func (b *batcher) recordRun(key poolKey, tel core.Telemetry) {
	if tel.Stopped == repro.StopTimeBudget {
		b.srv.breaker.recordFailure(key)
	} else {
		b.srv.breaker.recordSuccess(key)
	}
}

// runOne runs member m alone on a session of key's catalog and answers
// it: the run of a lane of one, and the fallback for each member of a
// lane whose combined build failed. A preemptible run offers m's grant to
// the scheduler as a preemption victim: asked to suspend, it stops at its
// next round boundary with a checkpoint, yields the slot, waits for a
// re-grant and resumes from the checkpoint. Segment telemetry is merged,
// so the response — and the quota charge — count the run's work exactly
// once across the suspensions.
func (b *batcher) runOne(key laneKey, m *batchMember, preemptible bool) batchOutcome {
	s := b.srv
	sess, release, err := s.pool.acquire(key.pool)
	if err != nil {
		return batchOutcome{status: 500, body: &errorBody{Error: err.Error(), Code: codeInternalError}}
	}
	defer release()
	// A panic past this point may have corrupted the shared session: pull
	// it from the pool before letting the panic travel on.
	defer func() {
		if rec := recover(); rec != nil {
			s.pool.quarantine(key.pool, sess)
			s.breaker.recordFailure(key.pool)
			panic(rec)
		}
	}()

	g, resume := m.grant, m.resume
	spent := 0 // oracle calls of the suspended segments
	var segs []repro.Telemetry
	var res *repro.RunResult
	for {
		opts := key.spec.options()
		if resume != nil {
			opts = append(opts, repro.WithResume(resume))
		}
		if preemptible {
			g.SetPreemptible(true)
			opts = append(opts, repro.WithPreemptSignal(g.PreemptRequested))
		}
		res, err = sess.Optimize(m.ctx, m.batch, opts...)
		if err != nil || res.Telemetry.Stopped != repro.StopPreempted {
			break
		}
		// Suspended at a round boundary. A nil checkpoint means the
		// strategy was in a non-checkpointable phase: it still yields, but
		// restarts from the original request afterwards and stops
		// volunteering as a victim (the burned segment stays charged).
		if res.Checkpoint == nil {
			preemptible = false
			g.SetPreemptible(false)
			resume = m.resume
		} else {
			resume = res.Checkpoint
		}
		if yerr := g.Yield(m.ctx); yerr != nil {
			// No re-grant (queue-wait timeout or the client left): stop
			// here. The suspended segment's committed prefix plus its
			// checkpoint is exactly the shape of a budget stop, so it
			// falls through to the normal response.
			s.logf("server: %s: preempted run not resumed: %v", m.tenant, yerr)
			break
		}
		segs = append(segs, res.Telemetry)
		spent += res.Telemetry.OracleCalls
	}
	if preemptible {
		g.SetPreemptible(false)
	}
	if err != nil {
		var fe *repro.FaultError
		switch {
		case errors.As(err, &fe):
			// A worker panic was recovered inside the optimizer: answer
			// with an incident id plus any resumable state the run had
			// committed, and charge the work the faulted run did burn.
			if b.onBatchFault != nil {
				b.onBatchFault(fe.Telemetry, []core.Telemetry{fe.Telemetry})
			}
			return batchOutcome{status: 500, body: b.fault(key.pool, sess, m.tenant, fe), spent: spent + fe.Telemetry.OracleCalls}
		case errors.Is(err, repro.ErrResumeMismatch):
			return batchOutcome{status: 409, body: &errorBody{Error: err.Error(), Code: codeResumeMismatch}, spent: spent}
		}
		// NewOptimizer rejects batches that are invalid against the
		// catalog (unknown tables/columns, malformed predicates): the
		// request's fault, not the server's.
		return batchOutcome{status: 400, body: &errorBody{Error: err.Error(), Code: codeBadRequest}, spent: spent}
	}
	if len(segs) > 0 {
		res.Telemetry = repro.MergeSegments(append(segs, res.Telemetry))
	}
	b.recordRun(key.pool, res.Telemetry)
	if b.onBatchComplete != nil {
		b.onBatchComplete(res.Telemetry, []core.Telemetry{res.Telemetry})
	}

	resp := respond(key, m, res, repro.Attribution{
		QueryCount:   len(m.batch.Queries),
		Materialized: res.Materialized,
		Set:          res.Set,
		Cost:         res.Cost,
		VolcanoCost:  res.VolcanoCost,
		Benefit:      res.Benefit,
		Telemetry:    res.Telemetry,
	})
	resp.Plan.TotalMS = res.Plan.Total // the whole plan, with its audited total
	resp.Checkpoint = res.Checkpoint
	resp.Preemptions = g.Preemptions()
	if m.resume != nil {
		resp.Strategy = m.resume.State.Algorithm // non-nil State: decode-validated
	}
	if m.planText {
		resp.PlanText = res.Plan.String()
	}
	return batchOutcome{resp: resp, spent: res.Telemetry.OracleCalls}
}

// respond builds member m's 200 answer from run res and m's attribution
// a of it (the whole run when m ran alone).
func respond(key laneKey, m *batchMember, res *repro.RunResult, a repro.Attribution) *OptimizeResponse {
	resp := &OptimizeResponse{
		Tenant:         m.tenant,
		Strategy:       key.spec.strategy.String(),
		Queries:        len(m.batch.Queries),
		Materialized:   make([]int, 0, len(a.Materialized)),
		CostMS:         a.Cost,
		VolcanoMS:      a.VolcanoCost,
		BenefitMS:      a.Benefit,
		SharedCreditMS: a.SharedCredit,
		Plan:           summarizePlan(res.Plan, a),
		Telemetry:      a.Telemetry,
		BuildNS:        res.BuildTime.Nanoseconds(),
		OptNS:          res.OptTime.Nanoseconds(),
		ExtractNS:      res.ExtractTime.Nanoseconds(),
		QueueWaitNS:    m.queueWait.Nanoseconds(),
		Degraded:       key.degraded,
	}
	for _, g := range a.Materialized {
		resp.Materialized = append(resp.Materialized, int(g))
	}
	return resp
}
