// Package server is the HTTP serving front end over repro.Session: a thin
// JSON API that turns the ctx-aware, concurrent-safe optimizer into a
// multi-tenant network service with explicit admission control.
//
// # Endpoints
//
//	POST /v1/optimize  optimize one batch (workload spec or SQL payload);
//	                   returns the materialization set, a plan summary and
//	                   the full core.Telemetry of the run
//	GET  /v1/stats     per-tenant admission counters incl. quota-bucket
//	                   refill state (quota_remaining, refill_per_sec,
//	                   next_admit_ms), session-pool stats (live + retired
//	                   aggregate), recovered-panic count, per-catalog
//	                   breaker states
//	POST /v1/tenants/{tenant}/reset  admin: refill the tenant's quota
//	                   bucket to capacity and return its fresh stats
//	GET  /healthz      200 while serving ("ok", or "degraded" with the
//	                   non-closed breakers listed), 503 while draining
//
// # Admission-control contract
//
// Every optimize request is attributed to a tenant (the X-Tenant header or
// the request's "tenant" field; "default" when absent) and passes the
// tenant's admission gate before any optimizer work happens:
//
//   - Concurrency: at most MaxConcurrent requests of a tenant run at once.
//   - Queueing: excess requests wait in a bounded per-tenant queue of
//     QueueDepth slots. A request whose queue wait exceeds QueueWait is
//     rejected with 503 and a Retry-After header; a request arriving at a
//     full queue is rejected immediately with 429 and Retry-After. Without
//     a shared slot pool (SchedConfig.Slots == 0) freed slots are handed
//     out in arrival order; with one, dispatch order is the scheduling
//     policy's (below).
//   - Quota: when CallQuota > 0, the tenant's completed requests are
//     charged their actual Telemetry.OracleCalls against a token bucket;
//     a tenant whose bucket is empty is rejected with 429 and a
//     Retry-After computed from the actual refill rate. With
//     RefillPerSec == 0 the bucket is manual-reset-only (ResetQuota or
//     the admin endpoint), and exhaustion also cuts the tenant's wait
//     queue — queued requests get the 429 immediately instead of burning
//     their deadline.
//   - Budgets: TimeBudget and CallBudget cap each admitted request via
//     repro.WithTimeBudget / WithOracleCallBudget. A request may ask for
//     tighter budgets than the tenant's; looser ones are clamped to the
//     tenant cap. A budgeted run that stops early still returns 200 — the
//     deterministic best-so-far result with Telemetry.Stopped saying why.
//   - Cancellation: the request context is the optimize context, so a
//     client disconnect stops the run between oracle rounds and frees the
//     tenant's slot promptly.
//
// Rejected requests never touch a session: they are not counted in
// SessionStats and spend no oracle calls. Admitted requests are charged
// exactly once, on completion, even when the client has gone away.
// Faulted requests (below) are charged the oracle calls their run made
// before the fault; in SessionStats they appear only as Faults.
//
// Every non-2xx body carries a stable machine-readable "code" field
// (bad_request, body_too_large, queue_full, quota_exhausted,
// queue_timeout, tenant_overflow, unknown_tenant, draining, breaker_open,
// resume_mismatch, internal_panic, internal_error) — clients dispatch on
// the code; the human-readable "error" text is not contractual.
//
// # Scheduling and SLO-aware preemption
//
// With SchedConfig.Slots > 0 every tenant additionally competes for a
// shared worker-slot pool, dispatched by SchedConfig.Policy:
//
//   - PolicyDRR (default) is deficit round-robin: a rotation pointer
//     parks on one tenant, replenishes its deficit by Quantum×Weight once
//     per visit, serves it while the deficit covers the head request's
//     cost (its query count), then advances. Over any backlogged window
//     each tenant's share of dispatched work is proportional to its
//     Weight; a request costing more than one quantum accumulates deficit
//     across rotations instead of starving or being starved.
//   - Earliest-deadline-first cut-ahead: a waiter with a deadline (the
//     request's deadline_ms, falling back to the tenant's DeadlineMS) may
//     jump the round-robin order, borrowing up to one Quantum×Weight of
//     deficit debt. The borrow bound keeps an SLO tenant from starving
//     bulk tenants: past it, the deadline waiter falls back to weighted
//     order until its deficit recovers. Deficits (debts and credits
//     alike) expire when a tenant's queue drains — fairness is over busy
//     periods, not eternity.
//   - PolicyFIFO dispatches strictly in global arrival order and ignores
//     weights and deadlines — the baseline the CI fairness gate measures
//     DRR against.
//
// Unless SchedConfig.NoPreempt is set, a deadline waiter that cannot be
// dispatched picks one running preemptible victim — the grant with the
// latest deadline, deadline-less bulk work first — and asks it to
// suspend. The victim's run stops at its next greedy round boundary with
// a checkpoint, yields its slot (the freed slot goes to the
// earliest-deadline waiter), re-enters its tenant's queue at its
// original arrival position — ahead of later arrivals — and resumes
// transparently via the checkpoint when re-granted. The client sees one
// ordinary 200 whose "preemptions" field counts the suspensions. If
// re-granting exceeds the tenant's queue wait, the client instead gets
// the completed-prefix response with Stopped "preempted" and a resumable
// checkpoint — the same contract as a budget stop.
//
// What preemption conserves, exactly and approximately:
//
//   - The result — materialization set, cost, volcano cost, benefit —
//     plus Rounds and Pruned are bit-identical to the unpreempted run,
//     however many times the run was suspended. The CI fairness gate and
//     the preemption suites pin this.
//   - Telemetry.OracleCalls grows by exactly one per resumed segment: the
//     continuation re-derives the committed selection's value against a
//     fresh per-run memo. A response's total spend is therefore the
//     unpreempted run's calls + its Preemptions count.
//   - The tenant's quota is charged the response's actual merged
//     OracleCalls — charge and report always agree.
//   - BCCalls and CacheHits are NOT conserved: segments re-enter the
//     session's shared cost cache with whatever warmth it has by then.
//
// # Continuous batching
//
// Every admitted optimize request takes one path: it becomes a member of
// a lane, and the batcher runs the lane and answers each member. A lane
// is keyed by everything that must match for one shared run to stand in
// for each member's own run: the catalog (pool key), the fully-clamped
// effective run spec (strategy, parallelism, time and call budgets after
// tenant caps and degradation clamps), and the degradation flag. Tenancy
// is deliberately NOT in the key — cross-tenant sharing is the point, and
// attribution keeps each tenant's accounting exact.
//
// A lane of one member runs that member alone, with one Session.Optimize
// run that is preemptible (see above) when its strategy checkpoints. With
// Batch.MaxRequests ≤ 1 (the zero value) nothing coalesces: every request
// runs at once as a lane of one, never waiting. So does every request
// carrying a resume checkpoint, whatever the config (a checkpoint binds
// to its original search space).
//
// With MaxRequests ≥ 2, other requests wait in their lane, which flushes
// when MaxRequests members wait in it, when their combined query count
// reaches MaxQueries (if set), or when the first member has waited
// MaxDelay. The flush first excises members whose clients already
// disconnected (answered 499, never part of the run). A lone survivor runs
// alone, preemptible like any lane of one. Otherwise the survivors
// coalesce: members whose batches are structurally identical — equal
// per-query memo fingerprints and names — collapse into ONE group served
// by one sub-run (eight identical clients cost one solo run, the
// throughput lever), while distinct batches stay separate groups of one
// combined DAG. One Session.OptimizeShared call optimizes all groups
// together and returns per-group attributions. A shared run is never
// preempted.
//
// Attribution is exact, not estimated: each member receives its own
// materialization-set slice, its own plan summary (only its queries, only
// the steps its attribution owns a share of), its own cost/benefit plus a
// SharedCreditMS subsidy, and a conserving telemetry share — summing the
// members' Telemetry fields reproduces the shared run's exactly, which is
// what the tenant quota is charged with (one member of an n-way
// coalesced group pays ~1/n of that group's oracle calls). The same
// conservation holds for faulted runs: the telemetry the run burned
// before a panic is split across the members and charged, under one
// incident id and one session quarantine. Disconnection of SOME members
// never aborts a running shared optimization (the survivors are riding
// it); only when every member's client is gone is the run cancelled. A
// member whose batch is invalid against the catalog cannot poison its
// peers: after a failed combined build each member runs alone (not
// preemptible), so the guilty request gets its own 400 and the others are
// served unbatched.
//
// Responses carry "batched":true and batch_size when the server batches
// (MaxRequests ≥ 1) and the request ran in a lane: batch_size 1 for a
// lane of one, never for a resume request or a fallback run. A member of
// a shared run gets neither PlanText nor a resumable checkpoint — the
// combined run's rendered plan and checkpoints span every member's
// queries and search space; a lane of one gets both, and reports its
// preemptions. Sizing: members waiting in a lane hold their admission
// slots, so a tenant's MaxConcurrent should be at least Batch.MaxRequests
// (the default 5ms MaxDelay bounds the wait regardless, but an undersized
// tenant can never fill a lane and loses the coalescing win).
//
// # Fault tolerance
//
// A panic inside an optimization — in the batched-oracle workers, the
// executor's wavefront tasks, or the handler itself — never kills the
// process. Worker goroutines recover into a typed faultinject.PanicError;
// the handler answers 500 with code internal_panic, an incident id (also
// logged with the stack), and any round-boundary checkpoint the run had
// committed. The owning session is quarantined: removed from the pool at
// once (in-flight pins defer its retirement, so concurrent runs keep
// their shared cache) and rebuilt on the key's next request; its lifetime
// stats fold into the retired aggregate /v1/stats reports, so telemetry
// conservation — pooled + retired stats = sum over responses — survives
// the churn.
//
// Budget- or cancellation-stopped runs return a resumable checkpoint in
// the response; POST it back as "resume" to continue bit-identically on
// any server instance whose batch, sf and extended_ops reproduce the
// original search space (fingerprint-verified; mismatch is a 409 with
// code resume_mismatch).
//
// Each catalog (pool key) carries a circuit breaker. Repeated recovered
// panics or time-budget deadline stops move it closed → degraded —
// requests still answer 200 but under clamped budgets and the cheap
// LazyGreedy fallback, flagged "degraded":true — and, if failures
// continue, degraded → open: 503 + Retry-After with code breaker_open
// until a cooldown admits one degraded probe, whose outcome decides
// between reopening and recovery. /healthz reports any non-closed breaker
// under status "degraded" (still 200 — the instance serves).
//
// Tenant names are attacker-controlled input: they must be short
// printable ASCII (400 otherwise), and a non-strict controller allocates
// state for at most 4096 distinct lazily-created names (429 beyond that),
// so request-invented tenants cannot grow server memory without bound.
//
// # Draining
//
// Server.Drain flips the server into draining mode: new optimize requests
// are rejected with 503 + Retry-After and /healthz turns 503, while
// requests already admitted (running or queued) finish normally. The
// mqoserver binary calls Drain on SIGTERM/SIGINT and then http.Server.
// Shutdown, which waits for the in-flight handlers.
//
// # Determinism
//
// The front end adds no nondeterminism: for a given spec/SQL payload,
// strategy and parallelism, the response's materialization set, costs and
// oracle-call telemetry are bit-identical to a direct Session.Optimize
// call (the session's shared cost cache can only add SharedHits, never
// change a result). The e2e tests pin this byte-for-byte. Under
// preemption the result stays bit-identical and only OracleCalls moves,
// by exactly the response's Preemptions count (one re-derivation per
// resumed segment — see the scheduling section).
package server
