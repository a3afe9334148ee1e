package server

import (
	"errors"
	"fmt"
	"math"

	"repro"
	"repro/internal/core"
	"repro/internal/physical"
	"repro/internal/strictjson"
	"repro/internal/workload"
)

// Wire limits. Body size is enforced by the HTTP layer (MaxBytesReader);
// these bound what a well-formed body may ask for.
const (
	// maxSQLBytes caps the SQL payload of one request.
	maxSQLBytes = 256 * 1024
	// maxScaleFactor caps the catalog scale factor a request may name.
	maxScaleFactor = 100000
	// maxParallelism caps the per-request worker-pool override.
	maxParallelism = 256
)

// OptimizeRequest is the body of POST /v1/optimize. Exactly one of Spec
// (a workload-generator spec) and SQL (a semicolon-separated SELECT batch)
// must be set.
type OptimizeRequest struct {
	// Tenant attributes the request for admission control; the X-Tenant
	// header takes precedence. Empty means "default".
	Tenant string `json:"tenant,omitempty"`
	// SF is the TPCD catalog scale factor the session pool keys on
	// (default 1).
	SF float64 `json:"sf,omitempty"`
	// ExtendedOps enables the extended operator set (hash join, hash
	// aggregation) for this request's catalog key.
	ExtendedOps bool `json:"extended_ops,omitempty"`
	// Strategy names the MQO algorithm: volcano, greedy, lazygreedy,
	// marginal, lazymarginal, materializeall or volcanosh (default
	// marginal). Exhaustive is not servable — its cost is exponential.
	Strategy string `json:"strategy,omitempty"`
	// Parallelism overrides the oracle worker-pool bound (0 = GOMAXPROCS).
	Parallelism int `json:"parallelism,omitempty"`
	// TimeBudgetMS caps the optimization wall clock; clamped to the
	// tenant's TimeBudgetMS when that is set.
	TimeBudgetMS int64 `json:"time_budget_ms,omitempty"`
	// DeadlineMS is the request's relative SLO deadline for scheduling:
	// deadline requests are served earliest-deadline-first, may cut ahead
	// of other tenants within their DRR deficit, and may preempt a running
	// preemptible request whose deadline is later or absent. 0 falls back
	// to the tenant's DeadlineMS (and to "no deadline" when that is 0 too).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// OracleCallBudget caps the memoized-distinct oracle calls; 0 is
	// meaningful (forbid all calls — the strategies return the empty set),
	// hence the pointer. Clamped to the tenant's CallBudget when set.
	OracleCallBudget *int `json:"oracle_call_budget,omitempty"`
	// Spec generates the batch with the seeded workload generator.
	Spec *workload.Spec `json:"spec,omitempty"`
	// SQL is parsed by internal/parser into the batch.
	SQL string `json:"sql,omitempty"`
	// PlanText asks for the rendered consolidated plan in the response.
	PlanText bool `json:"plan_text,omitempty"`
	// Resume continues an interrupted optimization from the checkpoint an
	// earlier response (or fault body) carried. The batch, sf and
	// extended_ops must reproduce the original search space — the token's
	// fingerprint is verified — and the algorithm comes from the
	// checkpoint, so Strategy is ignored. Budgets apply to the
	// continuation, which can itself checkpoint again.
	Resume *repro.Checkpoint `json:"resume,omitempty"`
}

// decodeOptimizeRequest parses and validates one request body. It is
// strict — unknown fields, trailing data and out-of-range knobs are all
// errors — and never panics, so every failure maps to a 400. maxQueries
// bounds the batch size a spec may request (0 = no bound).
func decodeOptimizeRequest(data []byte, maxQueries int) (*OptimizeRequest, error) {
	var req OptimizeRequest
	if err := strictjson.Decode(data, &req); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	if err := req.validate(maxQueries); err != nil {
		return nil, err
	}
	return &req, nil
}

func (r *OptimizeRequest) validate(maxQueries int) error {
	if (r.Spec == nil) == (r.SQL == "") {
		return errors.New(`exactly one of "spec" and "sql" must be set`)
	}
	if len(r.SQL) > maxSQLBytes {
		return fmt.Errorf("sql payload exceeds %d bytes", maxSQLBytes)
	}
	if math.IsNaN(r.SF) || r.SF < 0 || r.SF > maxScaleFactor {
		return fmt.Errorf("sf must be 0 (server default) or in (0, %d], got %v", maxScaleFactor, r.SF)
	}
	if _, err := parseStrategy(r.Strategy); err != nil {
		return err
	}
	if r.Parallelism < 0 || r.Parallelism > maxParallelism {
		return fmt.Errorf("parallelism must be in [0, %d], got %d", maxParallelism, r.Parallelism)
	}
	if r.TimeBudgetMS < 0 {
		return fmt.Errorf("time_budget_ms must be ≥ 0, got %d", r.TimeBudgetMS)
	}
	if r.DeadlineMS < 0 {
		return fmt.Errorf("deadline_ms must be ≥ 0, got %d", r.DeadlineMS)
	}
	if r.OracleCallBudget != nil && *r.OracleCallBudget < 0 {
		return fmt.Errorf("oracle_call_budget must be ≥ 0, got %d", *r.OracleCallBudget)
	}
	if r.Resume != nil && r.Resume.State == nil {
		return errors.New("resume checkpoint carries no state")
	}
	if r.Spec != nil {
		if err := r.Spec.Validate(); err != nil {
			return err
		}
		if maxQueries > 0 && r.Spec.Queries > maxQueries {
			return fmt.Errorf("spec asks for %d queries, server caps batches at %d", r.Spec.Queries, maxQueries)
		}
	}
	return nil
}

// parseStrategy maps the wire name onto a core.Strategy. Exhaustive is
// deliberately unreachable from the wire: it is exponential in the
// shareable-node count and panics beyond 25 nodes.
func parseStrategy(s string) (core.Strategy, error) {
	switch s {
	case "", "marginal":
		return core.MarginalGreedy, nil
	case "lazymarginal":
		return core.LazyMarginalGreedy, nil
	case "greedy":
		return core.Greedy, nil
	case "lazygreedy":
		return core.LazyGreedyStrategy, nil
	case "volcano":
		return core.Volcano, nil
	case "volcanosh":
		return core.VolcanoSH, nil
	case "materializeall":
		return core.MaterializeAll, nil
	}
	return 0, fmt.Errorf("unknown strategy %q (want volcano, greedy, lazygreedy, marginal, lazymarginal, materializeall or volcanosh)", s)
}

// OptimizeResponse is the body of a successful POST /v1/optimize. Costs
// are model milliseconds (the unit of bestCost); durations are
// nanoseconds, matching the Telemetry tags.
type OptimizeResponse struct {
	Tenant       string         `json:"tenant"`
	Strategy     string         `json:"strategy"`
	Queries      int            `json:"queries"`
	Materialized []int          `json:"materialized"`
	CostMS       float64        `json:"cost_ms"`
	VolcanoMS    float64        `json:"volcano_cost_ms"`
	BenefitMS    float64        `json:"benefit_ms"`
	Plan         PlanSummary    `json:"plan"`
	PlanText     string         `json:"plan_text,omitempty"`
	Telemetry    core.Telemetry `json:"telemetry"`
	BuildNS      int64          `json:"build_ns"`
	OptNS        int64          `json:"opt_ns"`
	ExtractNS    int64          `json:"extract_ns"`
	QueueWaitNS  int64          `json:"queue_wait_ns"`
	// Checkpoint is present when a budget or cancellation stopped the run
	// at a resumable point; POST it back as "resume" to continue.
	Checkpoint *repro.Checkpoint `json:"checkpoint,omitempty"`
	// Degraded marks a run served under the catalog's circuit breaker:
	// clamped budgets and the LazyGreedy fallback strategy.
	Degraded bool `json:"degraded,omitempty"`
	// Preemptions counts how many times this run was suspended at a round
	// boundary to serve nearer-deadline work, then transparently resumed;
	// Telemetry is the conserving merge of all its segments.
	Preemptions int `json:"preemptions,omitempty"`
	// Batched marks a response served from a lane of a batching server
	// (BatchConfig.MaxRequests ≥ 1): the run was shared with BatchSize
	// requests (1: it ran alone) and this response is the request's
	// attributed slice of it. Telemetry is the
	// request's conserving share of the run's counters (summing the shares
	// across the batch reproduces the run exactly), while the costs
	// describe the request's own plan.
	Batched   bool `json:"batched,omitempty"`
	BatchSize int  `json:"batch_size,omitempty"`
	// SharedCreditMS is the compute+write cost of this request's
	// materializations that the other batch members' shares covered — the
	// subsidy it received from being batched.
	SharedCreditMS float64 `json:"shared_credit_ms,omitempty"`
}

// PlanSummary condenses the consolidated plan: one row per
// materialization step and per query, plus the audited total.
type PlanSummary struct {
	Steps   []StepSummary  `json:"steps"`
	Queries []QuerySummary `json:"queries"`
	TotalMS float64        `json:"total_ms"`
}

// StepSummary is one materialization of the consolidated plan.
type StepSummary struct {
	Group       int     `json:"group"`
	Op          string  `json:"op"`
	Rows        float64 `json:"rows"`
	CostMS      float64 `json:"cost_ms"`
	WriteCostMS float64 `json:"write_cost_ms"`
}

// QuerySummary is one query's plan under the chosen materializations.
type QuerySummary struct {
	Name      string  `json:"name"`
	Operators int     `json:"operators"`
	CostMS    float64 `json:"cost_ms"`
}

// summarizePlan renders attribution a's slice of a consolidated plan:
// the materialization steps a owns a share of, and exactly its queries'
// plans. TotalMS is the member's attributed cost, so a
// client summing its own responses reconstructs the batch totals.
func summarizePlan(cp *physical.ConsolidatedPlan, a repro.Attribution) PlanSummary {
	ps := PlanSummary{
		Steps:   make([]StepSummary, 0, len(a.Materialized)),
		Queries: make([]QuerySummary, 0, a.QueryCount),
		TotalMS: a.Cost,
	}
	for _, st := range cp.Steps {
		if !a.Set.Has(st.Group) {
			continue
		}
		ps.Steps = append(ps.Steps, StepSummary{
			Group:       int(st.Group),
			Op:          st.Plan.Op,
			Rows:        st.Plan.Rows,
			CostMS:      st.Plan.Cost,
			WriteCostMS: st.WriteCost,
		})
	}
	for i := a.QueryOffset; i < a.QueryOffset+a.QueryCount && i < len(cp.Queries); i++ {
		name := ""
		if i < len(cp.QueryNames) {
			name = cp.QueryNames[i]
		}
		ps.Queries = append(ps.Queries, QuerySummary{
			Name:      name,
			Operators: countOps(cp.Queries[i]),
			CostMS:    cp.Queries[i].Cost,
		})
	}
	return ps
}

func countOps(p *physical.PlanNode) int {
	if p == nil {
		return 0
	}
	n := 1
	for _, c := range p.Children {
		n += countOps(c)
	}
	return n
}

// Stable machine-readable reasons carried by errorBody.Code. Clients
// dispatch on these; the human-readable Error text is not contractual.
const (
	codeBadRequest     = "bad_request"
	codeBodyTooLarge   = "body_too_large"
	codeQueueFull      = "queue_full"
	codeQuotaExhausted = "quota_exhausted"
	codeTenantOverflow = "tenant_overflow"
	codeQueueTimeout   = "queue_timeout"
	codeUnknownTenant  = "unknown_tenant"
	// codeTenantNotFound: POST /v1/tenants/{name}/reset named a tenant the
	// admission controller holds no state for.
	codeTenantNotFound = "tenant_not_found"
	codeDraining       = "draining"
	codeBreakerOpen    = "breaker_open"
	codeResumeMismatch = "resume_mismatch"
	codeInternalPanic  = "internal_panic"
	codeInternalError  = "internal_error"
	// codeSnapshotMissing: GET /v1/cache/snapshot named a catalog key with
	// no pooled session — there is no warmth to export.
	codeSnapshotMissing = "snapshot_missing"
	// codeSnapshotMismatch: PUT /v1/cache/snapshot carried a snapshot whose
	// scope does not name a catalog key this server serves.
	codeSnapshotMismatch = "snapshot_mismatch"
)

// errorBody is the JSON body of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	// Code is the stable machine-readable reason (one of the code*
	// constants above).
	Code         string `json:"code"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	// Incident correlates a recovered panic with the server log.
	Incident string `json:"incident,omitempty"`
	// Checkpoint carries the resumable state a faulted run had committed
	// before its panic; POST it back as "resume" to continue on a fresh
	// session.
	Checkpoint *repro.Checkpoint `json:"checkpoint,omitempty"`
}
