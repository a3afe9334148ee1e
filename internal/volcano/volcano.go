// Package volcano is the optimizer facade: it builds and expands the
// combined AND-OR DAG for a batch of queries and exposes the black-box
// bestCost(Q, S) oracle and consolidated-plan extraction that the MQO
// algorithms (internal/core) are written against. The name follows the
// Volcano/Cascades framework the paper targets.
package volcano

import (
	"context"

	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/logical"
	"repro/internal/memo"
	"repro/internal/physical"
)

// Optimizer is the multi-query optimizer state for one batch.
type Optimizer struct {
	Memo     *memo.Memo
	Searcher *physical.Searcher
}

// NewOptimizer builds and fully expands the combined DAG for the batch.
// Options are forwarded to memo.Build (rule ablations).
func NewOptimizer(cat *catalog.Catalog, model cost.Model, batch *logical.Batch, opts ...memo.Option) (*Optimizer, error) {
	m, err := memo.Build(cat, model, batch, opts...)
	if err != nil {
		return nil, err
	}
	return &Optimizer{Memo: m, Searcher: physical.NewSearcher(m)}, nil
}

// NewNodeSet returns a materialization set over this optimizer's shareable
// nodes containing the given groups.
func (o *Optimizer) NewNodeSet(ids ...memo.GroupID) physical.NodeSet {
	return o.Searcher.NewNodeSet(ids...)
}

// BestCost is bc(S): the cost of the optimal consolidated plan given that
// exactly the nodes of S are materialized (including the cost of computing
// and writing them).
func (o *Optimizer) BestCost(s physical.NodeSet) float64 {
	return o.Searcher.BestCost(s)
}

// BestCostBatchCtx evaluates bc(S) for many sets concurrently; results are
// bit-identical to sequential BestCost calls in input order. Once ctx is
// cancelled no further evaluation starts, ok is false and the completed
// prefix of the costs is returned — exact values a caller may commit (see
// physical.Searcher.BestCostBatchCtx). The session API routes its
// cancellation and time budgets through this path.
func (o *Optimizer) BestCostBatchCtx(ctx context.Context, sets []physical.NodeSet) ([]float64, bool) {
	return o.Searcher.BestCostBatchCtx(ctx, sets)
}

// BestUseCost is buc(S): the optimal plan cost when S is already
// materialized for free.
func (o *Optimizer) BestUseCost(s physical.NodeSet) float64 {
	return o.Searcher.BestUseCost(s)
}

// VolcanoCost is the stand-alone Volcano cost: every query optimized
// independently with no sharing, bc(∅).
func (o *Optimizer) VolcanoCost() float64 {
	return o.Searcher.BestCost(physical.NodeSet{})
}

// Shareable returns the candidate nodes for materialization.
func (o *Optimizer) Shareable() []memo.GroupID {
	return o.Memo.Shareable()
}

// Plan extracts the optimal consolidated plan for the materialization set.
func (o *Optimizer) Plan(s physical.NodeSet) *physical.ConsolidatedPlan {
	return o.Searcher.BestPlan(s)
}

// BCCalls returns the number of bestCost oracle invocations so far.
func (o *Optimizer) BCCalls() int { return o.Searcher.BCCalls }

// SetIncremental toggles the cross-call incremental cost cache
// (Section 5.1); used by ablation benchmarks.
func (o *Optimizer) SetIncremental(on bool) {
	o.Searcher.Incremental = on
	if !on {
		o.Searcher.ClearCache()
	}
}

// SetExtendedOps toggles the optional hash join / hash aggregation
// operators (outside the paper's rule set); the cost cache is cleared
// because cached costs depend on the operator set.
func (o *Optimizer) SetExtendedOps(on bool) {
	o.Searcher.ExtendedOps = on
	o.Searcher.ClearCache()
}
