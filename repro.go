// Package repro is a Go reproduction of "Efficient and Provable
// Multi-Query Optimization" (Kathuria & Sudarshan, PODS 2017): a
// Volcano-style multi-query optimizer whose materialization choices are
// made by the paper's MarginalGreedy algorithm for unconstrained,
// normalized submodular maximization, alongside the Greedy baseline of Roy
// et al. [SIGMOD 2000] and a stand-alone (no-MQO) Volcano mode.
//
// # Sessions
//
// The public surface is the long-lived Session: construct one per catalog
// (it fixes the schema statistics, the cost model and the tuning knobs),
// then call Optimize for every incoming batch. Optimize takes a
// context.Context and functional options, honors cancellation and budgets
// between greedy oracle rounds, and returns the chosen materializations,
// the consolidated physical plan, and run telemetry:
//
//	sess, err := repro.NewSession(tpcd.Catalog(1), cost.Default(),
//		repro.WithStrategy(repro.MarginalGreedy),
//		repro.WithParallelism(4))
//	...
//	res, err := sess.Optimize(ctx, tpcd.BQ(3),
//		repro.WithTimeBudget(200*time.Millisecond),
//		repro.WithOracleCallBudget(5000))
//	...
//	fmt.Println(res.Cost, res.Telemetry.OracleCalls, res.Telemetry.Stopped)
//	fmt.Println(res.Plan)
//
// A run cut off by its context or a budget returns the deterministic
// best-so-far materialization set of the completed rounds with
// Telemetry.Stopped saying why; with no budget set, every strategy is
// bit-identical to the original one-shot facade.
//
// # Migration from the one-shot facade
//
//	volcano.NewOptimizer + core.Run        -> core.RunWith(ctx, opt, strat, core.Config{...})
//	opt.Plan(res.MatSet())                 -> RunResult.Plan (already extracted, Validate() to audit)
//
// The old entry points remain as thin shims over the session path.
//
// # Implementation packages
//
//	internal/catalog     schemas and statistics
//	internal/logical     query representation and builders
//	internal/memo        the combined AND-OR DAG (LQDAG) with unification
//	internal/physical    plan search, physical properties, bestCost(Q,S)
//	internal/volcano     the optimizer facade
//	internal/submod      generic UNSM: decomposition, MarginalGreedy, bounds, budgets
//	internal/core        the MQO strategies, context/budget plumbing, telemetry
//	internal/tpcd        the TPCD workload (schema, queries, batches)
//	internal/workload    seeded synthetic workload generator (stress batches)
//	internal/exec        iterator-model executor, wavefront-parallel materialization
//	internal/parser      a small SQL-like language for the CLI
//	internal/experiments the paper's tables and figures, workload stress modes
package repro

import (
	"repro/internal/core"
	"repro/internal/physical"
)

// Strategy selects the MQO algorithm; see internal/core for the full list.
type Strategy = core.Strategy

// Re-exported strategies.
const (
	Volcano        = core.Volcano
	Greedy         = core.Greedy
	MarginalGreedy = core.MarginalGreedy
)

// Result is an MQO outcome: the chosen materializations, the consolidated
// cost, the optimization time and the run telemetry.
type Result = core.Result

// Plan is an extracted consolidated physical plan.
type Plan = physical.ConsolidatedPlan
