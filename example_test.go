package repro_test

import (
	"context"
	"fmt"
	"strings"

	"repro"
	"repro/internal/cost"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

// ExampleSession optimizes the paper's Example 1 batch through a
// long-lived Session: the normal call materializes the shared
// subexpressions, and a zero oracle-call budget degrades deterministically
// to the empty set with the stop reason in the telemetry.
func ExampleSession() {
	cat, batch := tpcd.ExampleOneInstance()
	sess, _ := repro.NewSession(cat, cost.Default())
	ctx := context.Background()

	res, _ := sess.Optimize(ctx, batch, repro.WithStrategy(repro.MarginalGreedy))
	fmt.Printf("MarginalGreedy: %.0f s, %d shared node(s), stopped: %v\n",
		res.Cost/1000, len(res.Plan.Steps), res.Telemetry.Stopped)

	zero, _ := sess.Optimize(ctx, batch, repro.WithOracleCallBudget(0))
	fmt.Printf("zero budget:    %.0f s, %d shared node(s), stopped: %v\n",
		zero.Cost/1000, len(zero.Plan.Steps), zero.Telemetry.Stopped)
	// Output:
	// MarginalGreedy: 28 s, 2 shared node(s), stopped: none
	// zero budget:    45 s, 0 shared node(s), stopped: call-budget
}

// ExampleSession_Optimize optimizes the paper's Example 1 batch: two
// queries sharing the subexpression σ(B)⋈C, which the MQO strategies
// materialize once and reuse.
func ExampleSession_Optimize() {
	cat, batch := tpcd.ExampleOneInstance()
	sess, _ := repro.NewSession(cat, cost.Default())
	ctx := context.Background()

	volcano, _ := sess.Optimize(ctx, batch, repro.WithStrategy(repro.Volcano))
	marginal, _ := sess.Optimize(ctx, batch, repro.WithStrategy(repro.MarginalGreedy))

	fmt.Printf("stand-alone Volcano: %.0f s\n", volcano.Cost/1000)
	fmt.Printf("MarginalGreedy:      %.0f s, %d shared node(s) materialized\n",
		marginal.Cost/1000, len(marginal.Plan.Steps))
	fmt.Printf("consolidated plan beats locally optimal plans: %v\n",
		marginal.Cost < volcano.Cost)
	// Output:
	// stand-alone Volcano: 45 s
	// MarginalGreedy:      28 s, 2 shared node(s) materialized
	// consolidated plan beats locally optimal plans: true
}

// Example_generateWorkload generates a synthetic batch with the seeded
// workload generator: the same Spec always produces a byte-identical batch,
// so stress workloads are reproducible across machines and runs.
func Example_generateWorkload() {
	spec := workload.Spec{
		Seed:       42,
		Queries:    8,
		Shape:      workload.Star,
		FanOut:     4,
		Sharing:    0.75,
		SelectFrac: 0.8,
		AggFrac:    0.5,
	}
	batch := workload.MustGenerate(spec)

	names := make([]string, len(batch.Queries))
	aggregated := 0
	for i, q := range batch.Queries {
		names[i] = q.Name
		if q.Root.Agg != nil {
			aggregated++
		}
	}
	fmt.Printf("queries: %s …\n", strings.Join(names[:3], ", "))
	fmt.Printf("relations per query: %d, aggregated queries: %d/%d\n",
		len(batch.Queries[0].Root.Sources), aggregated, len(batch.Queries))
	fmt.Printf("same seed, same batch: %v\n",
		workload.Fingerprint(batch) == workload.Fingerprint(workload.MustGenerate(spec)))
	// Output:
	// queries: W000-star, W001-star, W002-star …
	// relations per query: 4, aggregated queries: 3/8
	// same seed, same batch: true
}
