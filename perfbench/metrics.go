package main

import (
	"time"
)

// metric is one named, unit-carrying figure of a run.
type metric struct {
	Name  string
	Unit  string
	Value float64
}

// endToEnd derives the end-to-end metrics of an untraced run: the ones
// steady enough across runs to gate a change on, and the timings, which are
// printed in the human-readable report only because a shared host's speed
// moves them more than any bound may allow (see README.md).
func endToEnd(res *result) (e2e, report []metric) {
	var lat []float64
	var queries, oracle int
	var cost, volcano float64
	goodput := 0
	for _, r := range res.reqs {
		if r.err != nil {
			continue
		}
		lat = append(lat, msOf(r.latency()))
		queries += r.spec.Queries
		oracle += r.tel.OracleCalls
		cost += r.out.cost
		volcano += r.out.volcano
		if r.latency() <= res.limit {
			goodput++
		}
	}
	secs := res.window.Seconds()
	e2e = []metric{
		{"setup_s", "s", medianSeconds(res.setups)},
		{"plan_cost_ratio", "ratio", ratio(cost, volcano)},
		{"oracle_calls_per_query", "calls", ratio(float64(oracle), float64(queries))},
		{"alloc_mb_per_query", "MB", ratio(float64(res.rt.allocBytes)/1e6, float64(queries))},
		{"peak_heap_mb", "MB", res.peak.mb()},
	}
	report = []metric{
		{"setup_wall_s", "s", medianSeconds(res.setupWalls)},
		{"throughput_qps", "queries/s", ratio(float64(queries), secs)},
		{"latency_p50_ms", "ms", median(lat)},
		{"latency_p90_ms", "ms", quantile(lat, 0.90)},
		{"latency_p99_ms", "ms", quantile(lat, 0.99)},
		{"goodput_rps", "req/s", ratio(float64(goodput), secs)},
		{"error_rate", "ratio", ratio(float64(res.failed), float64(res.attempted))},
	}
	return e2e, report
}

func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// ratio is a/b, or 0 when b is 0 (a run whose every request failed still
// prints finite metrics).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// productionLayers derives the per-layer metrics the production path itself
// reports: Telemetry counts and phases from every answered request, the
// load generator's lag and rate, and the runtime counters of the window.
func productionLayers(res *result) []metric {
	var lag, setup, search, finalize []float64
	var queries int
	var t struct{ bc, hits, shared, keys, oracle, rounds, stale, reused, pruned int }
	var total time.Duration
	n := 0
	for _, r := range res.reqs {
		lag = append(lag, msOf(r.sent.Sub(r.due)))
		if r.err != nil {
			continue
		}
		n++
		queries += r.spec.Queries
		tel := r.tel
		setup = append(setup, msOf(tel.SetupTime))
		search = append(search, msOf(tel.SearchTime))
		finalize = append(finalize, msOf(tel.FinalizeTime))
		total += tel.TotalTime
		t.bc += tel.BCCalls
		t.hits += tel.CacheHits
		t.shared += tel.SharedHits
		t.keys += tel.ComputedKeys
		t.oracle += tel.OracleCalls
		t.rounds += tel.Rounds
		t.stale += tel.Stale
		t.reused += tel.Reused
		t.pruned += tel.Pruned
	}
	lookups := float64(t.hits + t.shared + t.keys)
	per := func(v int) float64 { return ratio(float64(v), float64(n)) }
	return []metric{
		{"loadgen.lag_p99_ms", "ms", quantile(lag, 0.99)},
		{"loadgen.offered_rps", "req/s", ratio(float64(len(res.reqs)), res.window.Seconds())},
		{"physical.bc_calls", "count", per(t.bc)},
		{"physical.ns_per_bc_call", "ns", ratio(float64(total.Nanoseconds()), float64(t.bc))},
		{"physical.computed_keys", "count", per(t.keys)},
		{"physical.l1_hit_rate", "ratio", ratio(float64(t.hits), lookups)},
		{"physical.l2_hit_rate", "ratio", ratio(float64(t.shared), lookups)},
		{"core.setup_ms", "ms", median(setup)},
		{"core.search_ms", "ms", median(search)},
		{"core.finalize_ms", "ms", median(finalize)},
		{"core.oracle_calls", "count", per(t.oracle)},
		{"core.rounds", "count", per(t.rounds)},
		{"core.stale", "count", per(t.stale)},
		{"core.reused", "count", per(t.reused)},
		{"core.pruned", "count", per(t.pruned)},
		{"core.stale_ratio", "ratio", ratio(float64(t.stale), float64(t.oracle))},
		{"runtime.gc_cpu_fraction", "ratio", ratio(res.rt.gcCPU, res.rt.totalCPU)},
		{"runtime.gc_cycles_per_query", "count", ratio(float64(res.rt.gcCycles), float64(queries))},
		{"runtime.allocs_per_query", "count", ratio(float64(res.rt.allocObjs), float64(queries))},
	}
}

// replayLayers derives the per-layer walls the program does not report
// from the layer replay's spans.
func replayLayers(tr *tracer, groups []float64, overhead []float64) []metric {
	st := statsByName(tr.spans)
	return []metric{
		{"workload.generate_ms", "ms", st["workload.Generate"].WallP50MS},
		{"memo.build_ms", "ms", st["memo.Build"].WallP50MS},
		{"memo.groups", "count", median(groups)},
		{"physical.searcher_new_ms", "ms", st["physical.NewSearcher"].WallP50MS},
		{"physical.extract_ms", "ms", st["physical.BestPlan"].WallP50MS},
		{"physical.publish_ms", "ms", st["physical.PublishCache"].WallP50MS},
		{"session.optimize_ms", "ms", st["session.Optimize"].WallP50MS},
		{"session.unattributed_ms", "ms", st["session.Optimize"].SelfP50MS},
		{"trace.overhead_ms", "ms", median(overhead)},
	}
}

// serverLayers derives the server's per-request phases from HTTP spans: the
// roundtrip as the client timed it and the phases the response reported.
// Whatever no reported phase covers — decoding, batch generation, cache
// publication, encoding and the loopback hop — is the roundtrip's self time.
func serverLayers(tr *tracer, rejected int) []metric {
	st := statsByName(tr.spans)
	return []metric{
		{"server.roundtrip_ms", "ms", st["http.roundtrip"].WallP50MS},
		{"server.queue_wait_ms", "ms", st["server.queue_wait"].WallP50MS},
		{"server.build_ms", "ms", st["server.build"].WallP50MS},
		{"server.opt_ms", "ms", st["server.opt"].WallP50MS},
		{"server.extract_ms", "ms", st["server.extract"].WallP50MS},
		{"server.unattributed_ms", "ms", st["http.roundtrip"].SelfP50MS},
		{"server.rejected", "count", float64(rejected)},
	}
}

func hitRate(hits, misses int64) float64 { return ratio(float64(hits), float64(hits+misses)) }

func statsByName(spans []span) map[string]layerStat {
	m := map[string]layerStat{}
	for _, s := range layerStats(spans) {
		m[s.Name] = s
	}
	return m
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
