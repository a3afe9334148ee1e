package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

// bulkSpec is a batch big enough that its greedy run spans many round
// boundaries — the preemption tests need the run still in flight when the
// interactive request arrives, even with the flat-L1 hot path making each
// round substantially cheaper.
func bulkSpec() workload.Spec {
	s := testSpec()
	s.Seed = 11
	s.Queries = 128
	return s
}

// soloReference runs a spec to completion on a fresh session — the
// bit-identity oracle every preempted-and-resumed run is compared against.
func soloReference(t *testing.T, spec workload.Spec, strat core.Strategy) *repro.RunResult {
	t.Helper()
	sess, err := repro.NewSession(tpcd.Catalog(1), cost.Default())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sess.Optimize(context.Background(), workload.MustGenerate(spec), repro.WithStrategy(strat))
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// waitPreemptibleActive polls until some running grant has declared itself
// preemptible — the deterministic signal that a bulk run is inside the
// optimizer with its preempt hook armed.
func waitPreemptibleActive(t *testing.T, a *Admission) {
	t.Helper()
	waitFor(t, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		for _, g := range a.activeG {
			if g.preemptible.Load() {
				return true
			}
		}
		return false
	})
}

// assertSameResult compares a served response's final result against the
// solo reference bit-for-bit: same materialization set, same cost floats.
func assertSameResult(t *testing.T, label string, got *OptimizeResponse, ref *repro.RunResult) {
	t.Helper()
	if len(got.Materialized) != len(ref.Materialized) {
		t.Fatalf("%s: materialized %v, want %v", label, got.Materialized, ref.Materialized)
	}
	for i, g := range ref.Materialized {
		if got.Materialized[i] != int(g) {
			t.Fatalf("%s: materialized %v, want %v", label, got.Materialized, ref.Materialized)
		}
	}
	if got.CostMS != ref.Cost || got.VolcanoMS != ref.VolcanoCost || got.BenefitMS != ref.Benefit {
		t.Fatalf("%s: costs = (%v, %v, %v), want (%v, %v, %v)",
			label, got.CostMS, got.VolcanoMS, got.BenefitMS, ref.Cost, ref.VolcanoCost, ref.Benefit)
	}
}

// TestPreemptRoundBoundaryBitIdentical is the tentpole's end-to-end
// contract: a deadline request arriving while a bulk greedy run holds the
// only slot suspends that run at its next round boundary, is served, and
// the bulk run transparently resumes — its response is bit-identical to an
// unpreempted run (same materialization, same costs, same oracle-call and
// round counts) and reports the suspensions it absorbed. It holds with
// batching off and on: a lane left with one member runs preemptible too.
func TestPreemptRoundBoundaryBitIdentical(t *testing.T) {
	for _, batch := range []BatchConfig{{}, {MaxRequests: 8}} {
		t.Run(fmt.Sprintf("batch-max=%d", batch.MaxRequests), func(t *testing.T) {
			testPreemptRoundBoundaryBitIdentical(t, batch)
		})
	}
}

func testPreemptRoundBoundaryBitIdentical(t *testing.T, batch BatchConfig) {
	srv := New(Config{
		DefaultTenant: TenantConfig{MaxConcurrent: 8, QueueDepth: 32, QueueWaitMS: 60000},
		Sched:         SchedConfig{Slots: 1},
		Batch:         batch,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := bulkSpec()
	ref := soloReference(t, spec, core.Greedy)

	bulkBody, _ := json.Marshal(map[string]any{"tenant": "bulk", "spec": spec, "strategy": "greedy"})
	type reply struct {
		status int
		resp   *OptimizeResponse
	}
	bulkDone := make(chan reply, 1)
	go func() {
		resp, data := postOptimize(t, ts.URL, string(bulkBody), nil)
		out := reply{status: resp.StatusCode}
		if resp.StatusCode == 200 {
			out.resp = decodeResponse(t, data)
		} else {
			t.Errorf("bulk run: status %d: %s", resp.StatusCode, data)
		}
		bulkDone <- out
	}()
	waitPreemptibleActive(t, srv.Admission())

	// The interactive request: a deadline, a small batch, a different
	// catalog (sf 10) so its run shares nothing with the bulk session.
	sloBody, _ := json.Marshal(map[string]any{
		"tenant": "slo", "spec": testSpec(), "sf": 10, "deadline_ms": 2000,
	})
	resp, data := postOptimize(t, ts.URL, string(sloBody), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("interactive request: status %d: %s", resp.StatusCode, data)
	}

	bulk := <-bulkDone
	if bulk.status != 200 {
		t.Fatal("bulk run failed")
	}
	if bulk.resp.Preemptions < 1 {
		t.Fatalf("bulk run reports %d preemptions, want ≥ 1 (the deadline request must have suspended it)", bulk.resp.Preemptions)
	}
	assertSameResult(t, "preempted bulk run", bulk.resp, ref)
	tl, wtl := bulk.resp.Telemetry, ref.Telemetry
	if tl.Stopped != repro.StopNone {
		t.Fatalf("resumed run stopped with %v, want none", tl.Stopped)
	}
	// Rounds and pruning conserve exactly; oracle calls conserve up to one
	// re-derivation per resume (each resumed segment re-prices the
	// committed selection once against its fresh per-run memo).
	if want := wtl.OracleCalls + bulk.resp.Preemptions; tl.OracleCalls != want ||
		tl.Rounds != wtl.Rounds || tl.Pruned != wtl.Pruned {
		t.Fatalf("merged telemetry = calls %d rounds %d pruned %d, want %d/%d/%d (reference + %d resume re-derivations)",
			tl.OracleCalls, tl.Rounds, tl.Pruned, want, wtl.Rounds, wtl.Pruned, bulk.resp.Preemptions)
	}
	if n := srv.Admission().Preemptions(); n < 1 {
		t.Fatalf("scheduler preemption counter = %d, want ≥ 1", n)
	}
	st := srv.Admission().Stats()["bulk"]
	if st.Preemptions < 1 || st.QuotaSpent != int64(tl.OracleCalls) {
		t.Fatalf("bulk tenant stats = %+v, want ≥1 preemption and quota spend %d (charged exactly once)", st, tl.OracleCalls)
	}
}

// TestPreemptYieldTimeoutReturnsCheckpoint pins the degraded half of the
// preemption contract: when the suspended run cannot get its slot back
// inside its tenant's queue-wait budget, the request completes as a
// partial result — HTTP 200, Stopped "preempted", a resumable checkpoint —
// and a client-driven resume finishes the run bit-identically.
func TestPreemptYieldTimeoutReturnsCheckpoint(t *testing.T) {
	srv := New(Config{
		DefaultTenant: TenantConfig{MaxConcurrent: 8, QueueDepth: 32, QueueWaitMS: 60000},
		Tenants: map[string]TenantConfig{
			"bulk": {MaxConcurrent: 8, QueueDepth: 32, QueueWaitMS: 150},
		},
		Sched: SchedConfig{Slots: 1},
	})
	// The interactive tenant camps on the slot far past bulk's 150ms
	// queue-wait budget, so the suspended run's re-grant times out.
	srv.preOptimize = func(ctx context.Context, req *OptimizeRequest) {
		if req.Tenant == "slo" {
			select {
			case <-time.After(600 * time.Millisecond):
			case <-ctx.Done():
			}
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := bulkSpec()
	ref := soloReference(t, spec, core.Greedy)

	bulkBody, _ := json.Marshal(map[string]any{"tenant": "bulk", "spec": spec, "strategy": "greedy"})
	type reply struct {
		status int
		resp   *OptimizeResponse
	}
	bulkDone := make(chan reply, 1)
	go func() {
		resp, data := postOptimize(t, ts.URL, string(bulkBody), nil)
		out := reply{status: resp.StatusCode}
		if resp.StatusCode == 200 {
			out.resp = decodeResponse(t, data)
		} else {
			t.Errorf("bulk run: status %d: %s", resp.StatusCode, data)
		}
		bulkDone <- out
	}()
	waitPreemptibleActive(t, srv.Admission())

	sloDone := make(chan struct{})
	go func() {
		defer close(sloDone)
		sloBody, _ := json.Marshal(map[string]any{
			"tenant": "slo", "spec": testSpec(), "sf": 10, "deadline_ms": 2000,
		})
		resp, data := postOptimize(t, ts.URL, string(sloBody), nil)
		if resp.StatusCode != 200 {
			t.Errorf("interactive request: status %d: %s", resp.StatusCode, data)
		}
	}()

	bulk := <-bulkDone
	if bulk.status != 200 {
		t.Fatal("bulk run failed")
	}
	first := bulk.resp
	if first.Telemetry.Stopped != repro.StopPreempted {
		t.Fatalf("stranded run stopped with %v, want preempted", first.Telemetry.Stopped)
	}
	if first.Checkpoint == nil {
		t.Fatal("stranded preempted run returned no checkpoint")
	}
	if first.Preemptions < 1 {
		t.Fatalf("stranded run reports %d preemptions, want ≥ 1", first.Preemptions)
	}

	// Resume client-side once the interactive run has drained the slot:
	// the continuation must finish the run and land exactly on the solo
	// reference, with the two segments' oracle calls summing to it.
	<-sloDone
	resumeBody, _ := json.Marshal(map[string]any{"tenant": "bulk", "spec": spec, "resume": first.Checkpoint})
	resp, data := postOptimize(t, ts.URL, string(resumeBody), nil)
	if resp.StatusCode != 200 {
		t.Fatalf("resume request: status %d: %s", resp.StatusCode, data)
	}
	second := decodeResponse(t, data)
	if second.Telemetry.Stopped != repro.StopNone {
		t.Fatalf("resumed run stopped with %v, want none", second.Telemetry.Stopped)
	}
	assertSameResult(t, "client-resumed run", second, ref)
	// The two segments sum to the reference plus exactly one resume
	// re-derivation: the continuation re-prices the committed selection
	// once against its fresh per-run memo.
	if got := first.Telemetry.OracleCalls + second.Telemetry.OracleCalls; got != ref.Telemetry.OracleCalls+1 {
		t.Fatalf("segment oracle calls %d + %d = %d, want %d (reference + one resume re-derivation)",
			first.Telemetry.OracleCalls, second.Telemetry.OracleCalls, got, ref.Telemetry.OracleCalls+1)
	}
}

// TestPreemptConservationRaceStress is the scheduling conservation audit
// under real concurrency: interactive deadline traffic preempting bulk
// greedy runs across a 2-slot pool, with the race detector watching. After
// the storm drains, every admission must have completed, every tenant's
// quota charge must equal the oracle calls its responses reported (charged
// exactly once, across any number of suspensions), and every bulk response
// must be bit-identical to the unpreempted reference.
func TestPreemptConservationRaceStress(t *testing.T) {
	srv := New(Config{
		DefaultTenant: TenantConfig{MaxConcurrent: 8, QueueDepth: 64, QueueWaitMS: 60000},
		Sched:         SchedConfig{Slots: 2},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := testSpec()
	spec.Queries = 12
	spec.Seed = 23
	ref := soloReference(t, spec, core.Greedy)

	bulkBody, _ := json.Marshal(map[string]any{"tenant": "bulk", "spec": spec, "strategy": "greedy"})
	sloBody, _ := json.Marshal(map[string]any{
		"tenant": "slo", "spec": testSpec(), "strategy": "marginal", "deadline_ms": 5000,
	})

	var mu sync.Mutex
	calls := map[string]int64{}
	sent := map[string]int{}
	var bulkResponses []*OptimizeResponse

	var wg sync.WaitGroup
	post := func(tenant, body string, n int) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			resp, data := postOptimize(t, ts.URL, body, nil)
			if resp.StatusCode != 200 {
				t.Errorf("%s: status %d: %s", tenant, resp.StatusCode, data)
				continue
			}
			out := decodeResponse(t, data)
			mu.Lock()
			calls[tenant] += int64(out.Telemetry.OracleCalls)
			sent[tenant]++
			if tenant == "bulk" {
				bulkResponses = append(bulkResponses, out)
			}
			mu.Unlock()
		}
	}
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go post("bulk", string(bulkBody), 3)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go post("slo", string(sloBody), 4)
	}
	wg.Wait()

	// Drain: the scheduler must end idle with no stranded waiter.
	waitFor(t, func() bool {
		for _, a := range srv.Admission().Stats() {
			if a.Active != 0 || a.Queued != 0 || a.Admitted != a.Completed {
				return false
			}
		}
		return true
	})
	stats := srv.Admission().Stats()
	for _, tenant := range []string{"bulk", "slo"} {
		st := stats[tenant]
		if int(st.Admitted) != sent[tenant] {
			t.Errorf("%s: admitted %d, want %d", tenant, st.Admitted, sent[tenant])
		}
		if st.QuotaSpent != calls[tenant] {
			t.Errorf("%s: quota charged %d, responses reported %d oracle calls — the charge must match exactly",
				tenant, st.QuotaSpent, calls[tenant])
		}
	}
	for i, out := range bulkResponses {
		if out.Telemetry.Stopped != repro.StopNone {
			t.Errorf("bulk response %d stopped with %v, want none (yield re-grants must not time out here)", i, out.Telemetry.Stopped)
			continue
		}
		assertSameResult(t, fmt.Sprintf("bulk response %d (preemptions=%d)", i, out.Preemptions), out, ref)
	}
	t.Logf("race stress: %d preemptions across %d bulk + %d slo requests",
		srv.Admission().Preemptions(), sent["bulk"], sent["slo"])
}
