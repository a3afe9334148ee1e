package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/logical"
)

// batchSpecBody is the identical 12-query workload every batching test
// client submits; it matches workload.DefaultSpec(12, 0.75) with seed 7.
const batchSpecBody = `{"spec": {"seed": 7, "queries": 12, "shape": "mixed", "fan_out": 4, "sharing": 0.75, "select_frac": 0.8, "agg_frac": 0.5}}`

// postOptimize fires one optimize request and decodes the 200 body.
func postBatch(t *testing.T, url, tenant, body string) (*OptimizeResponse, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/optimize", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var or OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
		t.Fatalf("decoding 200 body: %v", err)
	}
	return &or, resp.StatusCode
}

// batchingServer builds a server whose lanes flush on exactly `size`
// requests; the deadline timer never fires, so flush composition is
// deterministic.
func batchingServer(t *testing.T, size int) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{
		DefaultTenant: TenantConfig{MaxConcurrent: 2 * size, QueueDepth: 32, QueueWaitMS: 60000},
		Batch:         BatchConfig{MaxRequests: size, MaxDelayMS: 60000},
	})
	srv.batcher.newTimer = func(time.Duration) (<-chan time.Time, func() bool) {
		return make(chan time.Time), func() bool { return true }
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestBatchCoalesceOracleSavings is the deterministic savings gate:
// eight identical concurrent requests served by the batching scheduler
// must spend at least 2x fewer total oracle calls than the same eight
// requests served independently (each on a fresh server, so no shared
// session cache flatters either side). Identical members coalesce to one
// group, so the shared run degenerates to a single solo-sized search.
func TestBatchCoalesceOracleSavings(t *testing.T) {
	const clients = 8
	srv, ts := batchingServer(t, clients)

	var (
		mu           sync.Mutex
		batchedCalls int
		batchSizes   []int
	)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			or, status := postBatch(t, ts.URL, "", batchSpecBody)
			if or == nil {
				t.Errorf("batched request: status %d", status)
				return
			}
			if !or.Batched {
				t.Errorf("response not served by the batch scheduler")
			}
			mu.Lock()
			batchedCalls += or.Telemetry.OracleCalls
			batchSizes = append(batchSizes, or.BatchSize)
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, bs := range batchSizes {
		if bs != clients {
			t.Fatalf("batch sizes %v: the size trigger should have coalesced all %d", batchSizes, clients)
		}
	}

	// Conservation: the responses' telemetry shares re-sum to exactly what
	// the pooled session spent.
	ps := srv.pool.stats()
	if len(ps) != 1 {
		t.Fatalf("pool has %d sessions, want 1", len(ps))
	}
	if got := ps[0].Session.OracleCalls; got != batchedCalls {
		t.Fatalf("session spent %d oracle calls, responses account for %d", got, batchedCalls)
	}

	soloCalls := 0
	for i := 0; i < clients; i++ {
		solo := New(Config{})
		tss := httptest.NewServer(solo.Handler())
		or, status := postBatch(t, tss.URL, "", batchSpecBody)
		tss.Close()
		if or == nil {
			t.Fatalf("solo request: status %d", status)
		}
		if or.Batched {
			t.Fatalf("solo server served a batched response")
		}
		soloCalls += or.Telemetry.OracleCalls
	}
	if batchedCalls*2 > soloCalls {
		t.Fatalf("batched total %d oracle calls, solo total %d: savings < 2x", batchedCalls, soloCalls)
	}
	t.Logf("oracle calls: batched %d vs solo %d (%.1fx)", batchedCalls, soloCalls, float64(soloCalls)/float64(batchedCalls))
}

// TestBatchDistinctMembersAttribution batches distinct (non-coalescible
// into one group) requests and checks each response carries a cost-valid
// slice: per-member materializations within the shared run, conserving
// telemetry, and a shared-credit field only batching can produce.
func TestBatchDistinctMembersAttribution(t *testing.T) {
	const clients = 3
	srv, ts := batchingServer(t, clients)

	bodies := make([]string, clients)
	for i := range bodies {
		// Same workload family, different seeds: members share structure
		// probabilistically but are not identical, so no deduplication.
		bodies[i] = fmt.Sprintf(`{"spec": {"seed": %d, "queries": 4, "shape": "star", "fan_out": 3, "sharing": 0.75, "select_frac": 0.8, "agg_frac": 0.5}}`, 100+i)
	}
	responses := make([]*OptimizeResponse, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			or, status := postBatch(t, ts.URL, fmt.Sprintf("tenant-%d", i), bodies[i])
			if or == nil {
				t.Errorf("request %d: status %d", i, status)
				return
			}
			responses[i] = or
		}(i)
	}
	wg.Wait()

	sumCalls := 0
	for i, or := range responses {
		if or == nil {
			t.Fatal("missing response")
		}
		if !or.Batched || or.BatchSize != clients {
			t.Fatalf("response %d: batched=%v size=%d, want a %d-member batch", i, or.Batched, or.BatchSize, clients)
		}
		if or.Queries != 4 {
			t.Fatalf("response %d reports %d queries, member sent 4", i, or.Queries)
		}
		if len(or.Plan.Queries) != 4 {
			t.Fatalf("response %d plan has %d query slices, want the member's 4", i, len(or.Plan.Queries))
		}
		if or.CostMS < 0 || or.VolcanoMS < 0 || or.SharedCreditMS < 0 {
			t.Fatalf("response %d: negative attributed numbers: %+v", i, or)
		}
		if or.PlanText != "" {
			t.Fatalf("response %d leaked the combined plan text in a multi-member batch", i)
		}
		if or.Checkpoint != nil {
			t.Fatalf("response %d leaked a combined-run checkpoint", i)
		}
		if len(or.Plan.Steps) != len(or.Materialized) {
			t.Fatalf("response %d: %d plan steps for %d attributed materializations", i, len(or.Plan.Steps), len(or.Materialized))
		}
		sumCalls += or.Telemetry.OracleCalls
	}
	ps := srv.pool.stats()
	if len(ps) != 1 || ps[0].Session.OracleCalls != sumCalls {
		t.Fatalf("telemetry shares (%d calls) do not conserve against the session", sumCalls)
	}
	// Tenancy: each member is attributed to its own tenant, and every
	// tenant's quota was charged exactly its share.
	adm := srv.Admission().Stats()
	for i, or := range responses {
		name := fmt.Sprintf("tenant-%d", i)
		if or.Tenant != name {
			t.Fatalf("response %d attributed to %q", i, or.Tenant)
		}
		if got := adm[name].QuotaSpent; got != int64(or.Telemetry.OracleCalls) {
			t.Fatalf("%s charged %d, response share is %d", name, got, or.Telemetry.OracleCalls)
		}
	}
}

// TestBatchSingletonMatchesSolo pins the singleton fast path end to end:
// with MaxRequests=1 every request rides the batch scheduler alone, and
// its response must carry exactly the numbers the solo path serves —
// same materializations, costs, telemetry counters, and even the
// checkpoint/plan-text surfaces that multi-member batches withhold.
func TestBatchSingletonMatchesSolo(t *testing.T) {
	_, bts := batchingServer(t, 1)
	body := `{"spec": {"seed": 3, "queries": 6, "shape": "chain", "fan_out": 3, "sharing": 0.5, "select_frac": 0.8, "agg_frac": 0.5}, "plan_text": true}`
	batched, status := postBatch(t, bts.URL, "", body)
	if batched == nil {
		t.Fatalf("batched: status %d", status)
	}
	solo := New(Config{})
	sts := httptest.NewServer(solo.Handler())
	defer sts.Close()
	want, status := postBatch(t, sts.URL, "", body)
	if want == nil {
		t.Fatalf("solo: status %d", status)
	}

	if !batched.Batched || batched.BatchSize != 1 {
		t.Fatalf("batched=%v size=%d, want a singleton batch", batched.Batched, batched.BatchSize)
	}
	if batched.CostMS != want.CostMS || batched.VolcanoMS != want.VolcanoMS || batched.BenefitMS != want.BenefitMS {
		t.Fatalf("singleton costs %v/%v/%v != solo %v/%v/%v",
			batched.CostMS, batched.VolcanoMS, batched.BenefitMS, want.CostMS, want.VolcanoMS, want.BenefitMS)
	}
	if batched.SharedCreditMS != 0 {
		t.Fatalf("singleton shared credit %v != 0", batched.SharedCreditMS)
	}
	if fmt.Sprint(batched.Materialized) != fmt.Sprint(want.Materialized) {
		t.Fatalf("singleton set %v != solo %v", batched.Materialized, want.Materialized)
	}
	if batched.PlanText == "" || batched.PlanText != want.PlanText {
		t.Fatalf("singleton plan text differs from solo")
	}
	bt, wt := batched.Telemetry, want.Telemetry
	bt.SetupTime, bt.SearchTime, bt.FinalizeTime, bt.TotalTime = 0, 0, 0, 0
	wt.SetupTime, wt.SearchTime, wt.FinalizeTime, wt.TotalTime = 0, 0, 0, 0
	if bt != wt {
		t.Fatalf("singleton telemetry counters differ:\n  %+v\n  %+v", bt, wt)
	}
}

// TestBatchMemberCancelledExcised pins the excision contract: a member
// whose client disconnected while the lane filled is answered as
// cancelled and removed before the shared run, without aborting the
// peers' run.
func TestBatchMemberCancelledExcised(t *testing.T) {
	srv, _ := batchingServer(t, 2)
	b := srv.batcher

	mkMember := func(ctx context.Context) *batchMember {
		batch := &logical.Batch{}
		batch.Add(logical.NewBlock().Scan("lineitem", "l").Cmp("l.tax", expr.LT, 40).Query("q"))
		fp, _ := batchFingerprint(batch)
		return &batchMember{ctx: ctx, batch: batch, fp: fp, tenant: "t", outcome: make(chan batchOutcome, 1)}
	}
	key := laneKey{pool: poolKey{sf: 1}, spec: runSpec{strategy: core.MarginalGreedy, callBudget: -1}}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	dead := mkMember(cancelled)
	outcomes := make(chan batchOutcome, 1)
	go func() { outcomes <- b.submit(key, dead) }()

	// Wait until the dead member is enqueued so the flush composition is
	// deterministic, then fill the lane.
	for {
		b.mu.Lock()
		n := 0
		if l := b.lanes[key]; l != nil {
			n = len(l.members)
		}
		b.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// The live member runs alone, preemptible, so it needs an admission
	// grant like any admitted request.
	g, err := srv.Admission().AcquireGrant(context.Background(), AdmitRequest{Tenant: "t", Cost: 1})
	if err != nil {
		t.Fatal(err)
	}
	live := mkMember(context.Background())
	live.grant = g
	liveOut := b.submit(key, live)
	g.Release(liveOut.spent)

	deadOut := <-outcomes
	if !deadOut.cancelled {
		t.Fatalf("cancelled member got %+v, want excision", deadOut)
	}
	if deadOut.spent != 0 {
		t.Fatalf("excised member charged %d oracle calls", deadOut.spent)
	}
	if liveOut.resp == nil {
		t.Fatalf("live member failed: %+v", liveOut)
	}
	if !liveOut.resp.Batched || liveOut.resp.BatchSize != 1 {
		t.Fatalf("live member saw batch size %d, want 1 after excision", liveOut.resp.BatchSize)
	}
}

// TestBatchDeadlineFlush drives the lane deadline with the manual clock:
// a lone request must be flushed by the timer, not wait for peers that
// never come.
func TestBatchDeadlineFlush(t *testing.T) {
	srv := New(Config{
		DefaultTenant: TenantConfig{MaxConcurrent: 8, QueueDepth: 32, QueueWaitMS: 60000},
		Batch:         BatchConfig{MaxRequests: 8, MaxDelayMS: 60000},
	})
	fire := make(chan time.Time)
	srv.batcher.newTimer = func(time.Duration) (<-chan time.Time, func() bool) {
		return fire, func() bool { return true }
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan *OptimizeResponse, 1)
	go func() {
		or, _ := postBatch(t, ts.URL, "", `{"sql": "SELECT l.tax FROM lineitem l"}`)
		done <- or
	}()
	// The request must be parked in its lane until the deadline fires.
	for {
		srv.batcher.mu.Lock()
		parked := len(srv.batcher.lanes) == 1
		srv.batcher.mu.Unlock()
		if parked {
			break
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("request completed before the lane deadline fired")
	default:
	}
	fire <- time.Time{}
	or := <-done
	if or == nil || !or.Batched || or.BatchSize != 1 {
		t.Fatalf("deadline flush served %+v", or)
	}
}

// TestBatchQueryCapFlush: the combined-query bound must flush the lane
// before MaxRequests is reached.
func TestBatchQueryCapFlush(t *testing.T) {
	srv := New(Config{
		DefaultTenant: TenantConfig{MaxConcurrent: 8, QueueDepth: 32, QueueWaitMS: 60000},
		Batch:         BatchConfig{MaxRequests: 8, MaxDelayMS: 60000, MaxQueries: 4},
	})
	srv.batcher.newTimer = func(time.Duration) (<-chan time.Time, func() bool) {
		return make(chan time.Time), func() bool { return true }
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Two 2-query requests reach the 4-query cap; distinct SQL so they
	// stay two members.
	var wg sync.WaitGroup
	sizes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"sql": "SELECT l.tax FROM lineitem l WHERE l.shipdate < %d; SELECT l.tax FROM lineitem l WHERE l.shipdate < %d"}`, 1100+i, 1300+i)
			or, status := postBatch(t, ts.URL, "", body)
			if or == nil {
				t.Errorf("request %d: status %d", i, status)
				return
			}
			sizes[i] = or.BatchSize
		}(i)
	}
	wg.Wait()
	if sizes[0] != 2 || sizes[1] != 2 {
		t.Fatalf("batch sizes %v, want the query cap to flush both members together", sizes)
	}
}

// TestBatchLaneIsolation: requests whose effective run specs differ must
// not share a lane — their options would not be interchangeable.
func TestBatchLaneIsolation(t *testing.T) {
	srv, ts := batchingServer(t, 2)
	var wg sync.WaitGroup
	out := make([]*OptimizeResponse, 2)
	bodies := []string{
		`{"sql": "SELECT l.tax FROM lineitem l", "strategy": "greedy"}`,
		`{"sql": "SELECT l.tax FROM lineitem l", "strategy": "marginal"}`,
	}
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			or, status := postBatch(t, ts.URL, "", bodies[i])
			if or == nil {
				t.Errorf("request %d: status %d", i, status)
				return
			}
			out[i] = or
		}(i)
	}
	// Neither lane can fill: distinct strategies park in distinct lanes.
	deadline := time.After(5 * time.Second)
	for {
		srv.batcher.mu.Lock()
		lanes := len(srv.batcher.lanes)
		srv.batcher.mu.Unlock()
		if lanes == 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("requests with distinct strategies did not park in distinct lanes")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// Flush both by filling each lane with a matching second request.
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postBatch(t, ts.URL, "", bodies[i])
		}(i)
	}
	wg.Wait()
	for i, or := range out {
		if or == nil || or.BatchSize != 2 {
			t.Fatalf("request %d: %+v, want its own 2-member lane", i, or)
		}
		if or.Strategy != []string{"Greedy", "MarginalGreedy"}[i] {
			t.Fatalf("request %d served with strategy %q", i, or.Strategy)
		}
	}
}

// TestBatchSoloFallback: when the combined build fails because one
// member's batch is invalid against the catalog, the innocent member
// must still be served (solo, unbatched) and the guilty one must get its
// own 400. A resume request on the same server never waits for peers: it
// runs at once, alone and unbatched, and completes the checkpointed run.
func TestBatchSoloFallback(t *testing.T) {
	_, ts := batchingServer(t, 2)
	type result struct {
		or     *OptimizeResponse
		status int
	}
	results := make([]result, 2)
	bodies := []string{
		`{"sql": "SELECT l.tax FROM lineitem l"}`,
		`{"sql": "SELECT x.nope FROM nonexistent x"}`, // parses; invalid against the catalog
	}
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			or, status := postBatch(t, ts.URL, "", bodies[i])
			results[i] = result{or, status}
		}(i)
	}
	wg.Wait()
	if results[0].or == nil {
		t.Fatalf("innocent member: status %d, want 200", results[0].status)
	}
	if results[0].or.Batched {
		t.Fatalf("fallback response still claims to be batched")
	}
	if results[1].status != http.StatusBadRequest {
		t.Fatalf("invalid member: status %d, want 400", results[1].status)
	}

	// The checkpoint comes from a solo server: checkpoints are portable.
	solo := httptest.NewServer(New(Config{}).Handler())
	defer solo.Close()
	spec := `{"seed": 3, "queries": 6, "shape": "chain", "fan_out": 3, "sharing": 0.5, "select_frac": 0.8, "agg_frac": 0.5}`
	ref, status := postBatch(t, solo.URL, "", `{"spec": `+spec+`}`)
	if ref == nil {
		t.Fatalf("reference run: status %d", status)
	}
	stopped, status := postBatch(t, solo.URL, "", fmt.Sprintf(`{"spec": %s, "oracle_call_budget": %d}`, spec, ref.Telemetry.OracleCalls/2))
	if stopped == nil || stopped.Checkpoint == nil {
		t.Fatalf("budgeted run: status %d, want a 200 with a checkpoint", status)
	}
	resume, err := json.Marshal(map[string]any{"spec": json.RawMessage(spec), "resume": stopped.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	resumed, status := postBatch(t, ts.URL, "", string(resume))
	if resumed == nil {
		t.Fatalf("resume on a batching server: status %d, want 200", status)
	}
	if resumed.Batched {
		t.Fatalf("resumed response claims to be batched")
	}
	if resumed.CostMS != ref.CostMS || fmt.Sprint(resumed.Materialized) != fmt.Sprint(ref.Materialized) {
		t.Fatalf("resumed run cost %v set %v, uninterrupted %v %v", resumed.CostMS, resumed.Materialized, ref.CostMS, ref.Materialized)
	}
}

// TestCoalesceBatchesUnit pins the coalescer's mapping directly.
func TestCoalesceBatchesUnit(t *testing.T) {
	q := func(pred float64, name string) *logical.Query {
		return logical.NewBlock().Scan("lineitem", "l").Cmp("l.tax", expr.LT, pred).Query(name)
	}
	mk := func(queries ...*logical.Query) *batchMember {
		b := &logical.Batch{Queries: queries}
		fp, _ := batchFingerprint(b)
		return &batchMember{batch: b, fp: fp}
	}
	a1 := mk(q(10, "a"))
	a2 := mk(q(10, "a"))  // identical -> same group
	b1 := mk(q(20, "a"))  // different predicate -> own group
	c1 := mk(q(10, "zz")) // different name -> own group (names are echoed)
	groups, mg := coalesceBatches([]*batchMember{a1, a2, b1, c1})
	if len(groups) != 3 {
		t.Fatalf("%d groups, want 3", len(groups))
	}
	if mg[0] != mg[1] {
		t.Fatalf("identical members mapped to groups %d and %d", mg[0], mg[1])
	}
	if mg[2] == mg[0] || mg[3] == mg[0] || mg[2] == mg[3] {
		t.Fatalf("distinct members shared a group: %v", mg)
	}
	if groups[mg[0]] != a1.batch {
		t.Fatalf("group does not preserve the first submitter's batch")
	}
}
