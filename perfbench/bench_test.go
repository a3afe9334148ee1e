package main

import (
	"context"
	"math"
	"testing"
	"time"

	"repro"
	"repro/internal/cost"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

// selfEpsilon is the stated tolerance between a trace's summed self times
// and its root's duration. Child phases are measured inside their parents,
// so the clamp in selfTimes never fires and the sum is exact in integer
// nanoseconds; the tolerance only absorbs a synthesized phase that a
// coarse clock could round past its parent's end.
const selfEpsilon = time.Microsecond

func checkSelfSums(t *testing.T, tr *tracer) {
	t.Helper()
	if d := selfResidual(tr.spans); d > selfEpsilon {
		t.Errorf("self times miss their root's wall by %v (ε = %v)", d, selfEpsilon)
	}
}

// TestReplayMatchesSession checks the session-cold-64 layer replay against
// Session.Optimize: the same cost, Volcano cost and materialized set on
// every batch, and self times that sum to each traced request's wall.
func TestReplayMatchesSession(t *testing.T) {
	if testing.Short() {
		t.Skip("optimizes 64-query batches")
	}
	ctx := context.Background()
	cat := tpcd.Catalog(1)
	sess, err := repro.NewSession(cat, cost.Default())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	rp, err := newReplayer(cat, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		spec := sessionSpec(7, streamSession, i)
		batch, err := workload.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sess.Optimize(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		want := outcomeOf(res.Result, res.Plan)
		got, err := rp.replay(ctx, i+1, spec)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if !got.layers.equal(want) {
			t.Errorf("batch %d: layer replay %+v, Session.Optimize %+v", i, got.layers, want)
		}
		if !got.session.equal(want) {
			t.Errorf("batch %d: mirror session %+v, Session.Optimize %+v", i, got.session, want)
		}
	}
	checkSelfSums(t, tr)
}

// TestInjectedDelayIsAttributed adds a known delay inside the replay's
// memo.Build span and checks that the trace charges it to that span alone.
func TestInjectedDelayIsAttributed(t *testing.T) {
	const delay = 40 * time.Millisecond
	ctx := context.Background()
	cat := tpcd.Catalog(1)
	selfByName := func(delays map[string]time.Duration) map[string]float64 {
		tr := newTracer()
		rp, err := newReplayer(cat, tr)
		if err != nil {
			t.Fatal(err)
		}
		rp.delay = delays
		for i := 0; i < 4; i++ {
			if _, err := rp.replay(ctx, i+1, serveSpec(3, streamServe, i)); err != nil {
				t.Fatal(err)
			}
		}
		checkSelfSums(t, tr)
		out := map[string]float64{}
		for _, st := range layerStats(tr.spans) {
			out[st.Name] = st.SelfP50MS
		}
		return out
	}
	base := selfByName(nil)
	slow := selfByName(map[string]time.Duration{"memo.Build": delay})
	// Every span keeps its self time to within a quarter of the delay,
	// except memo.Build, which gains the delay.
	delayMS, tol := msOf(delay), msOf(delay)/4
	for name, b := range base {
		want := 0.0
		if name == "memo.Build" {
			want = delayMS
		}
		if d := slow[name] - b; math.Abs(d-want) > tol {
			t.Errorf("%s self time moved by %.2f ms, want %.0f ± %.0f ms", name, d, want, tol)
		}
	}
}

// TestSelfTimes checks self-time arithmetic and the back-to-back layout of
// synthesized phases on a hand-built trace.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.addSpan(1, 0, "request", at(0), at(100))
	rt := tr.addSpan(1, root, "http.roundtrip", at(10), at(100))
	tr.synth(1, rt, at(10), []phase{
		{name: "server.build", d: 20 * time.Millisecond},
		{name: "server.opt", d: 50 * time.Millisecond, children: []phase{{name: "core.search", d: 30 * time.Millisecond}}},
	})
	st := statsByName(tr.spans)
	want := map[string]float64{"request": 10, "http.roundtrip": 20, "server.build": 20, "server.opt": 20, "core.search": 30}
	for name, w := range want {
		if got := st[name].SelfP50MS; got != w {
			t.Errorf("%s self = %v ms, want %v", name, got, w)
		}
	}
	if st["request"].Share != 0.1 {
		t.Errorf("request share = %v, want 0.1", st["request"].Share)
	}
	checkSelfSums(t, tr)
}

// TestServeAnswersChecked runs a few requests through the loopback server
// and checks that correct answers pass the reference check and a corrupted
// answer fails it.
func TestServeAnswersChecked(t *testing.T) {
	ctx := context.Background()
	h, err := startServer()
	if err != nil {
		t.Fatal(err)
	}
	defer h.stop()
	var reqs []*request
	for i := 0; i < 3; i++ {
		r := &request{spec: serveSpec(5, streamServe, i), due: time.Now()}
		body, err := requestBody(r.spec)
		if err != nil {
			t.Fatal(err)
		}
		h.post(ctx, r, body)
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		reqs = append(reqs, r)
	}
	reqs[1].out.cost *= 1 + 1e-15
	if err := checkAgainstReference(ctx, tpcd.Catalog(1), reqs); err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if failed := r.err != nil; failed != (i == 1) {
			t.Errorf("request %d: err = %v, want failure only for the corrupted answer", i, r.err)
		}
	}
}
