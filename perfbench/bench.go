package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/workload"
)

// Workload names.
const (
	sessionCold64 = "session-cold-64"
	serve8Open    = "serve-8-open"
	serve8Repeat  = "serve-8-repeat"
)

const (
	// setupRepeats is how many times a run sets its workload up; setup_s
	// is the median of their CPU times, so one slow set-up on a shared host
	// does not decide it. The first setupsBefore set-ups come before the
	// timed window, which measures the last of them, and the rest after
	// it, so the median samples the host at two times half a minute apart
	// rather than during one burst of contention.
	setupRepeats = 7
	setupsBefore = 4
	// replayShare bounds a traced run's layer replay to this share of the
	// timed window.
	replayShare = 0.5
)

// request is one timed request of a run: a batch through Session.Optimize
// or one POST /v1/optimize.
type request struct {
	spec workload.Spec
	// due is when the load generator meant to send the request, sent when
	// it did, done when the answer was complete.
	due, sent, done time.Time
	out             outcome
	tel             repro.Telemetry
	// gen is the batch generation the benchmark timed (session only);
	// build, opt and extract are the phase times the program reported, and
	// queueWait is the server's admission wait (serve only).
	gen, build, opt, extract, queueWait time.Duration
	err                                 error
}

func (r *request) latency() time.Duration { return r.done.Sub(r.due) }

// config is one invocation of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// result is what one run measured.
type result struct {
	attempted, failed int
	// checkErr is the first incorrect output or failed check; a run with
	// one is reported as incorrect and exits non-zero.
	checkErr error
	// setups and setupWalls are each set-up's process CPU time and wall
	// time.
	setups, setupWalls []time.Duration
	reqs               []*request
	// window is the timed wall time: from the first due time to the last
	// answer in an open loop, the sum of request latencies in a closed one.
	window time.Duration
	rt     rtSnap // runtime counters over the timed window
	peak   *heapPeak
	limit  time.Duration // goodput latency limit
	layers []metric      // traced run: per-layer metrics
	traces map[string]*tracer
}

// fail records a failed check.
func (r *result) fail(err error) {
	if r.checkErr == nil {
		r.checkErr = err
	}
}

// workloadRunner sets a workload up and measures it.
type workloadRunner interface {
	// setup builds everything the timed window needs; teardown releases
	// it, measured or not.
	setup(ctx context.Context) error
	teardown()
	// measure runs the timed window, checks the outputs and, when traced,
	// derives the per-layer metrics.
	measure(ctx context.Context, res *result) error
}

func newRunner(cfg config) (workloadRunner, error) {
	switch cfg.workload {
	case sessionCold64:
		return &sessionWorkload{cfg: cfg}, nil
	case serve8Open, serve8Repeat:
		return &serveWorkload{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want %s, %s or %s)", cfg.workload, sessionCold64, serve8Open, serve8Repeat)
}

// run sets the workload up setupRepeats times, each from a collected heap,
// and measures the setupsBefore-th set-up.
func run(ctx context.Context, cfg config) (*result, error) {
	w, err := newRunner(cfg)
	if err != nil {
		return nil, err
	}
	res := &result{traces: map[string]*tracer{}}
	defer w.teardown()
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.teardown()
		}
		runtime.GC()
		start, cpu := time.Now(), cpuTime()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setups = append(res.setups, cpuTime()-cpu)
		res.setupWalls = append(res.setupWalls, time.Since(start))
		if i == setupsBefore-1 {
			if err := w.measure(ctx, res); err != nil {
				return nil, err
			}
		}
	}
	res.attempted = len(res.reqs)
	for _, r := range res.reqs {
		if r.err != nil {
			res.failed++
			res.fail(r.err)
		}
	}
	return res, nil
}

// deriveSeed maps (seed, stream, i) to a well-mixed spec seed (splitmix64),
// so every input of a run follows from --seed alone.
func deriveSeed(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// Seed streams.
const (
	streamSession = iota + 1
	streamServe
	streamWarmup
	streamPool
	streamZipf
)
