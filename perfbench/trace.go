package main

import (
	"sort"
	"time"
)

// span is one timed interval of one request. Spans of a request share a
// trace id; Parent is 0 for the request's root. Times are nanoseconds since
// the tracer was created.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Synth marks a span built from a phase duration the program reported
	// (RunResult, Telemetry or an HTTP response) rather than timed by the
	// benchmark. The program reports how long a phase took, not when it
	// started, so synthesized children are laid out back to back from their
	// parent's start.
	Synth bool `json:"synthesized,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; the run writes them out when it ends. A
// tracer is used from one goroutine: spans are recorded by the closed loop
// or the replay as they run, or after an open-loop window has ended.
type tracer struct {
	t0     time.Time
	spans  []span
	nextID int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// activeSpan is a span that has started and not yet ended. Its id is fixed
// at start, so children can name it as their parent before it ends.
type activeSpan struct {
	t     *tracer
	s     span
	start time.Time
}

// begin starts a span now.
func (t *tracer) begin(trace, parent int, name string) *activeSpan {
	return t.beginAt(trace, parent, name, time.Now())
}

// beginAt starts a span at a time already passed.
func (t *tracer) beginAt(trace, parent int, name string, start time.Time) *activeSpan {
	return &activeSpan{t: t, s: span{Trace: trace, ID: t.reserve(), Parent: parent, Name: name, Start: t.ns(start)}, start: start}
}

// end finishes the span now and returns its duration.
func (o *activeSpan) end() time.Duration {
	now := time.Now()
	o.s.End = o.t.ns(now)
	o.t.add(o.s)
	return now.Sub(o.start)
}

// addSpan records a span that has already ended and returns its id.
func (t *tracer) addSpan(trace, parent int, name string, start, end time.Time) int {
	o := t.beginAt(trace, parent, name, start)
	o.s.End = t.ns(end)
	t.add(o.s)
	return o.s.ID
}

func (t *tracer) reserve() int {
	t.nextID++
	return t.nextID
}

func (t *tracer) add(s span) { t.spans = append(t.spans, s) }

// phase is a named duration reported by the program, with its own reported
// sub-phases.
type phase struct {
	name     string
	d        time.Duration
	children []phase
}

// synth lays the phases out back to back from the parent span's start and
// records them (and their sub-phases) as synthesized children of parent.
func (t *tracer) synth(trace, parent int, start time.Time, phases []phase) {
	at := start
	for _, p := range phases {
		end := at.Add(p.d)
		id := t.reserve()
		t.add(span{Trace: trace, ID: id, Parent: parent, Name: p.name, Start: t.ns(at), End: t.ns(end), Synth: true})
		t.synth(trace, id, at, p.children)
		at = end
	}
}

// selfTimes returns each span's self time: its duration minus the time its
// children cover, clamped at zero. Children of one span never overlap (the
// layers a request crosses run one after another), so the self times of a
// request's spans sum to its root's duration unless a clamp fired.
func selfTimes(spans []span) map[int]int64 {
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	for id, v := range self {
		if v < 0 {
			self[id] = 0
		}
	}
	return self
}

// layerStat summarizes one span name across requests.
type layerStat struct {
	Name      string  `json:"name"`
	Count     int     `json:"count"`
	WallP50MS float64 `json:"wall_p50_ms"`
	SelfP50MS float64 `json:"self_p50_ms"`
	SelfMS    float64 `json:"self_total_ms"`
	// Share is this span name's total self time over the total duration of
	// the roots of the traces it occurs in.
	Share float64 `json:"share_of_root"`
}

// layerStats aggregates spans by name: per-span wall and self medians and
// each name's share of its traces' root time.
func layerStats(spans []span) []layerStat {
	self := selfTimes(spans)
	rootDur := map[int]int64{}
	for _, s := range spans {
		if s.Parent == 0 {
			rootDur[s.Trace] += s.dur()
		}
	}
	type acc struct {
		walls, selfs []float64
		selfNS       int64
		traces       map[int]bool
	}
	by := map[string]*acc{}
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &acc{traces: map[int]bool{}}
			by[s.Name] = a
		}
		a.walls = append(a.walls, ms(s.dur()))
		a.selfs = append(a.selfs, ms(self[s.ID]))
		a.selfNS += self[s.ID]
		a.traces[s.Trace] = true
	}
	out := make([]layerStat, 0, len(by))
	for name, a := range by {
		var roots int64
		for tr := range a.traces {
			roots += rootDur[tr]
		}
		st := layerStat{
			Name:      name,
			Count:     len(a.walls),
			WallP50MS: median(a.walls),
			SelfP50MS: median(a.selfs),
			SelfMS:    ms(a.selfNS),
		}
		if roots > 0 {
			st.Share = float64(a.selfNS) / float64(roots)
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// selfResidual returns, over all traces, the largest gap between the sum of
// a trace's self times and its root's duration. It is zero unless a
// synthesized child outlasted its parent and the clamp in selfTimes fired.
func selfResidual(spans []span) time.Duration {
	self := selfTimes(spans)
	sum := map[int]int64{}
	root := map[int]int64{}
	for _, s := range spans {
		sum[s.Trace] += self[s.ID]
		if s.Parent == 0 {
			root[s.Trace] += s.dur()
		}
	}
	var worst int64
	for tr, r := range root {
		d := sum[tr] - r
		if d < 0 {
			d = -d
		}
		worst = max(worst, d)
	}
	return time.Duration(worst)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
