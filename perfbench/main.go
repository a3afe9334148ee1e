// Command perfbench drives the optimizer's production path — Session.Optimize
// in-process and POST /v1/optimize on a loopback server — under a named
// workload, checks every answer, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics of a traced run) as JSON on its last
// line. See README.md for the workloads, metrics and layer map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

// mainErr runs the benchmark and returns the exit code: 0 for a correct
// run, 1 for a run with an incorrect or failed answer (its result is still
// printed), 2 when the run could not be made.
func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", serve8Open, "workload: "+sessionCold64+", "+serve8Open+" or "+serve8Repeat)
	seed := fs.Int64("seed", 1, "seed every input of the run is derived from")
	seconds := fs.Int("seconds", 10, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	prov := newProvenance(cfg.workload, cfg.seed, *seconds, cfg.trace)
	prov.Samples["requests"] = res.attempted
	prov.Samples["setups"] = len(res.setups)
	for name, tr := range res.traces {
		prov.Samples["traces."+name] = countRoots(tr.spans)
	}

	metrics, report := res.layers, []metric(nil)
	if !cfg.trace {
		metrics, report = endToEnd(res)
	} else {
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		if err := writeTrace(path, prov, res); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		fmt.Fprintln(stdout, "trace written to", path)
	}
	if res.checkErr != nil {
		fmt.Fprintln(stderr, "perfbench: incorrect output:", res.checkErr)
	}
	if err := printResult(stdout, prov, res, metrics, report); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if res.checkErr != nil {
		return 1
	}
	return 0
}

// printResult prints the provenance, a human-readable table of every metric
// and, last, the one-line JSON result.
func printResult(w io.Writer, prov provenance, res *result, metrics, report []metric) error {
	if b, err := json.Marshal(map[string]any{"provenance": prov}); err == nil {
		fmt.Fprintln(w, string(b))
	}
	for _, m := range append(append([]metric(nil), metrics...), report...) {
		fmt.Fprintf(w, "%-32s %16.6f %s\n", m.Name, m.Value, m.Unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   res.checkErr == nil,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]value{},
	}
	for _, m := range metrics {
		out.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding the result: %w", err)
	}
	fmt.Fprintln(w, string(b))
	return nil
}

// writeTrace writes the traced run's spans and their per-layer summary.
func writeTrace(path string, prov provenance, res *result) error {
	type section struct {
		Layers         []layerStat `json:"layers"`
		SelfResidualMS float64     `json:"self_time_residual_ms"`
		Spans          []span      `json:"spans"`
	}
	doc := struct {
		Provenance provenance         `json:"provenance"`
		Sections   map[string]section `json:"sections"`
	}{Provenance: prov, Sections: map[string]section{}}
	for name, tr := range res.traces {
		spans := tr.spans
		doc.Sections[name] = section{Layers: layerStats(spans), SelfResidualMS: msOf(selfResidual(spans)), Spans: spans}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func countRoots(spans []span) int {
	n := 0
	for _, s := range spans {
		if s.Parent == 0 {
			n++
		}
	}
	return n
}
