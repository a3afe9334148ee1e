package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle value of xs, averaging the two middle values of an
// even-length sample (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rtSnap is a reading of the runtime counters the benchmark reports.
type rtSnap struct {
	allocBytes, allocObjs, gcCycles uint64
	gcCPU, totalCPU                 float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSnap{
		allocBytes: s[0].Value.Uint64(),
		allocObjs:  s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
		totalCPU:   s[4].Value.Float64(),
	}
}

func (a rtSnap) add(b rtSnap) rtSnap {
	return rtSnap{
		allocBytes: a.allocBytes + b.allocBytes,
		allocObjs:  a.allocObjs + b.allocObjs,
		gcCycles:   a.gcCycles + b.gcCycles,
		gcCPU:      a.gcCPU + b.gcCPU,
		totalCPU:   a.totalCPU + b.totalCPU,
	}
}

func (a rtSnap) sub(b rtSnap) rtSnap {
	return rtSnap{
		allocBytes: a.allocBytes - b.allocBytes,
		allocObjs:  a.allocObjs - b.allocObjs,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
	}
}

// heapPeakEvery is how often the live heap is sampled through a window:
// far more often than the collections that change it.
const heapPeakEvery = 10 * time.Millisecond

// heapPeak tracks the largest live heap (as of the last GC) through a timed
// window. A sampler reads it every heapPeakEvery, so the peak sees nearly
// every collection, and stop reads it once more after a full collection,
// since a heap that grows through the window peaks at its end.
type heapPeak struct {
	s    []metrics.Sample
	peak uint64
	done chan struct{}
	wg   sync.WaitGroup
}

// watchHeap starts sampling the live heap until stop.
func watchHeap() *heapPeak {
	h := &heapPeak{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}, done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(heapPeakEvery)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapPeak) sample() {
	metrics.Read(h.s)
	h.peak = max(h.peak, h.s[0].Value.Uint64())
}

// stop ends the sampling and takes the last sample after a full
// collection.
func (h *heapPeak) stop() {
	close(h.done)
	h.wg.Wait()
	runtime.GC()
	h.sample()
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / 1e6 }

// provenance identifies the host and code a result was measured on.
// Results are never compared across hosts.
type provenance struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      int            `json:"seconds"`
	Trace        bool           `json:"trace"`
	CPUModel     string         `json:"cpu_model"`
	NumCPU       int            `json:"nproc"`
	GOMAXPROCS   int            `json:"gomaxprocs"`
	GoVersion    string         `json:"go_version"`
	GitCommit    string         `json:"git_commit"`
	SourceSHA256 string         `json:"source_sha256"`
	Samples      map[string]int `json:"samples"`
}

func newProvenance(workload string, seed int64, seconds int, trace bool) provenance {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return provenance{
		Workload:     workload,
		Seed:         seed,
		Seconds:      seconds,
		Trace:        trace,
		CPUModel:     cpuModel(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		GitCommit:    commit,
		SourceSHA256: sourceDigest("."),
		Samples:      map[string]int{},
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result names the code it measured even in a checkout without git
// metadata. Build and VCS directories are skipped.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTime is the CPU time, user and system, the process has used so far.
// A set-up is timed by it because, unlike wall time, it leaves out the time
// a shared host's hypervisor gives this machine's CPUs to other guests.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
