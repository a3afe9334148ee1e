package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// benchPost fires one optimize request and returns the response's
// oracle-call count; any non-200 fails the benchmark.
func benchPost(b *testing.B, url, body string) int {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/optimize", strings.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
	var or OptimizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&or); err != nil {
		b.Fatal(err)
	}
	return or.Telemetry.OracleCalls
}

// BenchmarkServerSolo is the unbatched reference: per iteration, 8
// identical requests each served by its own fresh server, so no session
// cache and no batching flatter the number. bc_calls is the deterministic
// total oracle-call spend of the 8 — the denominator of the batching
// gate.
func BenchmarkServerSolo(b *testing.B) {
	const clients = 8
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < clients; c++ {
			srv := New(Config{
				DefaultTenant: TenantConfig{MaxConcurrent: 2 * clients, QueueDepth: 32, QueueWaitMS: 60000},
			})
			ts := httptest.NewServer(srv.Handler())
			total += benchPost(b, ts.URL, batchSpecBody)
			ts.Close()
		}
	}
	b.ReportMetric(float64(total)/float64(b.N), "bc_calls")
}

// BenchmarkServerBatched serves n identical concurrent clients through
// the continuous-batching scheduler: the lane flushes on exactly n
// members (the deadline clock never fires), the members coalesce to one
// group, and one shared run answers everyone. bc_calls is the
// deterministic total oracle-call spend per flush — the committed
// baseline pins it at ≥2x below BenchmarkServerSolo's, the batching
// acceptance gate.
func BenchmarkServerBatched(b *testing.B) {
	for _, clients := range []int{2, 8} {
		b.Run(fmt.Sprintf("%dclients", clients), func(b *testing.B) {
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				srv := New(Config{
					DefaultTenant: TenantConfig{MaxConcurrent: 2 * clients, QueueDepth: 32, QueueWaitMS: 60000},
					Batch:         BatchConfig{MaxRequests: clients, MaxDelayMS: 60000},
				})
				srv.batcher.newTimer = func(time.Duration) (<-chan time.Time, func() bool) {
					return make(chan time.Time), func() bool { return true }
				}
				ts := httptest.NewServer(srv.Handler())
				var (
					mu    sync.Mutex
					calls int
				)
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						n := benchPost(b, ts.URL, batchSpecBody)
						mu.Lock()
						calls += n
						mu.Unlock()
					}()
				}
				wg.Wait()
				ts.Close()
				total += calls
			}
			b.ReportMetric(float64(total)/float64(b.N), "bc_calls")
		})
	}
}
