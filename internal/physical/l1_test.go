package physical

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/cost"
	"repro/internal/memo"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

// l1TestMask derives the i-th distinct test mask. The multiplier is odd,
// so masks never repeat within any 2^64 window.
func l1TestMask(i int) uint64 {
	return uint64(i)*0x9e3779b97f4a7c15 + 0x1234_5678_9abc_def0
}

// findMaskWithHome brute-forces a mask whose probe home is the given
// bucket position, distinct from every mask in taken.
func findMaskWithHome(t *testing.T, home int, taken map[uint64]bool) uint64 {
	t.Helper()
	for i := 0; i < 1<<20; i++ {
		m := l1TestMask(i)
		if l1Home(m) == home && !taken[m] {
			taken[m] = true
			return m
		}
	}
	t.Fatalf("no unseen mask homed at %d in 2^20 candidates", home)
	return 0
}

// TestL1AllOnesMaskRoundTrips pins the retired-sentinel bug: the old
// front cache marked empty slots with ^uint64(0), so a real all-ones
// mask hash queried before any store read the zeroed value array as a
// hit. With explicit occupancy a fresh slot must miss, and the stored
// value must round-trip exactly.
func TestL1AllOnesMaskRoundTrips(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	w := s.worker(0)
	const mask = ^uint64(0)
	if v, ok := w.cachedUse(0, 0, 0, mask); ok {
		t.Fatalf("all-ones mask hit an empty L1 with value %v (sentinel collision)", v)
	}
	if v, ok := w.cachedComp(0, 0, 0, mask); ok {
		t.Fatalf("all-ones mask hit an empty comp L1 with value %v (sentinel collision)", v)
	}
	w.storeUse(0, mask, 42.5)
	if v, ok := w.cachedUse(0, 0, 0, mask); !ok || v != 42.5 {
		t.Fatalf("all-ones mask after store: got (%v, %v), want (42.5, true)", v, ok)
	}
	// The bucket probe path must agree once the front cache points at a
	// different mask.
	w.storeUse(0, 7, 9.25)
	if v, ok := w.cachedUse(0, 0, 0, mask); !ok || v != 42.5 {
		t.Fatalf("all-ones mask via bucket probe: got (%v, %v), want (42.5, true)", v, ok)
	}
}

// TestL1ProbeWraparound stores keys homed at the last probe position, so
// collision resolution must wrap around to position 0, and verifies every
// key stays retrievable.
func TestL1ProbeWraparound(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	w := s.worker(0)
	taken := map[uint64]bool{}
	masks := make([]uint64, 4)
	for i := range masks {
		masks[i] = findMaskWithHome(t, l1BucketCap-1, taken)
		w.storeUse(0, masks[i], float64(100+i))
	}
	b := w.useL1[0]
	if b == nil {
		t.Fatal("no bucket allocated")
	}
	for i, m := range masks {
		if v, ok := b.lookup(m); !ok || v != float64(100+i) {
			t.Fatalf("wrapped key %d: got (%v, %v), want (%v, true)", i, v, ok, float64(100+i))
		}
	}
	// The first key sits at its home, the rest wrapped past the end.
	if b.occ&(1<<uint(l1BucketCap-1)) == 0 {
		t.Fatal("home position of the colliding keys is unoccupied")
	}
	for i := 0; i < len(masks)-1; i++ {
		if b.occ&(1<<uint(i)) == 0 {
			t.Fatalf("wrapped position %d is unoccupied", i)
		}
	}
}

// TestL1OverflowFallsBackToShared drives one (group, order) bucket past
// its fill bound, so a store must evict the occupant of its home
// position, and verifies the evicted key is then served from the
// SharedCache L2 — the prescribed overflow path — while the newly stored
// key stays in the L1.
func TestL1OverflowFallsBackToShared(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	cache := NewSharedCache()
	s.AttachSharedCache(cache)
	w := s.worker(0)
	w.syncShared()

	taken := map[uint64]bool{}
	for i := 0; i < l1MaxFill; i++ {
		m := l1TestMask(i)
		taken[m] = true
		w.storeUse(0, m, float64(i))
	}
	b := w.useL1[0]
	if got := bits.OnesCount64(b.occ); got != l1MaxFill {
		t.Fatalf("bucket fill %d after %d distinct stores, want the fill bound", got, l1MaxFill)
	}

	// One more store must evict the current occupant of its home position.
	extra := findMaskWithHome(t, 0, taken)
	home := l1Home(extra)
	if b.occ&(1<<uint(home)) == 0 {
		// An empty home is claimed instead of evicting; force the probe to
		// land on an occupied home so the eviction path is exercised.
		for p := 0; p < l1BucketCap; p++ {
			if b.occ&(1<<uint(p)) != 0 {
				extra = findMaskWithHome(t, p, taken)
				home = p
				break
			}
		}
	}
	victim := b.entries[home].mask
	var victimVal float64
	var ok bool
	if victimVal, ok = b.lookup(victim); !ok {
		t.Fatal("home position occupant not retrievable before eviction")
	}
	w.storeUse(0, extra, 999.5)
	if v, ok := b.lookup(extra); !ok || v != 999.5 {
		t.Fatalf("overflow store lost the new key: got (%v, %v)", v, ok)
	}
	if _, ok := b.lookup(victim); ok {
		t.Fatal("evicted key still present in the L1 bucket")
	}

	// The evicted key falls back to the L2: seed it there (as an earlier
	// PublishCache would have) and the cache read must hit, counted as a
	// shared hit and re-promoted into the L1.
	cache.merge(w.ns, []sharedKV{{k: cacheKey{g: 0, ord: 0, compute: false, mask: victim}, v: victimVal}})
	w.sharedHits = 0
	if v, ok := w.cachedUse(0, 0, 0, victim); !ok || v != victimVal {
		t.Fatalf("evicted key via L2 fallback: got (%v, %v), want (%v, true)", v, ok, victimVal)
	}
	if w.sharedHits != 1 {
		t.Fatalf("L2 fallback counted %d shared hits, want 1", w.sharedHits)
	}
}

// TestL1ResetReusesBackingArrays pins the epoch-stamped reset: resetL1
// must empty the cache without reallocating the front arrays or the
// bucket probe arrays, and the emptied buckets must be reusable.
func TestL1ResetReusesBackingArrays(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	w := s.worker(0)
	w.storeUse(0, 11, 1.5)
	w.storeComp(0, 12, 2.5)
	frontBefore := &w.useFront[0]
	bucketBefore := w.useL1[0]
	if bucketBefore == nil {
		t.Fatal("no bucket allocated")
	}

	w.resetL1()
	if &w.useFront[0] != frontBefore {
		t.Fatal("resetL1 reallocated the front-cache arrays")
	}
	if w.useL1[0] != bucketBefore {
		t.Fatal("resetL1 dropped the bucket backing array")
	}
	if _, ok := w.cachedUse(0, 0, 0, 11); ok {
		t.Fatal("use entry survived resetL1")
	}
	if _, ok := w.cachedComp(0, 0, 0, 12); ok {
		t.Fatal("comp entry survived resetL1")
	}

	// The stale bucket self-clears on its next store and serves again.
	w.storeUse(0, 13, 3.5)
	if w.useL1[0] != bucketBefore {
		t.Fatal("post-reset store allocated a fresh bucket")
	}
	if v, ok := w.cachedUse(0, 0, 0, 13); !ok || v != 3.5 {
		t.Fatalf("post-reset store: got (%v, %v), want (3.5, true)", v, ok)
	}
	if _, ok := w.useL1[0].lookup(11); ok {
		t.Fatal("pre-reset entry resurfaced after the bucket self-cleared")
	}
}

// TestL1EpochWrapHardResets forces the uint32 L1 epoch to wrap and
// verifies the ambiguous stamps are hard-cleared instead of resurrecting
// entries stamped with a recycled epoch.
func TestL1EpochWrapHardResets(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	w := s.worker(0)
	w.storeUse(0, 21, 4.5)
	w.l1Epoch = ^uint32(0) // next reset wraps
	w.useFront[0].ep = ^uint32(0)
	w.useL1[0].ep = ^uint32(0)
	w.resetL1()
	if w.l1Epoch != 1 {
		t.Fatalf("wrapped epoch is %d, want 1", w.l1Epoch)
	}
	if _, ok := w.cachedUse(0, 0, 0, 21); ok {
		t.Fatal("entry resurrected across an epoch wrap")
	}
}

// TestBestCostBatchCtxL1Stress hammers the flat L1 through the real
// batched oracle: hundreds of random candidate sets, evaluated on a
// 4-worker pool under the race detector, must price bit-identically to
// sequential evaluation on a fresh searcher.
func TestBestCostBatchCtxL1Stress(t *testing.T) {
	sPar := buildSearcher(t, sharedPairQueries()...)
	sSeq := buildSearcher(t, sharedPairQueries()...)
	sh := sPar.M.Shareable()
	if len(sh) < 2 {
		t.Fatalf("need ≥ 2 shareable nodes, have %d", len(sh))
	}
	rng := rand.New(rand.NewSource(7))
	mats := make([]NodeSet, 300)
	seqMats := make([]NodeSet, len(mats))
	for i := range mats {
		ids := make([]memo.GroupID, 0, len(sh))
		for _, id := range sh {
			if rng.Intn(2) == 0 {
				ids = append(ids, id)
			}
		}
		mats[i] = sPar.NewNodeSet(ids...)
		seqMats[i] = sSeq.NewNodeSet(ids...)
	}
	sPar.Parallelism = 4
	got, ok := sPar.BestCostBatchCtx(nil, mats)
	if !ok {
		t.Fatal("stress batch aborted")
	}
	for i := range mats {
		if want := sSeq.BestCost(seqMats[i]); got[i] != want {
			t.Fatalf("set %d: batched %v != sequential %v", i, got[i], want)
		}
	}
}

// BenchmarkL1Probe compares the flat open-addressed bucket against the
// retired map[uint64]float64 bucket layout on the L1's real access mix —
// a warm bucket probed at a hit-heavy ratio with periodic fresh stores —
// with allocations reported. The flat path must be allocation-free.
func BenchmarkL1Probe(b *testing.B) {
	masks := make([]uint64, l1MaxFill)
	for i := range masks {
		masks[i] = l1TestMask(i)
	}
	b.Run("flat", func(b *testing.B) {
		bucket := new(l1Bucket)
		for i, m := range masks {
			bucket.store(1, m, float64(i))
		}
		b.ReportAllocs()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			m := masks[i%len(masks)]
			if i%16 == 15 {
				bucket.store(1, m, float64(i))
				continue
			}
			if v, ok := bucket.lookup(m); ok {
				sink += v
			}
		}
		benchSink = sink
	})
	b.Run("map", func(b *testing.B) {
		bucket := make(map[uint64]float64, 4) // the old lazy bucket's size hint
		for i, m := range masks {
			bucket[m] = float64(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var sink float64
		for i := 0; i < b.N; i++ {
			m := masks[i%len(masks)]
			if i%16 == 15 {
				bucket[m] = float64(i)
				continue
			}
			if v, ok := bucket[m]; ok {
				sink += v
			}
		}
		benchSink = sink
	})
}

// BenchmarkSharedCache measures the L2 on a 64-query batch's learning:
// lookups that hit and that miss (the greedy scan's common case on a
// fresh batch), and a whole PublishCache of that learning into a warm
// cache. All three must be allocation-free.
func BenchmarkSharedCache(b *testing.B) {
	m, err := memo.Build(tpcd.Catalog(1), cost.Default(), workload.MustGenerate(workload.DefaultSpec(64, 0.25)))
	if err != nil {
		b.Fatal(err)
	}
	s := NewSearcher(m)
	cache := NewSharedCache()
	s.AttachSharedCache(cache)
	sh := s.M.Shareable()
	mats := []NodeSet{{}}
	for i := range sh {
		mats = append(mats, s.NewNodeSet(sh[i]), s.NewNodeSet(sh[:i+1]...))
	}
	if _, ok := s.BestCostBatchCtx(nil, mats); !ok {
		b.Fatal("batch aborted")
	}
	s.PublishCache()
	ns := s.cacheNS()
	var keys []cacheKey
	for i := range cache.shards {
		shard := &cache.shards[i]
		for j := range shard.tab {
			if e := &shard.tab[j]; e.gen == shard.gen && e.ns == ns {
				keys = append(keys, e.key())
			}
		}
	}
	if len(keys) == 0 {
		b.Fatal("publish stored nothing")
	}
	rand.New(rand.NewSource(1)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	lookups := func(b *testing.B, flip uint64) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			k := keys[i%len(keys)]
			k.mask ^= flip
			if v, ok := cache.get(ns, k); ok {
				sink += v
			}
		}
		benchSink = sink
	}
	b.Run("get-hit", func(b *testing.B) { lookups(b, 0) })
	b.Run("get-miss", func(b *testing.B) { lookups(b, 0x5555) })
	b.Run("publish-64q", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.PublishCache()
		}
		b.ReportMetric(float64(len(keys)), "entries")
	})
}

var benchSink float64
