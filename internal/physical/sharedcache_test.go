package physical

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/memo"
)

// TestSharedCacheWarmStartAcrossSearchers: two searchers compiled from
// equal memos share one cache; after the first publishes, the second
// prices the same sets bit-identically while hitting the shared tier.
func TestSharedCacheWarmStartAcrossSearchers(t *testing.T) {
	s1 := buildSearcher(t, sharedPairQueries()...)
	s2 := buildSearcher(t, sharedPairQueries()...)
	if s1.structHash() != s2.structHash() {
		t.Fatal("equal batches compiled to different struct hashes")
	}
	cache := NewSharedCache()
	s1.AttachSharedCache(cache)
	s2.AttachSharedCache(cache)

	sh := s1.M.Shareable()
	var want []float64
	for _, id := range sh {
		want = append(want, s1.BestCost(s1.NewNodeSet(id)))
	}
	s1.PublishCache()
	if cache.Len() == 0 {
		t.Fatal("publish left the shared cache empty")
	}

	s2.ResetStats()
	for i, id := range sh {
		if got := s2.BestCost(s2.NewNodeSet(id)); got != want[i] {
			t.Errorf("warm cost %d: %v != cold %v", i, got, want[i])
		}
	}
	if s2.SharedHits == 0 {
		t.Error("warm searcher never hit the shared cache")
	}
}

// TestSharedCacheInvalidate: Invalidate makes every entry unobservable and
// forces relearning, without changing any cost.
func TestSharedCacheInvalidate(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	cache := NewSharedCache()
	s.AttachSharedCache(cache)
	set := s.NewNodeSet(s.M.Shareable()[0])
	want := s.BestCost(set)
	s.PublishCache()
	if cache.Len() == 0 {
		t.Fatal("publish stored nothing")
	}
	cache.Invalidate()
	if cache.Len() != 0 {
		t.Errorf("invalidated cache still reports %d live entries", cache.Len())
	}
	if got := s.BestCost(set); got != want {
		t.Errorf("cost after invalidation %v != %v", got, want)
	}
}

// TestSharedCacheNamespaceSeparatesFlags: publishing under one flag
// setting must not leak into another — the extended-operator cost of a
// fresh searcher and of a cache-sharing searcher must agree exactly.
func TestSharedCacheNamespaceSeparatesFlags(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	cache := NewSharedCache()
	s.AttachSharedCache(cache)
	set := s.NewNodeSet(s.M.Shareable()[0])
	s.BestCost(set)
	s.PublishCache()

	s.ExtendedOps = true
	s.ClearCache()
	got := s.BestCost(set)

	fresh := buildSearcher(t, sharedPairQueries()...)
	fresh.ExtendedOps = true
	fresh.ClearCache()
	if want := fresh.BestCost(set); got != want {
		t.Errorf("flag-toggled cost with shared cache %v != fresh %v", got, want)
	}
}

// TestSharedCacheConcurrentSearchers: many searchers over the same memo
// publishing and reading one cache concurrently stay race-free (run under
// -race) and bit-identical.
func TestSharedCacheConcurrentSearchers(t *testing.T) {
	ref := buildSearcher(t, sharedPairQueries()...)
	sh := ref.M.Shareable()
	var want []float64
	for _, id := range sh {
		want = append(want, ref.BestCost(ref.NewNodeSet(id)))
	}
	cache := NewSharedCache()
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for k := 0; k < 4; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := buildSearcher(t, sharedPairQueries()...)
			s.AttachSharedCache(cache)
			for i, id := range sh {
				if got := s.BestCost(s.NewNodeSet(id)); got != want[i] {
					errs <- "cost diverged under concurrency"
					return
				}
			}
			s.PublishCache()
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestSharedCacheMergeCapKeepsBatch is the shard-cap eviction regression
// test: one bulk publish larger than a shard's cap must come out of the
// merge with every one of its own keys readable. The old merge reset the
// shard map inside the per-entry write loop whenever the cap was hit, so
// a batch ≥ the cap kept only its tail — entries written earlier in the
// same publish were silently discarded.
func TestSharedCacheMergeCapKeepsBatch(t *testing.T) {
	c := NewSharedCache()
	const ns = uint64(0xabcdef)
	// Collect sharedShardCap+64 keys that all land in one shard, so the
	// merge's own bucket exceeds the cap.
	var kvs []sharedKV
	var shard uint64
	for mask := uint64(0); len(kvs) < sharedShardCap+64; mask++ {
		k := cacheKey{g: 1, ord: 2, mask: mask}
		h := c.shardIndex(ns, k)
		if len(kvs) == 0 {
			shard = h
		} else if h != shard {
			continue
		}
		kvs = append(kvs, sharedKV{k: k, v: float64(mask) + 0.5})
	}
	c.merge(ns, kvs)
	lost := 0
	for _, e := range kvs {
		v, ok := c.get(ns, e.k)
		if !ok {
			lost++
			continue
		}
		if v != e.v {
			t.Fatalf("key mask=%d came back %v, want %v", e.k.mask, v, e.v)
		}
	}
	if lost > 0 {
		t.Fatalf("merge lost %d of its own %d entries (cap eviction ran mid-batch)", lost, len(kvs))
	}
}

// TestSharedCacheMergeCapResetsAtMostOnce: consecutive merges that
// overflow a shard must each survive intact — the reset happens before a
// merge's writes, never between them — and the shard never holds more
// than the larger of the cap and one merge's own bucket.
func TestSharedCacheMergeCapResetsAtMostOnce(t *testing.T) {
	c := NewSharedCache()
	const ns = uint64(0x1717)
	shard := c.shardIndex(ns, cacheKey{g: 3, ord: 1, mask: 0})
	oneShard := func(n int, start uint64) []sharedKV {
		var kvs []sharedKV
		for mask := start; len(kvs) < n; mask++ {
			k := cacheKey{g: 3, ord: 1, mask: mask}
			if c.shardIndex(ns, k) != shard {
				continue
			}
			kvs = append(kvs, sharedKV{k: k, v: float64(mask)})
		}
		return kvs
	}
	a := oneShard(sharedShardCap/2, 0)
	c.merge(ns, a)
	// A second merge into the same shard pushes past the cap: it may
	// evict the first batch wholesale, but its own keys must all land.
	b := oneShard(sharedShardCap, 1<<32)
	c.merge(ns, b)
	for _, e := range b {
		if v, ok := c.get(ns, e.k); !ok || v != e.v {
			t.Fatalf("second merge lost its own key mask=%d (got %v, %v)", e.k.mask, v, ok)
		}
	}
}

// errAfterCtx reports cancellation once Err has been consulted n times —
// a deterministic mid-batch abort trigger for the sequential path.
type errAfterCtx struct {
	left int
}

func (c *errAfterCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *errAfterCtx) Done() <-chan struct{}       { return nil }
func (c *errAfterCtx) Value(any) any               { return nil }

func (c *errAfterCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestBestCostBatchCtxReturnsCompletedPrefix: an aborted batch hands back
// the leading results it finished, bit-identical to sequential calls.
func TestBestCostBatchCtxReturnsCompletedPrefix(t *testing.T) {
	s := buildSearcher(t, sharedPairQueries()...)
	sh := s.M.Shareable()
	if len(sh) < 2 {
		t.Fatalf("need ≥ 2 shareable nodes, have %d", len(sh))
	}
	// Singletons, the empty set, pairs: enough distinct sets to abort in
	// the middle of.
	mats := []NodeSet{{}, s.NewNodeSet(sh[0]), s.NewNodeSet(sh[1]), s.NewNodeSet(sh[0], sh[1]), s.NewNodeSet(sh[0])}
	want := make([]float64, len(mats))
	for i, m := range mats {
		want[i] = s.BestCost(m)
	}
	s.Parallelism = 1
	costs, ok := s.BestCostBatchCtx(&errAfterCtx{left: 3}, mats)
	if ok {
		t.Fatal("aborted batch reported ok")
	}
	if len(costs) != 3 {
		t.Fatalf("completed prefix has %d results, want 3", len(costs))
	}
	for i, c := range costs {
		if c != want[i] {
			t.Errorf("prefix cost %d: %v != sequential %v", i, c, want[i])
		}
	}
	// The concurrent dispatch path under an already-dead context completes
	// nothing: the prefix is empty, never partial garbage.
	s.Parallelism = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	costs, ok = s.BestCostBatchCtx(ctx, mats)
	if ok || len(costs) != 0 {
		t.Errorf("dead-context batch: ok=%v prefix=%d, want false/empty", ok, len(costs))
	}
}

// mapModel is the map-per-shard SharedCache the flat tables replaced,
// kept as the reference its observable behaviour must match: the same
// shard choice, a per-entry cache epoch (stale entries stay in the map
// and count against the cap), the per-shard cap with a reset at most
// once per merge before its writes, and a reset at the cap in
// PutBenefit.
type mapModel struct {
	epoch  uint64
	shards [sharedCacheShards]map[mapModelKey]mapModelEntry
}

type mapModelKey struct {
	ns uint64
	k  cacheKey
}

type mapModelEntry struct {
	v     float64
	epoch uint64
}

func newMapModel() *mapModel {
	m := &mapModel{}
	for i := range m.shards {
		m.shards[i] = make(map[mapModelKey]mapModelEntry)
	}
	return m
}

func (m *mapModel) shardIndex(ns uint64, k cacheKey) uint64 {
	h := ns ^ k.mask ^ uint64(uint32(k.g))<<29 ^ uint64(uint32(k.ord))<<13
	if k.compute {
		h ^= 0x9e3779b97f4a7c15
	}
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h & (sharedCacheShards - 1)
}

func (m *mapModel) invalidate() { m.epoch++ }

func (m *mapModel) get(ns uint64, k cacheKey) (float64, bool) {
	e, ok := m.shards[m.shardIndex(ns, k)][mapModelKey{ns, k}]
	if !ok || e.epoch != m.epoch {
		return 0, false
	}
	return e.v, true
}

func (m *mapModel) putBenefit(ns, key uint64, v float64) {
	k := cacheKey{g: benefitGroup, mask: key}
	i := m.shardIndex(ns, k)
	if len(m.shards[i]) >= sharedShardCap {
		m.shards[i] = make(map[mapModelKey]mapModelEntry)
	}
	m.shards[i][mapModelKey{ns, k}] = mapModelEntry{v: v, epoch: m.epoch}
}

func (m *mapModel) merge(ns uint64, kvs []sharedKV) {
	buckets := make([][]sharedKV, sharedCacheShards)
	for _, e := range kvs {
		h := m.shardIndex(ns, e.k)
		buckets[h] = append(buckets[h], e)
	}
	for i, b := range buckets {
		if len(b) == 0 {
			continue
		}
		if len(m.shards[i])+len(b) > sharedShardCap {
			m.shards[i] = make(map[mapModelKey]mapModelEntry, len(b))
		}
		for _, e := range b {
			m.shards[i][mapModelKey{ns, e.k}] = mapModelEntry{v: e.v, epoch: m.epoch}
		}
	}
}

func (m *mapModel) len() int {
	n := 0
	for _, sh := range m.shards {
		for _, e := range sh {
			if e.epoch == m.epoch {
				n++
			}
		}
	}
	return n
}

// export builds the canonical snapshot of the live entries the way
// SharedCache.Export specifies it: namespaces and entries sorted, every
// 64-bit quantity fixed-width hex, the content checksum last.
func (m *mapModel) export(scope string) *CacheSnapshot {
	byNS := make(map[uint64][]SnapshotEntry)
	for _, sh := range m.shards {
		for k, e := range sh {
			if e.epoch != m.epoch {
				continue
			}
			byNS[k.ns] = append(byNS[k.ns], SnapshotEntry{
				G: int(k.k.g), Ord: int(k.k.ord), Compute: k.k.compute,
				Mask: hex16(k.k.mask), V: hex16(math.Float64bits(e.v)),
			})
		}
	}
	snap := &CacheSnapshot{Version: snapshotVersion, Scope: scope}
	var nss []uint64
	for ns := range byNS {
		nss = append(nss, ns)
	}
	sort.Slice(nss, func(a, b int) bool { return nss[a] < nss[b] })
	for _, ns := range nss {
		es := byNS[ns]
		sort.Slice(es, func(a, b int) bool { return entryLess(&es[a], &es[b]) })
		snap.Namespaces = append(snap.Namespaces, SnapshotNamespace{NS: hex16(ns), Entries: es})
	}
	snap.Checksum = snap.checksum()
	return snap
}

// ageGenerations moves every shard's generation counter to just below
// its wrap, shifting the stamps with it, so the next few resets and
// invalidations exercise renumber. What the cache holds is unchanged.
func ageGenerations(c *SharedCache) {
	for i := range c.shards {
		sh := &c.shards[i]
		if sh.tab == nil || sh.gen >= math.MaxUint32-2 {
			continue
		}
		d := math.MaxUint32 - 2 - sh.gen
		for j := range sh.tab {
			if sh.tab[j].gen >= sh.base {
				sh.tab[j].gen += d
			}
		}
		sh.base += d
		sh.gen += d
	}
}

// TestSharedCacheMatchesMapModel drives the flat-table SharedCache and
// the map-per-shard reference with the same operations: first a scripted
// prefix (stale entries left by an Invalidate count against the cap,
// survive the table's growth and are revived in place), then seeded
// random merges (three namespaces, most keys funnelled into one hot shard
// so it reaches the cap, bulk merges whose own bucket exceeds the cap,
// fills to exactly the cap), PutBenefit at and below the cap, Invalidate
// and generation wrap. After every operation the two must agree on get
// and GetBenefit over the keys the operation touched plus a sample of the
// key pool, on Len, and on the exported snapshot's bytes — and Len must
// equal the number of exported entries.
func TestSharedCacheMatchesMapModel(t *testing.T) {
	seeds, ops := []int64{1, 2, 3}, 60
	if testing.Short() {
		seeds, ops = seeds[:1], 24
	}
	nss := []uint64{0x5eed0001, 0xc0ffee00c0ffee, 0xfeedfacecafebeef}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		c, m := NewSharedCache(), newMapModel()
		hot := c.shardIndex(nss[0], cacheKey{g: 1, mask: 1})
		// Per namespace: a pool of keys in the hot shard (costs and
		// benefits) and a few keys anywhere.
		type pool struct{ hot, cold, benefit []cacheKey }
		pools := make([]pool, len(nss))
		for pi, ns := range nss {
			p := &pools[pi]
			for len(p.hot) < sharedShardCap+sharedShardCap/4 {
				k := cacheKey{g: memo.GroupID(rng.Intn(12)), ord: ordID(rng.Intn(4)), compute: rng.Intn(2) == 0, mask: rng.Uint64()}
				if c.shardIndex(ns, k) == hot {
					p.hot = append(p.hot, k)
				} else if len(p.cold) < 256 {
					p.cold = append(p.cold, k)
				}
			}
			for len(p.benefit) < 512 {
				k := cacheKey{g: benefitGroup, mask: rng.Uint64()}
				if c.shardIndex(ns, k) == hot || len(p.benefit)%8 == 0 {
					p.benefit = append(p.benefit, k)
				}
			}
		}
		pick := func(ks []cacheKey) cacheKey { return ks[rng.Intn(len(ks))] }
		both := func(ns uint64, kvs []sharedKV) {
			c.merge(ns, kvs)
			m.merge(ns, kvs)
		}
		kvsOf := func(ks []cacheKey) []sharedKV {
			kvs := make([]sharedKV, len(ks))
			for i, k := range ks {
				kvs[i] = sharedKV{k: k, v: rng.Float64()}
			}
			return kvs
		}
		check := func(op int, what string, touched []cacheKey) {
			t.Helper()
			for i := 0; i < 256; i++ {
				q := &pools[rng.Intn(len(nss))]
				touched = append(touched, pick(q.hot), pick(q.cold), pick(q.benefit))
			}
			for _, k := range touched {
				for _, ns := range nss {
					gv, gok := c.get(ns, k)
					wv, wok := m.get(ns, k)
					if gok != wok || gv != wv {
						t.Fatalf("seed %d op %d (%s): get(%x, %+v) = %v, %v; reference %v, %v", seed, op, what, ns, k, gv, gok, wv, wok)
					}
					if k.g == benefitGroup {
						if bv, bok := c.GetBenefit(ns, k.mask); bok != wok || bv != wv {
							t.Fatalf("seed %d op %d (%s): GetBenefit = %v, %v; reference %v, %v", seed, op, what, bv, bok, wv, wok)
						}
					}
				}
			}
			if got, want := c.Len(), m.len(); got != want {
				t.Fatalf("seed %d op %d (%s): Len %d, reference %d", seed, op, what, got, want)
			}
			snap := c.Export("model")
			exported := 0
			for _, n := range snap.Namespaces {
				exported += len(n.Entries)
			}
			if exported != c.Len() {
				t.Fatalf("seed %d op %d (%s): Len %d but Export holds %d entries", seed, op, what, c.Len(), exported)
			}
			got, err := snap.Encode()
			if err != nil {
				t.Fatal(err)
			}
			want, err := m.export("model").Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d op %d (%s): Export bytes differ from the reference (%d vs %d bytes)", seed, op, what, len(got), len(want))
			}
		}

		// The scripted prefix: A is written, turned stale, and partly
		// revived while B grows the table past 8,192 slots; a fill then
		// brings the shard, stale entries included, to exactly the cap,
		// and one more key must reset it.
		a, b := pools[0].hot[:3500], pools[0].hot[3500:7000]
		script := []struct {
			what string
			run  func()
		}{
			{"merge A", func() { both(nss[0], kvsOf(a)) }},
			{"Invalidate", func() { c.Invalidate(); m.invalidate() }},
			{"merge B", func() { both(nss[0], kvsOf(b)) }},
			{"revive part of A", func() { both(nss[0], kvsOf(a[:1000])) }},
			{"fill to cap", func() { both(nss[0], kvsOf(pools[0].hot[7000:7000+sharedShardCap-len(m.shards[hot])])) }},
			{"one past cap", func() { both(nss[0], kvsOf(a[1000:1001])) }},
		}
		for op, st := range script {
			st.run()
			check(op, st.what, pools[0].hot[:7000])
		}

		for op := len(script); op < len(script)+ops; op++ {
			pi := rng.Intn(len(nss))
			ns, p := nss[pi], &pools[pi]
			var touched []cacheKey
			var what string
			switch r := rng.Intn(20); {
			case r < 10:
				what = "merge"
				ks := make([]cacheKey, 1+rng.Intn(3000))
				for i := range ks {
					ks[i] = pick(p.hot)
					if rng.Intn(8) == 0 {
						ks[i] = pick(p.cold)
					}
				}
				both(ns, kvsOf(ks))
				touched = ks
			case r < 12:
				what = "merge over cap"
				off := rng.Intn(len(p.hot) - sharedShardCap - 64)
				touched = p.hot[off : off+sharedShardCap+64]
				both(ns, kvsOf(touched))
			case r < 13:
				// Fill the hot shard to exactly the cap with keys it does
				// not hold, then probe the boundary: one more merged key
				// or PutBenefit must reset it, the fill itself must not.
				what = "fill to cap"
				held := m.shards[hot]
				for _, k := range p.hot {
					if len(held)+len(touched) >= sharedShardCap {
						break
					}
					if _, ok := held[mapModelKey{ns, k}]; !ok {
						touched = append(touched, k)
					}
				}
				both(ns, kvsOf(touched))
				switch rng.Intn(3) {
				case 0:
					k := pick(p.hot)
					both(ns, kvsOf([]cacheKey{k}))
					touched = append(touched, k)
				case 1:
					for _, k := range p.benefit {
						if c.shardIndex(ns, k) == hot {
							c.PutBenefit(ns, k.mask, 2)
							m.putBenefit(ns, k.mask, 2)
							touched = append(touched, k)
							break
						}
					}
				}
			case r < 16:
				what = "PutBenefit"
				for i := 0; i < 1+rng.Intn(64); i++ {
					k, v := pick(p.benefit), rng.Float64()
					c.PutBenefit(ns, k.mask, v)
					m.putBenefit(ns, k.mask, v)
					touched = append(touched, k)
				}
			case r < 18:
				what = "Invalidate"
				c.Invalidate()
				m.invalidate()
			default:
				what = "generation wrap"
				ageGenerations(c)
			}
			check(op, what, touched)
		}
	}
}

// TestPublishCacheSteadyStateAllocs: re-publishing same-shaped learning
// into a warm cache, and L2 lookups that hit or miss, allocate nothing;
// and a table slot stays within 40 bytes.
func TestPublishCacheSteadyStateAllocs(t *testing.T) {
	if size := unsafe.Sizeof(sharedSlot{}); size > 40 {
		t.Errorf("sharedSlot is %d bytes, want ≤ 40", size)
	}
	s := buildSearcher(t, sharedPairQueries()...)
	s.Parallelism = 2
	cache := NewSharedCache()
	s.AttachSharedCache(cache)
	sh := s.M.Shareable()
	mats := []NodeSet{{}}
	for i := range sh {
		mats = append(mats, s.NewNodeSet(sh[i]), s.NewNodeSet(sh[:i+1]...))
	}
	if _, ok := s.BestCostBatchCtx(nil, mats); !ok {
		t.Fatal("batch aborted")
	}
	s.PublishCache()
	n := cache.Len()
	if n == 0 {
		t.Fatal("publish stored nothing")
	}
	if allocs := testing.AllocsPerRun(20, s.PublishCache); allocs != 0 {
		t.Errorf("steady-state PublishCache: %v allocs/op, want 0", allocs)
	}
	if cache.Len() != n {
		t.Errorf("re-publishing the same learning changed Len %d -> %d", n, cache.Len())
	}

	ns := s.cacheNS()
	var hit cacheKey
	for i := range cache.shards {
		if e := cache.shards[i].tab; len(e) > 0 {
			for j := range e {
				if e[j].gen == cache.shards[i].gen {
					hit = e[j].key()
				}
			}
		}
	}
	if _, ok := cache.get(ns, hit); !ok {
		t.Fatal("no live key found to look up")
	}
	miss := hit
	miss.mask ^= 0x5555
	if _, ok := cache.get(ns, miss); ok {
		t.Fatal("miss key unexpectedly present")
	}
	var sink float64
	if allocs := testing.AllocsPerRun(100, func() { v, _ := cache.get(ns, hit); sink += v }); allocs != 0 {
		t.Errorf("get hit: %v allocs/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { v, _ := cache.get(ns, miss); sink += v }); allocs != 0 {
		t.Errorf("get miss: %v allocs/op, want 0", allocs)
	}
	benchSink = sink
}
