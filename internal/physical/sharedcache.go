package physical

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/memo"
)

// sharedCacheShards is the lock-striping width of a SharedCache. Keys are
// spread by a mixed hash, so 64 shards keep write contention negligible
// even with a full worker pool filling the cache concurrently.
const sharedCacheShards = 64

// sharedShardCap bounds each shard's entry count (≈512k entries across the
// cache). Cached costs are pure functions of their key, so when a shard
// fills up it is simply dropped and relearned — eviction can never change
// a result, only cost a recomputation.
const sharedShardCap = 1 << 13

// SharedCache is a sharded, lock-striped cross-call cost cache owned by a
// longer-lived holder — repro.Session — and attached to every searcher the
// holder creates. Entries are keyed by the searcher's structural namespace
// (compiled memo, cost constants and operator flags) plus the incremental
// cache key {group, order, compute, mask}, so caches attached to different
// DAGs or flag settings never observe each other's values, and a batch
// identical to an earlier one starts warm instead of relearning per
// worker.
//
// Each shard is a flat open-addressed table: a power-of-two array of
// inline 40-byte {ns, mask, v, g, ord, compute} records, linear probing
// from a home position taken from hash bits disjoint from the six that
// pick the shard, grown by doubling at 3/4 load. A slot is stamped with
// the shard generation that wrote it, so a reset is O(1) (bump the
// generation, keep the array), and a per-shard epoch and live count stand
// in for per-entry cache epochs: Len is O(shards), and a lookup is one
// hash, a read lock and a short run of adjacent slots, allocating nothing.
//
// The hot path stays lock-free: workers read the SharedCache only on a
// private-L1 miss (promoting hits so each shared key pays its read lock at
// most once per worker) and never write it mid-evaluation — freshly
// computed values are published in bulk by Searcher.PublishCache, one lock
// acquisition per shard, when the owner decides a call's learning is worth
// keeping (repro.Session publishes after every Optimize call). A publish
// stages its entries in a buffer the cache owns and reuses, so a publish
// into a warm cache allocates nothing.
//
// Cached values are pure functions of their full key; the cache therefore
// never changes any cost, only how often it is recomputed, and lookups are
// safe from any number of workers concurrently. Invalidate drops every
// entry in O(1) by bumping the cache epoch (a shard's entries stop reading
// as live, and are retired on its next write).
type SharedCache struct {
	epoch  atomic.Uint64
	shards [sharedCacheShards]sharedShard

	// pubMu guards stage, the buffer PublishCache reuses to hold one
	// worker's learning grouped by shard.
	pubMu sync.Mutex
	stage []sharedKV
}

// sharedSlot is one inline entry of a shard table. gen is the shard
// generation that wrote it: below the shard's base the slot is empty,
// equal to its gen the entry is live, and in between it holds an entry
// of an earlier cache epoch — dead to readers, but still counted against
// the cap, as a stale map entry always was.
type sharedSlot struct {
	ns      uint64
	mask    uint64
	v       float64
	g       int32 // memo.GroupID, narrowed to keep the slot at 40 bytes
	ord     ordID
	gen     uint32
	compute bool
}

func (s *sharedSlot) key() cacheKey {
	return cacheKey{g: memo.GroupID(s.g), ord: s.ord, compute: s.compute, mask: s.mask}
}

// sharedMinTable is a shard table's length on its first write.
const sharedMinTable = 64

type sharedShard struct {
	mu    sync.RWMutex
	tab   []sharedSlot // power-of-two length; nil until the first write
	shift uint8        // 64 - log2(len(tab)): sharedHome's shift
	base  uint32       // slots stamped below base are empty
	gen   uint32       // slots stamped gen are live
	epoch uint64       // cache epoch the live entries were written under
	used  int          // occupied slots, live or stale: what the cap counts
	live  int          // slots stamped gen
}

// sharedKV is one entry of a bulk merge.
type sharedKV struct {
	k cacheKey
	v float64
}

// NewSharedCache returns an empty cache ready for concurrent use.
func NewSharedCache() *SharedCache { return &SharedCache{} }

// Invalidate drops every cached entry in O(1) by bumping the epoch.
// Flag toggles do not require it (the namespace already separates flag
// settings); it exists for holders that want to bound memory or force a
// cold start.
func (c *SharedCache) Invalidate() { c.epoch.Add(1) }

// Len reports the live entry count under the current epoch from the
// per-shard counts: O(shards), one read lock each.
func (c *SharedCache) Len() int {
	ep := c.epoch.Load()
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		if sh.epoch == ep {
			n += sh.live
		}
		sh.mu.RUnlock()
	}
	return n
}

// sharedHash mixes a namespaced key into 64 bits. The low six bits pick
// the shard; sharedHome takes the probe start from the rest.
func sharedHash(ns uint64, k cacheKey) uint64 {
	h := ns ^ k.mask ^ uint64(uint32(k.g))<<29 ^ uint64(uint32(k.ord))<<13
	if k.compute {
		h ^= 0x9e3779b97f4a7c15
	}
	h *= 0xff51afd7ed558ccd // fmix64
	h ^= h >> 33
	return h
}

func (c *SharedCache) shardIndex(ns uint64, k cacheKey) uint64 {
	return sharedHash(ns, k) & (sharedCacheShards - 1)
}

// sharedHome is the probe start for a key hash: the top bits of a
// Fibonacci remix of the hash with its shard bits shifted out, so keys
// of one shard spread over its whole table.
func sharedHome(h uint64, shift uint8) int {
	return int(((h >> 6) * 0x9e3779b97f4a7c15) >> shift)
}

// probe returns the slot holding the key, or the empty slot where its
// probe run ends. The table is never fuller than 3/4, so the run ends.
func (sh *sharedShard) probe(h, ns uint64, k cacheKey) (int, bool) {
	m := len(sh.tab) - 1
	for j := sharedHome(h, sh.shift); ; j = (j + 1) & m {
		s := &sh.tab[j]
		if s.gen < sh.base {
			return j, false
		}
		if s.mask == k.mask && s.ns == ns && s.g == int32(k.g) && s.ord == k.ord && s.compute == k.compute {
			return j, true
		}
	}
}

func (c *SharedCache) get(ns uint64, k cacheKey) (float64, bool) {
	ep := c.epoch.Load()
	h := sharedHash(ns, k)
	sh := &c.shards[h&(sharedCacheShards-1)]
	v, ok := 0.0, false
	sh.mu.RLock()
	if sh.live > 0 && sh.epoch == ep {
		if j, found := sh.probe(h, ns, k); found && sh.tab[j].gen == sh.gen {
			v, ok = sh.tab[j].v, true
		}
	}
	sh.mu.RUnlock()
	return v, ok
}

// observe readies the shard for a write under cache epoch ep (the caller
// holds its lock). After an Invalidate the shard's entries turn stale —
// dead to readers but still occupying their slots, so the cap counts
// them exactly as it counted stale map entries. It reports false for a
// writer that raced an Invalidate another writer has already observed:
// its entries would be dead on arrival, so it writes none.
func (sh *sharedShard) observe(ep uint64) bool {
	if sh.tab == nil {
		sh.tab = make([]sharedSlot, sharedMinTable)
		sh.shift = uint8(64 - bits.TrailingZeros(sharedMinTable))
		sh.base, sh.gen = 1, 1
	}
	if sh.epoch == ep {
		return true
	}
	if ep < sh.epoch {
		return false
	}
	sh.epoch = ep
	sh.advance(false)
	return true
}

// advance starts a new generation: every live entry turns stale, and on
// a reset every slot reads as empty. Both are O(1) and keep the array.
func (sh *sharedShard) advance(reset bool) {
	if sh.gen == math.MaxUint32 {
		sh.renumber()
	}
	sh.gen++
	sh.live = 0
	if reset {
		sh.base = sh.gen
		sh.used = 0
	}
}

// renumber restamps the table before the generation counter wraps:
// empty slots 0, occupied ones 1, with base and gen 1. The caller
// advances right after, which turns every occupied slot stale or empty,
// so live and stale need not be told apart here.
func (sh *sharedShard) renumber() {
	for i := range sh.tab {
		s := &sh.tab[i]
		if s.gen < sh.base {
			s.gen = 0
		} else {
			s.gen = 1
		}
	}
	sh.base, sh.gen = 1, 1
}

// put stores one entry (the caller holds the lock and has observed the
// epoch). A new key claims the empty slot its probe ended on, doubling
// the table first if that would pass 3/4 load; an existing key, live or
// stale, is overwritten in place.
func (sh *sharedShard) put(h, ns uint64, k cacheKey, v float64) {
	j, found := sh.probe(h, ns, k)
	if !found {
		if 4*(sh.used+1) > 3*len(sh.tab) {
			sh.grow()
			j, _ = sh.probe(h, ns, k)
		}
		sh.used++
	}
	if sh.tab[j].gen != sh.gen {
		sh.live++
	}
	sh.tab[j] = sharedSlot{ns: ns, mask: k.mask, v: v, g: int32(k.g), ord: k.ord, gen: sh.gen, compute: k.compute}
}

// grow doubles the table, reinserting every occupied slot with its stamp.
func (sh *sharedShard) grow() {
	old := sh.tab
	sh.tab = make([]sharedSlot, 2*len(old))
	sh.shift--
	m := len(sh.tab) - 1
	for i := range old {
		s := &old[i]
		if s.gen < sh.base {
			continue
		}
		h := sharedHash(s.ns, s.key())
		j := sharedHome(h, sh.shift)
		for sh.tab[j].gen >= sh.base {
			j = (j + 1) & m
		}
		sh.tab[j] = *s
	}
}

// benefitGroup is the reserved pseudo-group benefit-oracle entries are
// stored under: real groups are non-negative, so mb(S) values — keyed by
// the submod set key in the mask field — share the shard tables (and the
// snapshot machinery) with the (group, order, mask) cost entries without
// ever colliding with them.
const benefitGroup = memo.GroupID(-1)

// GetBenefit looks up a memoized oracle value mb(S) under a namespace;
// key is the submod set key of S. Safe for concurrent use.
func (c *SharedCache) GetBenefit(ns, key uint64) (float64, bool) {
	return c.get(ns, cacheKey{g: benefitGroup, mask: key})
}

// PutBenefit publishes one memoized oracle value under a namespace. Values
// are pure functions of (namespace, key), so concurrent writers can only
// ever store the same value. Safe for concurrent use; a single direct
// shard write, cheap enough to call per fresh oracle evaluation. A shard
// at the cap is reset first.
func (c *SharedCache) PutBenefit(ns, key uint64, v float64) {
	k := cacheKey{g: benefitGroup, mask: key}
	ep := c.epoch.Load()
	h := sharedHash(ns, k)
	sh := &c.shards[h&(sharedCacheShards-1)]
	sh.mu.Lock()
	if sh.observe(ep) {
		if sh.used >= sharedShardCap {
			sh.advance(true)
		}
		sh.put(h, ns, k, v)
	}
	sh.mu.Unlock()
}

// merge bulk-publishes entries under one namespace, acquiring each shard
// lock once. A shard that cannot absorb its share of the batch under the
// cap is reset — at most once per merge, before any of the batch's
// entries are written — and relearned, so a publish's own learning
// always survives its merge, however large the batch. (Resetting inside
// the write loop, as this used to, kept only the batch's tail and wiped
// every other namespace's entries on each wrap.) Values are pure
// functions of their key, so eviction only ever costs recomputation; a
// shard briefly exceeds the cap only when one merge's own bucket is
// larger than the cap itself.
func (c *SharedCache) merge(ns uint64, kvs []sharedKV) {
	var start shardBounds
	for i := range kvs {
		start[c.shardIndex(ns, kvs[i].k)+1]++
	}
	start.prefix()
	grouped := make([]sharedKV, len(kvs))
	next := start
	for _, e := range kvs {
		s := c.shardIndex(ns, e.k)
		grouped[next[s]] = e
		next[s]++
	}
	c.mergeGrouped(ns, grouped, &start)
}

// shardBounds delimits entries grouped by shard: shard i's are
// [start[i], start[i+1]). A counting sort fills it with per-shard counts
// at index shard+1, then prefix turns the counts into bounds.
type shardBounds [sharedCacheShards + 1]int

func (b *shardBounds) prefix() {
	for i := 1; i <= sharedCacheShards; i++ {
		b[i] += b[i-1]
	}
}

// mergeGrouped writes entries grouped by shard, taking each shard's lock
// once: the body of merge.
func (c *SharedCache) mergeGrouped(ns uint64, grouped []sharedKV, start *shardBounds) {
	ep := c.epoch.Load()
	for i := range c.shards {
		b := grouped[start[i]:start[i+1]]
		if len(b) == 0 {
			continue
		}
		sh := &c.shards[i]
		sh.mu.Lock()
		if sh.observe(ep) {
			if sh.used+len(b) > sharedShardCap {
				sh.advance(true)
			}
			for j := range b {
				sh.put(sharedHash(ns, b[j].k), ns, b[j].k, b[j].v)
			}
		}
		sh.mu.Unlock()
	}
}

// fnv64 accumulates an FNV-1a hash over mixed-width values.
type fnv64 uint64

func newFNV64() fnv64 { return 14695981039346656037 }

func (h *fnv64) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= (v >> uint(8*i)) & 0xff
		x *= 1099511628211
	}
	*h = fnv64(x)
}

func (h *fnv64) i(v int)     { h.u64(uint64(int64(v))) }
func (h *fnv64) f(v float64) { h.u64(math.Float64bits(v)) }

func (h *fnv64) b(v bool) {
	if v {
		h.u64(1)
	} else {
		h.u64(0)
	}
}

func (h *fnv64) str(s string) {
	h.i(len(s))
	for i := 0; i < len(s); i++ {
		h.u64(uint64(s[i]))
	}
}

// structHash fingerprints the compiled search space: groups, query roots,
// shareable slots, per-group cost constants and every candidate template
// with its precomputed costs. Two searchers with equal hashes price every
// (group, order, mask) key identically, so the hash — combined with the
// operator flags (cacheNS) — namespaces entries in a SharedCache. The
// 64-bit fingerprint makes a cross-DAG collision astronomically unlikely
// rather than impossible; a collision could only surface when one
// SharedCache is attached to searchers over different batches.
func (s *Searcher) structHash() uint64 {
	h := newFNV64()
	h.i(s.M.NumGroups())
	h.i(s.numOrds)
	h.i(len(s.M.QueryRoots))
	for _, r := range s.M.QueryRoots {
		h.i(int(r))
	}
	h.i(s.SI.Len())
	for g := 0; g < s.M.NumGroups(); g++ {
		h.i(int(s.slot[g]))
		h.f(s.blocksArr[g])
		h.f(s.sortArr[g])
		h.f(s.readArr[g])
		h.f(s.writeArr[g])
		h.i(len(s.tmpls[g]))
		for i := range s.tmpls[g] {
			t := &s.tmpls[g][i]
			h.str(t.op)
			h.f(t.local)
			h.f(t.localSpill)
			h.i(int(t.matGate))
			h.i(int(t.out))
			h.i(int(t.nchild))
			for ci := uint8(0); ci < t.nchild; ci++ {
				h.i(int(t.child[ci].g))
				h.i(int(t.child[ci].ord))
			}
			h.b(t.passthrough)
			h.b(t.extended)
		}
	}
	return uint64(h)
}

// cacheNS is the SharedCache namespace of the searcher's current flag
// settings: the structural fingerprint mixed with the cost-relevant
// operator flags, so toggling a flag moves to a disjoint namespace
// instead of requiring an invalidation.
func (s *Searcher) cacheNS() uint64 {
	ns := s.structSum
	if s.ExtendedOps {
		ns ^= 0xa076_1d64_78bd_642f
	}
	if s.MatOrders {
		ns ^= 0xe703_7ed1_a0b4_28db
	}
	return ns
}

// Fingerprint identifies the compiled search space plus the cost-relevant
// operator flags: the same 64-bit namespace SharedCache entries live
// under. Checkpoint tokens embed it so a resume against a different
// catalog, batch, or flag setting is rejected instead of silently
// producing garbage.
func (s *Searcher) Fingerprint() uint64 { return s.cacheNS() }

// AttachSharedCache attaches a cross-call L2 cache: every worker keeps its
// private (lock-free) L1 map, missing into c and promoting hits, and
// PublishCache merges the workers' learning back. Attaching a longer-lived
// cache (repro.Session owns one) lets identical batches start warm. A nil
// c detaches, leaving workers with private caches only — the default for
// a fresh searcher. Attach only between evaluations, never during a
// concurrent batch.
func (s *Searcher) AttachSharedCache(c *SharedCache) { s.shared = c }

// Shared returns the attached cross-call L2 cache (nil unless attached).
func (s *Searcher) Shared() *SharedCache { return s.shared }

// PublishCache bulk-merges every worker's private cross-call cache into
// the attached SharedCache under the current flag namespace, one lock
// acquisition per shard per worker — the write half of the L1/L2
// protocol, kept off the evaluation hot path. A worker's entries are
// grouped by shard in a buffer the SharedCache owns and reuses, so a
// publish into a warm cache allocates nothing; concurrent publishers to
// one cache take turns. It is a no-op without an attached cache (or with
// the incremental cache disabled) and must only be called between
// evaluations, like every other cache operation.
func (s *Searcher) PublishCache() {
	c := s.shared
	if c == nil || !s.Incremental {
		return
	}
	ns := s.cacheNS()
	c.pubMu.Lock()
	defer c.pubMu.Unlock()
	for _, w := range s.workers {
		var start shardBounds
		w.walkL1(ns, &start, nil)
		start.prefix()
		n := start[sharedCacheShards]
		if n == 0 {
			continue
		}
		if cap(c.stage) < n {
			c.stage = make([]sharedKV, n)
		}
		next := start
		w.walkL1(ns, &next, c.stage[:n])
		c.mergeGrouped(ns, c.stage[:n], &start)
	}
}

// walkL1 visits the worker's live L1 entries, always in the same order,
// as the two passes of a counting sort by shard: with dst nil it counts
// each entry at pos[shard+1]; otherwise it copies the entry to
// dst[pos[shard]] and advances pos[shard].
func (w *worker) walkL1(ns uint64, pos *shardBounds, dst []sharedKV) {
	numOrds := w.s.numOrds
	for fam, buckets := range [2][]*l1Bucket{w.useL1, w.compL1} {
		compute := fam == 1
		for idx, b := range buckets {
			if b == nil || b.ep != w.l1Epoch || b.occ == 0 {
				continue
			}
			g, ord := memo.GroupID(idx/numOrds), ordID(idx%numOrds)
			for occ := b.occ; occ != 0; occ &= occ - 1 {
				e := &b.entries[bits.TrailingZeros64(occ)]
				k := cacheKey{g: g, ord: ord, compute: compute, mask: e.mask}
				s := sharedHash(ns, k) & (sharedCacheShards - 1)
				if dst == nil {
					pos[s+1]++
					continue
				}
				dst[pos[s]] = sharedKV{k: k, v: e.val}
				pos[s]++
			}
		}
	}
}
