// Package physical implements the physical plan search over the logical
// AND-OR DAG (the PQDAG of the Volcano framework): physical properties
// (sort orders), operator implementations (relation scan, indexed
// selection, nested-loop join, merge join, sort enforcer, sort-based
// aggregation — the paper's operator set), and the central
// bestCost(Q, S) oracle that the MQO algorithms treat as a black box.
//
// bestCost(Q, S) is the cost of the optimal consolidated plan in which
// every equivalence node of S is computed once, written to disk, and read
// back by any consumer for which that is cheaper than recomputation:
//
//	bc(S) = Σ_{s∈S} (computeCost(s) + matWriteCost(s)) + Σ_q useCost(root_q)
//	useCost(g) = min(computeCost(g), matReadCost(g) [+ sort enforcement])  if g ∈ S
//
// The search memoizes on (group, required order) per call and keeps a
// cross-call cache keyed by the materialization set restricted to the
// shareable nodes below each group — the incremental recomputation
// optimization of Section 5.1: adding one node to S invalidates only the
// costs of its ancestors.
//
// # Hot-path representation
//
// The oracle is allocation-free. At construction the Searcher compiles the
// memo into immutable lookup structures:
//
//   - an order registry interning every sort order that can ever be
//     required or delivered (clustered-scan orders, index orders, merge-join
//     orders, group-by orders) into small integer ids, with a precomputed
//     "satisfies" matrix, so order handling is integer indexing instead of
//     string keys;
//   - per-group candidate templates: each physical implementation choice is
//     flattened into {precomputed local cost, child group ids, child order
//     ids, delivered order id}, enumerated in exactly the order the
//     candidate generator defines (ties in the strict-< minimum therefore
//     resolve identically to a naive enumeration);
//   - per-group cost-model constants (blocks, sort/read/write costs), DAG
//     depths and shareable-descendant bitsets.
//
// Materialization sets are Bitsets indexed by shareable-node slot (see
// memo.ShareIndex); NodeSet wraps one with the index needed to translate
// group ids. Per-call memo tables are flat epoch-stamped arrays indexed by
// (group, order id) that are reset in O(1) by bumping the epoch.
//
// # Cross-call caching
//
// The Section 5.1 incremental cache is keyed by the pure value
// {group, order id, compute, mask hash}. Every cached cost is a pure
// function of that key, which is the load-bearing invariant of the whole
// hierarchy: a hit, a miss, an eviction or a lost publish can only ever
// change how often a value is recomputed, never what it is — so results
// are bit-identical under any cache behavior, and the oracle-call count
// (bc_calls) is deterministic because it is counted at the oracle entry
// point, above every cache level.
//
// The hierarchy a lookup walks, fastest first:
//
//  1. Front cache: one direct-mapped l1Front cell per (group, order)
//     slot holding the last (mask, cost) the slot served — consecutive
//     greedy candidates mostly re-ask the same mask. Liveness is an
//     explicit epoch stamp (live iff ep == the worker's l1Epoch); no
//     mask value is reserved as an "empty" sentinel, so a real all-ones
//     mask hash round-trips (the retired sentinel scheme mis-served the
//     zero value for it on a cold slot).
//  2. Flat L1: per-slot open-addressed probe arrays (l1Bucket, lazily
//     allocated) of inline (mask, value) pairs — fixed power-of-two
//     capacity, linear probing from a Fibonacci home position, a 1-byte
//     tag per position so a probe compares bytes in one cache line and
//     touches a 16-byte entry only on a tag match. Occupancy is an
//     explicit bitmap word; the probe length is derived from it up
//     front. At the fill bound (3/4 load) a store evicts the occupant
//     of its home position instead of growing — bounded memory, and the
//     probing invariant survives because the new key rests at its exact
//     home. resetL1 clears every bucket and front cell in O(1) by
//     bumping the worker's l1Epoch; backing arrays are reused, and a
//     stale bucket self-clears on its next store.
//  3. SharedCache L2: the optionally attached, lock-striped cross-worker
//     tier. The hot path never locks it on store — fresh values go only
//     to the L1 and PublishCache drains them into the L2 in bulk; an L2
//     hit (including a key the L1 evicted after an earlier publish) is
//     promoted back into the L1 and front, paying its read lock at most
//     once per worker. Shard capacity is enforced per merge: a shard
//     over cap is reset at most once, before the batch's writes, so one
//     publish can never evict its own entries (the old per-entry reset
//     kept only the tail of a batch at or over cap).
//
// repro.Session owns one SharedCache per session, so identical batches
// start warm; entries are namespaced by the searcher's structural
// fingerprint and operator flags, which is why ClearCache only resets the
// private L1s — a flag toggle moves to a disjoint namespace on its own.
//
// # Concurrency contract
//
// After construction all compiled structures are immutable. Mutable
// per-evaluation state (scratch tables, the private L1 cache, stat
// counters) lives in per-worker contexts: sequential entry points
// (BestCost, BestUseCost, BestPlan, ValidatePlan) share worker 0 and are
// not safe for concurrent use, while BestCostBatchCtx evaluates many
// materialization sets concurrently on up to Parallelism workers. Costs
// are pure functions of (memo, set), so batch results are bit-identical
// to sequential evaluation regardless of scheduling — and SharedCache
// reads/merges never change a value, only how often it is recomputed. The
// flags may only be toggled between evaluations, never during a
// concurrent batch, and a toggle requires a ClearCache call (the
// volcano.Optimizer setters do this).
package physical

import (
	"context"
	"math/bits"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/memo"
)

// Order is a required or delivered sort order: a sequence of columns.
// nil/empty means "any order".
type Order []expr.Col

// Key renders the order canonically for map keys.
func (o Order) Key() string {
	if len(o) == 0 {
		return ""
	}
	parts := make([]string, len(o))
	for i, c := range o {
		parts[i] = c.String()
	}
	return strings.Join(parts, ",")
}

// Satisfies reports whether a stream sorted by o satisfies requirement
// req, i.e. req is a prefix of o.
func (o Order) Satisfies(req Order) bool {
	if len(req) > len(o) {
		return false
	}
	for i := range req {
		if o[i] != req[i] {
			return false
		}
	}
	return true
}

// Empty reports whether the order imposes no requirement.
func (o Order) Empty() bool { return len(o) == 0 }

// ordID is an interned order: an index into the searcher's order registry.
// ordID 0 is the empty ("any") order.
type ordID int32

// NodeSet is a materialization set: a bitset over the shareable-node slots
// of the searcher's ShareIndex. The zero value is the empty set; non-empty
// sets are created with Searcher.NewNodeSet / Optimizer.NewNodeSet.
type NodeSet struct {
	si   *memo.ShareIndex
	bits memo.Bitset
}

// NewNodeSet returns a materialization set over this searcher's shareable
// nodes containing the given groups.
func (s *Searcher) NewNodeSet(ids ...memo.GroupID) NodeSet {
	ns := NodeSet{si: s.SI, bits: s.SI.NewMatSet()}
	for _, id := range ids {
		ns.Add(id)
	}
	return ns
}

// Add inserts a shareable group into the set; it panics if the group is
// not shareable (non-shareable nodes are never worth materializing and
// have no bitset slot). The zero-value NodeSet carries no share index and
// cannot grow — build growable sets with NewNodeSet.
func (ns NodeSet) Add(id memo.GroupID) {
	if ns.si == nil {
		panic("physical: Add on a zero-value NodeSet; create sets with NewNodeSet")
	}
	if !ns.si.Set(ns.bits, id) {
		panic("physical: NodeSet.Add of non-shareable group")
	}
}

// With returns a copy of the set with the extra node added.
func (ns NodeSet) With(id memo.GroupID) NodeSet {
	out := NodeSet{si: ns.si, bits: ns.bits.Clone()}
	out.Add(id)
	return out
}

// Clone returns a copy of the set.
func (ns NodeSet) Clone() NodeSet {
	return NodeSet{si: ns.si, bits: ns.bits.Clone()}
}

// Has reports membership.
func (ns NodeSet) Has(id memo.GroupID) bool {
	if ns.si == nil {
		return false
	}
	return ns.si.Has(ns.bits, id)
}

// Len returns the set size.
func (ns NodeSet) Len() int { return ns.bits.Count() }

// Empty reports whether the set is empty.
func (ns NodeSet) Empty() bool { return ns.bits.Count() == 0 }

// Groups returns the member group ids in ascending order.
func (ns NodeSet) Groups() []memo.GroupID {
	if ns.si == nil {
		return nil
	}
	return ns.si.Groups(ns.bits)
}

// Bits exposes the underlying bitset (shared storage, do not mutate).
func (ns NodeSet) Bits() memo.Bitset { return ns.bits }

// Searcher owns the compiled search structures and cross-call caches for
// one combined DAG. See the package comment for the concurrency contract.
type Searcher struct {
	M  *memo.Memo
	SI *memo.ShareIndex

	// Incremental reports whether the cross-call cache is enabled
	// (Section 5.1 optimization). Disabled only for ablation benchmarks.
	Incremental bool

	// ExtendedOps adds hash join and hash aggregation to the paper's
	// operator set (relation scan, indexed selection, NLJ, merge join,
	// sort, sort-based aggregation). Off by default: the experiments use
	// the paper's rule set; the extended-operator ablation turns it on.
	// Toggling it invalidates previously cached costs — call ClearCache
	// (volcano.Optimizer.SetExtendedOps does).
	ExtendedOps bool

	// MatOrders stores each materialized result in the sort order its
	// cheapest compute plan delivers, so consumers whose requirement that
	// order satisfies skip the re-sort — the physical-property handling on
	// intermediate relations the paper's Section 6 implementation
	// includes. On by default; disabling it models order-less spools.
	// Like ExtendedOps, toggling it requires a ClearCache call.
	MatOrders bool

	// Parallelism bounds the number of workers BestCostBatchCtx fans a batch
	// of candidate sets out to; 0 (the default) means GOMAXPROCS and 1
	// forces sequential evaluation on worker 0. Each worker carries its
	// own scratch tables and cross-call cache, and every individual bc(S)
	// evaluation stays sequential, so results are bit-identical for every
	// setting — the knob trades memory (one scratch context per worker)
	// and warm-up (per-worker caches learn separately) against wall-clock
	// time on the batched greedy rounds. Set it before optimization
	// starts; it must not change during a concurrent batch.
	Parallelism int

	// Compiled structures, immutable after NewSearcher.
	orders    []Order  // order registry; orders[0] = nil
	sat       [][]bool // sat[have][want] = orders[have].Satisfies(orders[want])
	tmpls     [][]tmpl // candidate templates per group
	slot      []int32  // shareable slot per group, -1 if none
	depths    []int32  // DAG height per group
	desc      []memo.Bitset
	blocksArr []float64 // output blocks per group
	sortArr   []float64 // SortCost per group
	readArr   []float64 // MaterializeReadCost per group
	writeArr  []float64 // MaterializeWriteCost per group
	numOrds   int
	// rootMask[slot] is the bitset of query roots whose cone contains the
	// shareable node at slot; words are ceil(len(QueryRoots)/64).
	rootMask  [][]uint64
	rootWords int
	structSum uint64 // structural fingerprint of the compiled search space

	workers []*worker
	ordIdx  map[string]ordID // construction only
	shared  *SharedCache     // cross-worker / cross-searcher L2 cache

	// fault is the first panic a batch worker recovered, kept until the
	// owning run collects it with TakeFault. Batches run one at a time per
	// searcher (the oracle is sequential between rounds), so a plain field
	// read after the batch's WaitGroup is race-free.
	fault *faultinject.PanicError

	// Stats.
	BCCalls      int // bestCost invocations
	CacheHits    int // worker-private (L1) cross-call cache hits
	SharedHits   int // SharedCache (L2) hits promoted into a worker L1
	ComputedKey  int // fresh (group, order, mask) computations
	ExtractCalls int // plan-extraction node resolutions (BestPlan)
}

// NewSearcher returns a searcher over the given memo with the incremental
// cache and materialized-order handling enabled, and no SharedCache
// attached: workers keep purely private caches (zero synchronization on
// the hot path). A longer-lived owner attaches its cache with
// AttachSharedCache (repro.Session does).
func NewSearcher(m *memo.Memo) *Searcher {
	s := &Searcher{
		M:           m,
		SI:          m.NewShareIndex(),
		Incremental: true,
		MatOrders:   true,
	}
	s.prepare()
	return s
}

// ResetStats clears the counters (not the cache).
func (s *Searcher) ResetStats() {
	s.BCCalls, s.CacheHits, s.SharedHits, s.ComputedKey, s.ExtractCalls = 0, 0, 0, 0, 0
}

// ClearCache drops the worker-private cross-call caches. An attached
// SharedCache is left alone: its entries are namespaced by the structural
// fingerprint and the operator flags (cacheNS), so a flag toggle moves to
// a disjoint namespace and stale values can never be observed. Call
// SharedCache.Invalidate for an explicit full flush.
func (s *Searcher) ClearCache() {
	for _, w := range s.workers {
		w.resetL1()
	}
}

type cacheKey struct {
	g       memo.GroupID
	ord     ordID
	compute bool
	mask    uint64
}

// prepare compiles the memo into the immutable hot-path structures.
func (s *Searcher) prepare() {
	n := s.M.NumGroups()
	s.slot = make([]int32, n)
	s.depths = make([]int32, n)
	s.desc = make([]memo.Bitset, n)
	s.blocksArr = make([]float64, n)
	s.sortArr = make([]float64, n)
	s.readArr = make([]float64, n)
	s.writeArr = make([]float64, n)
	s.ordIdx = map[string]ordID{"": 0}
	s.orders = []Order{nil}
	for i := 0; i < n; i++ {
		id := memo.GroupID(i)
		s.slot[i] = int32(s.SI.Pos(id))
		s.depths[i] = -1
		s.desc[i] = s.SI.Descendants(id)
		p := s.M.Group(id).Props
		b := s.M.Model.Blocks(p.Rows, p.Width)
		s.blocksArr[i] = b
		s.sortArr[i] = s.M.Model.SortCost(b)
		s.readArr[i] = s.M.Model.MaterializeReadCost(b)
		s.writeArr[i] = s.M.Model.MaterializeWriteCost(b)
	}
	for i := 0; i < n; i++ {
		s.fillDepth(memo.GroupID(i))
	}
	s.tmpls = make([][]tmpl, n)
	for i := 0; i < n; i++ {
		s.tmpls[i] = s.buildTemplates(memo.GroupID(i))
	}
	s.numOrds = len(s.orders)
	s.sat = make([][]bool, s.numOrds)
	for i := range s.sat {
		row := make([]bool, s.numOrds)
		for j := range row {
			row[j] = s.orders[i].Satisfies(s.orders[j])
		}
		s.sat[i] = row
	}
	s.fillRootMasks()
	s.structSum = s.structHash()
	s.ordIdx = nil // registry is sealed
	s.workers = []*worker{s.newWorker()}
}

// fillRootMasks computes, for every shareable slot, the bitset of query
// roots whose cone contains it — the structural reach the dirty-candidate
// pruning tests against (SharesQueryRoot).
func (s *Searcher) fillRootMasks() {
	s.rootWords = (len(s.M.QueryRoots) + 63) / 64
	s.rootMask = make([][]uint64, s.SI.Len())
	words := make([]uint64, s.SI.Len()*s.rootWords) // one backing array
	for i := range s.rootMask {
		s.rootMask[i] = words[i*s.rootWords : (i+1)*s.rootWords]
	}
	for ri, r := range s.M.QueryRoots {
		for wi, wv := range s.desc[r] {
			for wv != 0 {
				slot := wi*64 + bits.TrailingZeros64(wv)
				wv &= wv - 1
				s.rootMask[slot][ri>>6] |= 1 << uint(ri&63)
			}
		}
	}
}

// SharesQueryRoot reports whether some query root's cone contains both
// groups. When it does not, no consumer's cost path can ever see both
// nodes, so materializing one provably cannot change the other's marginal
// benefit — the exactness test behind the dirty-candidate lazy greedy
// (submod.InteractionFunction). Non-shareable groups conservatively report
// true. Safe for concurrent use after construction.
func (s *Searcher) SharesQueryRoot(a, b memo.GroupID) bool {
	sa, sb := s.slot[a], s.slot[b]
	if sa < 0 || sb < 0 {
		return true
	}
	ma, mb := s.rootMask[sa], s.rootMask[sb]
	for i := range ma {
		if ma[i]&mb[i] != 0 {
			return true
		}
	}
	return false
}

// intern registers an order and returns its id; construction-time only.
func (s *Searcher) intern(o Order) ordID {
	k := o.Key()
	if id, ok := s.ordIdx[k]; ok {
		return id
	}
	id := ordID(len(s.orders))
	s.orders = append(s.orders, o)
	s.ordIdx[k] = id
	return id
}

func (s *Searcher) fillDepth(g memo.GroupID) int32 {
	if s.depths[g] >= 0 {
		return s.depths[g]
	}
	s.depths[g] = 0
	var d int32
	for _, e := range s.M.Group(g).Exprs {
		for _, ch := range e.Children {
			if cd := s.fillDepth(ch) + 1; cd > d {
				d = cd
			}
		}
	}
	s.depths[g] = d
	return d
}

// depth returns the height of a group in the DAG (leaves are 0), used to
// order materialization steps so dependencies are computed first.
func (s *Searcher) depth(g memo.GroupID) int { return int(s.depths[g]) }

// l1BucketBits sizes the per-(group,order) flat L1 buckets: each bucket
// is a fixed-capacity power-of-two probe array of 1<<l1BucketBits
// (mask, value) pairs stored inline, so its occupancy fits one uint64
// bitmap word.
const l1BucketBits = 6

// l1BucketCap is the bucket capacity (entries per probe array).
const l1BucketCap = 1 << l1BucketBits

// l1MaxFill bounds the distinct masks a bucket holds (3/4 load): linear
// probes therefore always terminate at an empty position, and lookup
// chains stay short even in the hottest buckets. A store into a bucket
// at the fill bound evicts deterministically instead of claiming a new
// position; the evicted key falls back to the SharedCache L2 (or a
// recomputation) — see l1Bucket.store.
const l1MaxFill = l1BucketCap * 3 / 4

// epVal is one per-call scratch memo cell: a cost stamped with the call
// epoch that wrote it, adjacent in memory so a memo hit touches one
// cache line.
type epVal struct {
	ep  uint32
	val float64
}

// l1Front is one direct-mapped front-cache cell: the last (mask hash,
// cost) pair its slot served, live iff ep matches the worker's L1 epoch.
// One struct load replaces the three parallel-array touches the front
// check used to cost.
type l1Front struct {
	mask uint64
	val  float64
	ep   uint32
}

// l1Entry is one inline (mask hash, cost) pair of a flat L1 bucket.
type l1Entry struct {
	mask uint64
	val  float64
}

// l1Bucket is the flat open-addressed cross-call cache of one (group,
// order) slot. Occupancy is explicit — bit j of occ marks entries[j]
// live — so every 64-bit mask hash, including ^uint64(0), round-trips
// exactly (the previous map layout's companion front cache used an
// all-ones sentinel for "empty", which silently mis-cached a real
// all-ones mask hash). ep stamps the occupancy with the worker's L1
// epoch: resetL1 bumps the epoch in O(1) and a stale bucket lazily
// self-clears on its next store, reusing its backing array.
type l1Bucket struct {
	ep      uint32
	occ     uint64
	tags    [l1BucketCap]uint8
	entries [l1BucketCap]l1Entry
}

// l1Home is the probe start position for a mask hash: the top bucket
// bits of a Fibonacci remix (the mask is itself a hash, but its top
// bits must be independent of the SharedCache's shard choice).
func l1Home(mask uint64) int {
	return int((mask * 0x9e3779b97f4a7c15) >> (64 - l1BucketBits))
}

// l1Tag is the 1-byte probe filter for a mask hash: the next 8 bits of
// the same remix below the home bits. During a probe the tag bytes —
// all of them in one cache line — are compared first, so the 16-byte
// entries are only loaded on a tag match (false positive rate 2^-8 per
// occupied position). Tags carry no occupancy information: occ alone
// decides liveness, so a stale tag after an epoch clear is never read.
func l1Tag(mask uint64) uint8 {
	return uint8((mask * 0x9e3779b97f4a7c15) >> (56 - l1BucketBits))
}

// lookup probes for a mask with linear probing from its home position,
// stopping at the first empty position. The probe-run length is taken
// from the occupancy word up front (rotate the free bitmap so the home
// lands on bit 0; the first set bit is the first empty position), so
// the loop itself tests only tag bytes. The caller has checked that the
// bucket's epoch is current.
func (b *l1Bucket) lookup(mask uint64) (float64, bool) {
	h := l1Home(mask)
	d := bits.TrailingZeros64(bits.RotateLeft64(^b.occ, -h))
	tag := l1Tag(mask)
	for i := 0; i < d; i++ {
		j := (h + i) & (l1BucketCap - 1)
		if b.tags[j] == tag && b.entries[j].mask == mask {
			return b.entries[j].val, true
		}
	}
	return 0, false
}

// store inserts or overwrites a (mask, value) pair. A bucket whose epoch
// is stale self-clears first (O(1): drop the occupancy bitmap). At the
// fill bound the probe array is "full": the pair deterministically
// replaces the entry at its home position — the linear-probing invariant
// survives because the new key rests exactly at its own home, and the
// evicted key simply misses from then on, falling back to the
// SharedCache L2 (if it was published) or to recomputation. Values are
// pure functions of their key, so eviction can never change a cost.
func (b *l1Bucket) store(epoch uint32, mask uint64, v float64) {
	if b.ep != epoch {
		b.ep = epoch
		b.occ = 0
	}
	h := l1Home(mask)
	tag := l1Tag(mask)
	full := bits.OnesCount64(b.occ) >= l1MaxFill
	for i := 0; i < l1BucketCap; i++ {
		j := (h + i) & (l1BucketCap - 1)
		if b.occ&(1<<uint(j)) == 0 {
			if full {
				break
			}
			b.occ |= 1 << uint(j)
			b.tags[j] = tag
			b.entries[j] = l1Entry{mask: mask, val: v}
			return
		}
		if b.tags[j] == tag && b.entries[j].mask == mask {
			b.entries[j].val = v
			return
		}
	}
	// Eviction at the home position. The occupancy bit is set explicitly:
	// past the fill bound the home may itself be empty (evictions land
	// only on home positions), and a claimed-but-unmarked entry would be
	// a lost store.
	b.occ |= 1 << uint(h)
	b.tags[h] = tag
	b.entries[h] = l1Entry{mask: mask, val: v}
}

// worker is one evaluation context: per-call scratch tables plus a private
// cross-call cache. Sequential entry points use worker 0; BestCostBatchCtx
// uses one worker per goroutine.
type worker struct {
	s *Searcher

	// Private L1 cross-call cache. Entries are bucketed by the (group,
	// order) slot — the same int(g)*numOrds+ord index the scratch tables
	// use — and keyed inside the bucket by the 8-byte mask hash alone.
	// Each bucket is a flat open-addressed probe array (l1Bucket), lazily
	// allocated on first store and cleared in place by epoch stamping, so
	// a probe is a few adjacent inline loads instead of a runtime map
	// access. A 1-entry direct-mapped front cache per slot (mask1/val1,
	// live iff its epoch stamp ep1 is current) exploits the scan locality
	// of greedy rounds: consecutive candidate sets leave most groups'
	// mask restrictions untouched, so the common case is two loads and a
	// compare before any probe. Misses fall through to s.shared. (A
	// single flat map[cacheKey]float64 was profiled at ~70% of
	// optimization wall time on the 256-query workloads, and the
	// per-slot map[uint64]float64 buckets that replaced it still at ~25%
	// — mapaccess2_fast64 hashing and probing — which this layout
	// eliminates.)
	l1Epoch   uint32    // current L1 generation; entries with other stamps are dead
	useFront  []l1Front // front cache: last-seen (mask, cost) per slot
	compFront []l1Front
	useL1     []*l1Bucket // per-slot flat probe arrays (lazily allocated)
	compL1    []*l1Bucket

	ns          uint64 // SharedCache namespace for the current call's flags
	sharedEpoch uint64 // SharedCache epoch the L1 was filled under

	epoch     uint32
	bits      memo.Bitset // current materialization set
	useMemo   []epVal     // (group, ord) -> use cost, epoch-stamped
	compMemo  []epVal     // (group, ord) -> compute cost, epoch-stamped
	storedOrd []ordID     // delivered order of each materialization
	storedEp  []uint32
	mhVal     []uint64 // mask-hash per group
	mhEp      []uint32
	matIDs    []memo.GroupID // scratch for stored-order initialization

	bcCalls, cacheHits, sharedHits, computedKey, extractCalls int
}

func (s *Searcher) newWorker() *worker {
	n := s.M.NumGroups()
	slots := n * s.numOrds
	w := &worker{
		s:         s,
		l1Epoch:   1,
		useFront:  make([]l1Front, slots),
		compFront: make([]l1Front, slots),
		useL1:     make([]*l1Bucket, slots),
		compL1:    make([]*l1Bucket, slots),
		bits:      s.SI.NewMatSet(),
		useMemo:   make([]epVal, slots),
		compMemo:  make([]epVal, slots),
		storedOrd: make([]ordID, n),
		storedEp:  make([]uint32, n),
		mhVal:     make([]uint64, n),
		mhEp:      make([]uint32, n),
		matIDs:    make([]memo.GroupID, 0, 64),
	}
	return w
}

// resetL1 drops the worker's private cross-call cache in O(1) by bumping
// the L1 epoch: front-cache slots and buckets stamped with an older
// generation read as empty, and every backing array is reused in place —
// no reallocation, however often a SharedCache epoch bump or an explicit
// ClearCache lands.
func (w *worker) resetL1() {
	w.l1Epoch++
	if w.l1Epoch == 0 { // wrapped: stamps are ambiguous, hard-reset
		for i := range w.useFront {
			w.useFront[i].ep = 0
			w.compFront[i].ep = 0
		}
		for _, b := range w.useL1 {
			if b != nil {
				b.ep = 0
				b.occ = 0
			}
		}
		for _, b := range w.compL1 {
			if b != nil {
				b.ep = 0
				b.occ = 0
			}
		}
		w.l1Epoch = 1
	}
}

// syncShared refreshes the worker's view of the attached SharedCache: the
// flag namespace, and — after an Invalidate — the private L1, which may
// hold entries the invalidation was meant to flush.
func (w *worker) syncShared() {
	s := w.s
	if s.shared == nil {
		return
	}
	w.ns = s.cacheNS()
	if ep := s.shared.epoch.Load(); ep != w.sharedEpoch {
		w.sharedEpoch = ep
		w.resetL1()
	}
}

// cachedUse consults the cache levels for a use-cost key: front cache,
// bucket map, then the SharedCache (whose hits are promoted so each
// shared key pays its read lock at most once per worker). Fresh values go
// only to the L1 — PublishCache merges them into the SharedCache in bulk,
// keeping the hot path free of per-key locking.
func (w *worker) cachedUse(g memo.GroupID, ord ordID, idx int, mask uint64) (float64, bool) {
	f := &w.useFront[idx]
	if f.ep == w.l1Epoch && f.mask == mask {
		w.cacheHits++
		return f.val, true
	}
	if b := w.useL1[idx]; b != nil && b.ep == w.l1Epoch {
		if v, ok := b.lookup(mask); ok {
			w.cacheHits++
			*f = l1Front{mask: mask, val: v, ep: w.l1Epoch}
			return v, true
		}
	}
	if sh := w.s.shared; sh != nil {
		if v, ok := sh.get(w.ns, cacheKey{g: g, ord: ord, compute: false, mask: mask}); ok {
			w.sharedHits++
			w.storeUse(idx, mask, v)
			return v, true
		}
	}
	return 0, false
}

func (w *worker) storeUse(idx int, mask uint64, v float64) {
	w.useFront[idx] = l1Front{mask: mask, val: v, ep: w.l1Epoch}
	b := w.useL1[idx]
	if b == nil {
		b = new(l1Bucket)
		b.ep = w.l1Epoch
		w.useL1[idx] = b
	}
	b.store(w.l1Epoch, mask, v)
}

// cachedComp is cachedUse for compute-cost keys.
func (w *worker) cachedComp(g memo.GroupID, ord ordID, idx int, mask uint64) (float64, bool) {
	f := &w.compFront[idx]
	if f.ep == w.l1Epoch && f.mask == mask {
		w.cacheHits++
		return f.val, true
	}
	if b := w.compL1[idx]; b != nil && b.ep == w.l1Epoch {
		if v, ok := b.lookup(mask); ok {
			w.cacheHits++
			*f = l1Front{mask: mask, val: v, ep: w.l1Epoch}
			return v, true
		}
	}
	if sh := w.s.shared; sh != nil {
		if v, ok := sh.get(w.ns, cacheKey{g: g, ord: ord, compute: true, mask: mask}); ok {
			w.sharedHits++
			w.storeComp(idx, mask, v)
			return v, true
		}
	}
	return 0, false
}

func (w *worker) storeComp(idx int, mask uint64, v float64) {
	w.compFront[idx] = l1Front{mask: mask, val: v, ep: w.l1Epoch}
	b := w.compL1[idx]
	if b == nil {
		b = new(l1Bucket)
		b.ep = w.l1Epoch
		w.compL1[idx] = b
	}
	b.store(w.l1Epoch, mask, v)
}

// worker returns the i-th worker, growing the pool on demand.
func (s *Searcher) worker(i int) *worker {
	for len(s.workers) <= i {
		s.workers = append(s.workers, s.newWorker())
	}
	return s.workers[i]
}

// flushStats folds worker-local counters into the searcher totals; called
// only from single-goroutine contexts.
func (w *worker) flushStats() {
	w.s.BCCalls += w.bcCalls
	w.s.CacheHits += w.cacheHits
	w.s.SharedHits += w.sharedHits
	w.s.ComputedKey += w.computedKey
	w.s.ExtractCalls += w.extractCalls
	w.bcCalls, w.cacheHits, w.sharedHits, w.computedKey, w.extractCalls = 0, 0, 0, 0, 0
}

// initCall resets the per-call scratch state for a new materialization set
// and, with MatOrders on, fixes each materialization's stored order in
// dependency (depth) order, so a node's compute plan can already exploit
// the materializations below it.
func (w *worker) initCall(mat memo.Bitset) {
	w.syncShared()
	w.epoch++
	if w.epoch == 0 { // wrapped: stamps are ambiguous, hard-reset
		for i := range w.useMemo {
			w.useMemo[i].ep = 0
			w.compMemo[i].ep = 0
		}
		for i := range w.storedEp {
			w.storedEp[i] = 0
			w.mhEp[i] = 0
		}
		w.epoch = 1
	}
	for i := range w.bits {
		w.bits[i] = 0
	}
	copy(w.bits, mat)
	if w.s.MatOrders {
		ids := w.matGroups()
		sortByDepth(w.s, ids)
		for _, id := range ids {
			w.storedOrd[id] = w.bestDeliveredOrder(id)
			w.storedEp[id] = w.epoch
		}
	}
}

// matGroups gathers the current set's group ids (ascending) into the
// worker's scratch slice.
func (w *worker) matGroups() []memo.GroupID {
	ids := w.matIDs[:0]
	for wi, v := range w.bits {
		for v != 0 {
			b := bits.TrailingZeros64(v)
			ids = append(ids, w.s.SI.GroupAt(wi*64+b))
			v &= v - 1
		}
	}
	w.matIDs = ids
	return ids
}

// matHas reports whether the group is in the current materialization set.
func (w *worker) matHas(g memo.GroupID) bool {
	sl := w.s.slot[g]
	return sl >= 0 && w.bits.HasSlot(int(sl))
}

// stored returns the delivered order of a materialized group this call.
func (w *worker) stored(g memo.GroupID) ordID {
	if w.storedEp[g] != w.epoch {
		return 0
	}
	return w.storedOrd[g]
}

// maskHash returns the Section 5.1 cache mask for the group under the
// current set, memoized per call.
func (w *worker) maskHash(g memo.GroupID) uint64 {
	if w.mhEp[g] == w.epoch {
		return w.mhVal[g]
	}
	v := memo.HashMasked(w.s.desc[g], w.bits)
	w.mhVal[g] = v
	w.mhEp[g] = w.epoch
	return v
}

func sortByDepth(s *Searcher, ids []memo.GroupID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0; j-- {
			di, dj := s.depth(ids[j-1]), s.depth(ids[j])
			if dj < di || (dj == di && ids[j] < ids[j-1]) {
				ids[j-1], ids[j] = ids[j], ids[j-1]
			} else {
				break
			}
		}
	}
}

// BestCost is bc(S): see the package comment.
func (s *Searcher) BestCost(mat NodeSet) float64 {
	w := s.worker(0)
	v := s.bestCostOn(w, mat.bits)
	w.flushStats()
	return v
}

func (s *Searcher) bestCostOn(w *worker, mat memo.Bitset) float64 {
	w.bcCalls++
	w.initCall(mat)
	total := 0.0
	for _, id := range w.matGroups() {
		total += w.compute(id, 0) + s.writeArr[id]
	}
	for _, root := range s.M.QueryRoots {
		total += w.useCost(root, 0)
	}
	return total
}

// BestCostBatchCtx evaluates bc(S) for every set concurrently on up to
// Parallelism workers and returns the costs in input order, bit-identical
// to calling BestCost sequentially. Once ctx is cancelled
// no further evaluation starts (a bc(S) evaluation already underway runs
// to completion — cancellation granularity is one oracle call). On abort
// it returns ok=false together with the completed prefix of the results —
// costs[:k] such that every evaluation before the first unevaluated set
// finished. Each value in the prefix is the exact, deterministic bc(S) of
// its set, so a budget-interrupted round can commit them (e.g. memoize
// best-so-far candidates) without any risk to determinism; only how much
// of the batch survives depends on timing. With a nil or undone context
// results are complete, in input order, and bit-identical to sequential
// BestCost calls.
func (s *Searcher) BestCostBatchCtx(ctx context.Context, mats []NodeSet) (costs []float64, ok bool) {
	s.fault = nil
	out := make([]float64, len(mats))
	par := s.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(mats) {
		par = len(mats)
	}
	var aborted int32
	var fault atomic.Pointer[faultinject.PanicError]
	cancelled := func() bool {
		if atomic.LoadInt32(&aborted) != 0 {
			return true
		}
		if ctx != nil && ctx.Err() != nil {
			atomic.StoreInt32(&aborted, 1)
			return true
		}
		return false
	}
	// evalOne runs one bc(S) evaluation with panic isolation: a panic —
	// injected or genuine — is recovered into a PanicError (first one wins)
	// and aborts the batch, so a poisoned worker can never kill the process
	// or publish a half-computed cost. On a recovered panic ok is false and
	// out[i] is left untouched, so the committed prefix stops before i.
	evalOne := func(w *worker, i int) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				fault.CompareAndSwap(nil, faultinject.NewPanicError("physical.BestCostBatch", r))
				atomic.StoreInt32(&aborted, 1)
			}
		}()
		faultinject.Hit(faultinject.OracleEval)
		out[i] = s.bestCostOn(w, mats[i].bits)
		return true
	}
	if par <= 1 {
		w := s.worker(0)
		done := 0
		for i := range mats {
			if cancelled() || !evalOne(w, i) {
				break
			}
			done = i + 1
		}
		w.flushStats()
		s.fault = fault.Load()
		if aborted != 0 {
			return out[:done], false
		}
		return out, true
	}
	workers := make([]*worker, par)
	for k := range workers {
		workers[k] = s.worker(k)
	}
	completed := make([]uint32, len(mats))
	var wg sync.WaitGroup
	// Worker k takes sets k, k+par, k+2·par, …: a fixed stride, so which
	// sets share a worker's L1 — and with it CacheHits and ComputedKeys —
	// does not depend on goroutine timing.
	for k := 0; k < par; k++ {
		wg.Add(1)
		go func(k int, w *worker) {
			defer wg.Done()
			for i := k; i < len(mats); i += par {
				if cancelled() || !evalOne(w, i) {
					return
				}
				atomic.StoreUint32(&completed[i], 1)
			}
		}(k, workers[k])
	}
	wg.Wait()
	for _, w := range workers {
		w.flushStats()
	}
	s.fault = fault.Load()
	if atomic.LoadInt32(&aborted) != 0 {
		done := 0
		for done < len(completed) && completed[done] == 1 {
			done++
		}
		return out[:done], false
	}
	return out, true
}

// TakeFault returns the panic recovered during the most recent batch, if
// any, and clears it. A non-nil fault means that batch aborted with
// ok=false and its committed prefix is still exact; the memo and caches of
// this searcher may however be inconsistent, so callers must not reuse the
// searcher for further evaluation (repro.Session quarantines it).
func (s *Searcher) TakeFault() error {
	f := s.fault
	s.fault = nil
	if f == nil {
		return nil
	}
	return f
}

// BestUseCost is buc(S): the cost of the optimal plan that may exploit S
// but does not pay for computing or materializing it.
func (s *Searcher) BestUseCost(mat NodeSet) float64 {
	w := s.worker(0)
	w.initCall(mat.bits)
	total := 0.0
	for _, root := range s.M.QueryRoots {
		total += w.useCost(root, 0)
	}
	w.flushStats()
	return total
}

// useCost returns the cheapest way for a consumer to obtain the group's
// result in the required order. The per-call memo check lives in this
// tiny wrapper so it inlines into the pricing loops — the oracle resolves
// the overwhelming majority of useCost calls from the scratch table, and
// a full call frame per memo hit is measurable at workload scale.
func (w *worker) useCost(g memo.GroupID, ord ordID) float64 {
	m := &w.useMemo[int(g)*w.s.numOrds+int(ord)]
	if m.ep == w.epoch {
		return m.val
	}
	return w.useCostMiss(g, ord, m)
}

// useCostMiss is useCost's slow path: consult the cross-call cache, else
// price the group fresh under the current materialization set.
func (w *worker) useCostMiss(g memo.GroupID, ord ordID, m *epVal) float64 {
	s := w.s
	idx := int(g)*s.numOrds + int(ord)
	var mask uint64
	if s.Incremental {
		mask = w.maskHash(g)
		if v, ok := w.cachedUse(g, ord, idx, mask); ok {
			m.val = v
			m.ep = w.epoch
			return v
		}
	}
	v := w.compute(g, ord)
	if w.matHas(g) {
		if alt, _ := w.matUseCost(g, ord); alt < v {
			v = alt
		}
	}
	m.val = v
	m.ep = w.epoch
	if s.Incremental {
		w.storeUse(idx, mask, v)
	}
	return v
}

// matUseCost prices reading the group's materialized copy under the
// required order: the materialize-read cost plus, when the stored order
// does not satisfy the requirement, a re-sort. It is the single pricing
// rule shared by the cost search (useCost) and plan extraction
// (extractUse); callers must have checked matHas(g).
func (w *worker) matUseCost(g memo.GroupID, ord ordID) (cost float64, needSort bool) {
	s := w.s
	cost = s.readArr[g]
	needSort = !s.sat[w.stored(g)][ord]
	if needSort {
		cost += s.sortArr[g] // re-sort the materialized copy
	}
	return cost, needSort
}

// compute returns the cheapest plan that computes the group from its
// inputs (ignoring a materialized copy of the group itself) in the
// required order. Like useCost, the memo check inlines at call sites.
func (w *worker) compute(g memo.GroupID, ord ordID) float64 {
	m := &w.compMemo[int(g)*w.s.numOrds+int(ord)]
	if m.ep == w.epoch {
		return m.val
	}
	return w.computeMiss(g, ord, m)
}

// computeMiss is compute's slow path: cross-call cache, then a fresh
// pass over the group's implementation templates.
func (w *worker) computeMiss(g memo.GroupID, ord ordID, m *epVal) float64 {
	s := w.s
	idx := int(g)*s.numOrds + int(ord)
	m.val = inf // guard against accidental cycles
	m.ep = w.epoch
	var mask uint64
	if s.Incremental {
		mask = w.maskHash(g)
		if v, ok := w.cachedComp(g, ord, idx, mask); ok {
			m.val = v
			return v
		}
	}
	w.computedKey++
	best := inf
	for i := range s.tmpls[g] {
		if cost, _, ok := w.price(&s.tmpls[g][i], ord); ok && cost < best {
			best = cost
		}
	}
	// Sort enforcer: compute in any order, then sort.
	if ord != 0 {
		if v := w.compute(g, 0) + s.sortArr[g]; v < best {
			best = v
		}
	}
	m.val = best
	if s.Incremental {
		w.storeComp(idx, mask, best)
	}
	return best
}

// price returns one template's total use-cost (children included) and
// delivered order under the current materialization set; ok is false when
// the template is gated off or cannot deliver the required order. It is
// the single pricing rule shared by the cost search (compute), the
// stored-order pass (bestDeliveredOrder) and plan extraction
// (extractCompute).
func (w *worker) price(t *tmpl, ord ordID) (cost float64, out ordID, ok bool) {
	s := w.s
	if t.extended && !s.ExtendedOps {
		return 0, 0, false
	}
	// The child lookups are the oracle's innermost edge: the per-call memo
	// check is written out by hand because useCost's call frame exceeds
	// the inlining budget, and the overwhelming majority of child lookups
	// are memo hits.
	if t.passthrough {
		// Order-preserving filter: forward the requirement.
		g := t.child[0].g
		m := &w.useMemo[int(g)*s.numOrds+int(ord)]
		if m.ep == w.epoch {
			return m.val + t.local, ord, true
		}
		return w.useCostMiss(g, ord, m) + t.local, ord, true
	}
	if !s.sat[t.out][ord] {
		return 0, 0, false
	}
	ep := w.epoch
	for ci := uint8(0); ci < t.nchild; ci++ {
		c := &t.child[ci]
		m := &w.useMemo[int(c.g)*s.numOrds+int(c.ord)]
		if m.ep == ep {
			cost += m.val
		} else {
			cost += w.useCostMiss(c.g, c.ord, m)
		}
	}
	lc := t.local
	if t.matGate >= 0 && !w.matHas(t.matGate) {
		lc = t.localSpill
	}
	return cost + lc, t.out, true
}

// bestDeliveredOrder returns the order delivered by the cheapest
// unconstrained compute plan of the group.
func (w *worker) bestDeliveredOrder(g memo.GroupID) ordID {
	s := w.s
	best := inf
	var out ordID
	for i := range s.tmpls[g] {
		if cost, o, ok := w.price(&s.tmpls[g][i], 0); ok && cost < best {
			best = cost
			out = o
		}
	}
	return out
}

const inf = 1e300

func (s *Searcher) blocks(g memo.GroupID) float64       { return s.blocksArr[g] }
func (s *Searcher) sortCost(g memo.GroupID) float64     { return s.sortArr[g] }
func (s *Searcher) matReadCost(g memo.GroupID) float64  { return s.readArr[g] }
func (s *Searcher) matWriteCost(g memo.GroupID) float64 { return s.writeArr[g] }
