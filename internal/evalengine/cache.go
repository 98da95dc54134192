package evalengine

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/evalcache"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/sfp"
	"repro/internal/slab"
)

// The caches are sharded so that workers of a Concurrent engine mostly
// lock disjoint shards. 16 shards keeps contention negligible at the
// worker counts that make sense here (≤ GOMAXPROCS) while costing nothing
// when a single goroutine owns the engine.
const nShards = 16

// Every cache key is a vector of small ints — (levels, mapping) for a
// solution, the mapping for a RedundancyOpt result, (level, process set)
// for an SFP node analysis — and the caches index it by a 64-bit hash of
// those ints instead of an encoded string. The hash picks the shard and
// the map slot; the entry stores the full key, and every hit confirms it,
// so two keys that collide on the hash share a slot as a chain and a
// collision costs one extra comparison, never a wrong answer.
//
// Stored keys are uint16s: hardening levels, node indices and process IDs
// are far below 1<<16 (the persisted key format has always assumed so). A
// larger value never equals its truncated stored form, so it could only
// cost misses, never a wrong answer.

// hashSeed is the initial state of every key hash.
const hashSeed uint64 = 0x243f6a8885a308d3

// hashInts folds vals into the running hash h: one xor-multiply-rotate per
// value, so hashing a key is a few dozen cycles and allocates nothing. A
// stored key and the ints it was made from hash alike.
func hashInts[T int | uint16](h uint64, vals []T) uint64 {
	for _, v := range vals {
		h = bits.RotateLeft64((h^uint64(v))*0x9e3779b97f4a7c15, 29)
	}
	return h
}

// keyEq reports whether the stored key is the concatenation a ++ b.
func keyEq(key []uint16, a, b []int) bool {
	if len(key) != len(a)+len(b) {
		return false
	}
	for i, v := range a {
		if int(key[i]) != v {
			return false
		}
	}
	for i, v := range b {
		if int(key[len(a)+i]) != v {
			return false
		}
	}
	return true
}

// makeKey carves the stored form of the key a ++ b off sl.
func makeKey(sl *slab.Slab[uint16], a, b []int) []uint16 {
	key := sl.Make(len(a) + len(b))
	for i, v := range a {
		key[i] = uint16(v)
	}
	for i, v := range b {
		key[len(a)+i] = uint16(v)
	}
	return key
}

// chain is one cache entry: the full key, the value, and — only when
// another key hashes to the same slot — the rest of the slot's entries.
type chain[V any] struct {
	key  []uint16
	val  V
	next *chain[V]
}

// table is a sharded, hash-keyed map from int-vector keys to values. K is
// the map key: the hash itself, or the hash plus whatever else scopes the
// key (the SFP cache adds the node type). Concurrent same-key computations
// are benign: both workers derive the identical value from the same
// inputs, and the first put wins.
type table[K comparable, V any] struct {
	shards   [nShards]tableShard[K, V]
	shardCap int // per-shard entry backstop; one counted victim evicted at cap
}

type tableShard[K comparable, V any] struct {
	mu sync.RWMutex
	m  map[K]chain[V]
	n  int // entries, chained ones included
}

func newTable[K comparable, V any](totalCap int) *table[K, V] {
	t := &table[K, V]{shardCap: totalCap / nShards}
	for i := range t.shards {
		t.shards[i].m = make(map[K]chain[V])
	}
	return t
}

// get returns the value stored under the key a ++ b, whose hash is h and
// map key k. It allocates nothing.
func (t *table[K, V]) get(h uint64, k K, a, b []int) (V, bool) {
	sh := &t.shards[h%nShards]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	c, ok := sh.m[k]
	for p := &c; ok && p != nil; p = p.next {
		if keyEq(p.key, a, b) {
			return p.val, true
		}
	}
	var zero V
	return zero, false
}

// put inserts the entry unless its key is already resident, reporting how
// many entries were evicted to stay under the shard cap. The table keeps
// key as the stored key; the caller must not modify it afterwards.
// Eviction is counted, one victim at a time (an arbitrary resident entry —
// the keys are content hashes, so any victim is as good as any other): the
// incoming entry is always kept and at most one resident is displaced.
func (t *table[K, V]) put(h uint64, k K, key []uint16, v V) (evicted int64) {
	sh := &t.shards[h%nShards]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	c, ok := sh.m[k]
	for p := &c; ok && p != nil; p = p.next {
		if slices.Equal(p.key, key) {
			return 0
		}
	}
	if sh.n >= t.shardCap && sh.n > 0 {
		for vk, vc := range sh.m {
			if vc.next != nil {
				sh.m[vk] = *vc.next
			} else {
				delete(sh.m, vk)
			}
			break
		}
		sh.n--
		evicted++
		c, ok = sh.m[k]
	}
	if ok {
		rest := c
		c = chain[V]{key: key, val: v, next: &rest}
	} else {
		c = chain[V]{key: key, val: v}
	}
	sh.m[k] = c
	sh.n++
	return evicted
}

// each calls f for every entry. It takes the shard locks, so it is for
// snapshots, not hot paths; f must not call back into the table.
func (t *table[K, V]) each(f func(key []uint16, v V)) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, c := range sh.m {
			for p := &c; p != nil; p = p.next {
				f(p.key, p.val)
			}
		}
		sh.mu.RUnlock()
	}
}

func (t *table[K, V]) clear() {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		sh.m = make(map[K]chain[V])
		sh.n = 0
		sh.mu.Unlock()
	}
}

// size returns the current entry count across all shards. It takes the
// shard locks, so it is for observation (gauges), not hot paths.
func (t *table[K, V]) size() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += sh.n
		sh.mu.RUnlock()
	}
	return n
}

// solCache maps a solution key — (levels, mapping), or the mapping alone
// for RedundancyOpt results — to the memoized solution. The map key is
// the key hash.
type solCache = table[uint64, *redundancy.Solution]

func newSolCache(totalCap int) *solCache { return newTable[uint64, *redundancy.Solution](totalCap) }

// SFPCache is the concurrency-safe per-node-type SFP analysis cache:
// (node type, hardening level, mapped process set) → *sfp.Node. It is the
// expensive, highly reusable layer of the evaluation pipeline — node
// types recur across candidate architectures — so core.Run shares one
// SFPCache across the engines of all concurrently probed architectures
// (NewConcurrentWith). sfp.Node values are immutable after construction,
// which is what makes sharing them safe.
type SFPCache struct {
	t *table[sfpKey, *sfp.Node]
}

// sfpKey scopes the (level, process set) hash to one node type.
type sfpKey struct {
	node *platform.Node
	h    uint64
}

// NewSFPCache returns an empty cache, ready to be shared across engines.
func NewSFPCache() *SFPCache {
	return &SFPCache{t: newTable[sfpKey, *sfp.Node](maxSFPEntries)}
}

// get looks up the analysis for node n at the given level with the given
// mapped processes; h is hashInts over (level, pids). It allocates
// nothing.
func (c *SFPCache) get(n *platform.Node, h uint64, level, pids []int) (*sfp.Node, bool) {
	return c.t.get(h, sfpKey{n, h}, level, pids)
}

// put inserts the analysis under key = (level, pids...), reporting how
// many resident entries were evicted to stay under the shard cap.
func (c *SFPCache) put(n *platform.Node, h uint64, key []uint16, nd *sfp.Node) (evicted int64) {
	return c.t.put(h, sfpKey{n, h}, key, nd)
}

func (c *SFPCache) reset() { c.t.clear() }

// workerCounters attributes engine work to one worker of a Concurrent
// engine. Padded to a cache line so workers incrementing their own slot do
// not false-share.
type workerCounters struct {
	evaluations atomic.Int64
	cacheMisses atomic.Int64
	_           [48]byte
}

// store bundles the caches and counters shared by every Evaluator of one
// engine: a solo Evaluator owns a private store; a Concurrent engine hands
// the same store to all its workers.
type store struct {
	sols      *solCache // (levels, mapping) → solution
	opts      *solCache // mapping → RedundancyOpt result
	sfp       *SFPCache
	stats     atomicStats
	perWorker []workerCounters

	// persist is the optional disk-backed cache behind warm starts;
	// persistFP is the problem fingerprint the current solution caches
	// belong to, and persistSeeded how many entries the load seeded (so a
	// flush that learned nothing can be skipped). See persist.go.
	persist       *evalcache.Cache
	persistFP     string
	persistSeeded int

	// progress is the optional live-progress publisher; like metrics it is
	// store-level state shared by every worker of a Concurrent engine.
	progress *obs.Progress

	// metrics is the optional live-instrumentation sink; the histograms are
	// resolved once at setMetrics so the hot path observes through nil-safe
	// pointers instead of registry lookups. gaugeReg remembers where the
	// live callback gauges are currently registered so reinstalling
	// instruments is idempotent and moving to another registry (or to nil,
	// or retiring them at the end of a run) deregisters the old closures
	// instead of leaking the store through them.
	metrics  *obs.Registry
	gaugeReg *obs.Registry
	mReexec  *obs.Histogram
	mSched   *obs.Histogram
	mOpt     *obs.Histogram
}

// liveGaugeNames are the callback gauges setMetrics owns on a registry,
// and liveGaugeValues reads their current values (in the same order).
var liveGaugeNames = [...]string{
	"evalengine.live.evaluations",
	"evalengine.live.cache_entries",
	"evalengine.live.opt_entries",
}

func (st *store) liveGaugeValues() [len(liveGaugeNames)]float64 {
	return [...]float64{
		float64(st.stats.evaluations.Load()),
		float64(st.sols.size()),
		float64(st.opts.size()),
	}
}

func newStore(sfpc *SFPCache, workers int) *store {
	if workers < 1 {
		workers = 1
	}
	return &store{
		sols:      newSolCache(maxSolutionEntries),
		opts:      newSolCache(maxOptEntries),
		sfp:       sfpc,
		perWorker: make([]workerCounters, workers),
	}
}

// setMetrics installs (or removes, with nil) the registry the engine's
// duration histograms are recorded into. It also registers callback
// gauges for the engine's live state — evaluations so far and current
// cache populations — evaluated only when the registry is snapshotted
// (the /metrics scrape path), so they cost nothing on the hot path.
//
// Registration is idempotent: reinstalling the same registry (as
// jobs.Runner does per job) leaves exactly one gauge set behind, and
// installing a different registry — or nil — first deregisters the
// closures from the previous one, so a retired store is not kept alive by
// a registry that outlives it.
func (st *store) setMetrics(r *obs.Registry) {
	if st.gaugeReg != nil && st.gaugeReg != r {
		for _, name := range liveGaugeNames {
			st.gaugeReg.UnregisterGaugeFunc(name)
		}
	}
	st.metrics = r
	st.mReexec = r.Histogram("evalengine.reexec")
	st.mSched = r.Histogram("evalengine.sched")
	st.mOpt = r.Histogram("evalengine.redundancy_opt")
	if r != nil && st.gaugeReg != r {
		for i, name := range liveGaugeNames {
			r.GaugeFunc(name, func() float64 { return st.liveGaugeValues()[i] })
		}
	}
	st.gaugeReg = r
}

// retireMetrics detaches the registry like setMetrics(nil), but first
// leaves the live gauges behind as plain gauges holding their final
// values. A registry that outlives the engine (ftesd keeps every job's)
// then still reports what the engine ended with, without its callbacks
// pinning the store — every cached solution and schedule slab — for as
// long as the registry lives.
func (st *store) retireMetrics() {
	r, vals := st.gaugeReg, st.liveGaugeValues()
	st.setMetrics(nil)
	for i, name := range liveGaugeNames {
		r.Gauge(name).Set(vals[i])
	}
}

// resetStats zeroes the engine-wide and per-worker counters.
func (st *store) resetStats() {
	st.stats.reset()
	for i := range st.perWorker {
		st.perWorker[i].evaluations.Store(0)
		st.perWorker[i].cacheMisses.Store(0)
	}
}

// snapshotStats renders the engine-wide Stats, with per-worker attribution
// when the engine has more than one worker.
func (st *store) snapshotStats() Stats {
	s := st.stats.snapshot()
	if len(st.perWorker) > 1 {
		s.PerWorker = make([]WorkerStats, len(st.perWorker))
		for i := range st.perWorker {
			w := &st.perWorker[i]
			s.PerWorker[i] = WorkerStats{
				Evaluations: w.evaluations.Load(),
				CacheMisses: w.cacheMisses.Load(),
			}
		}
	}
	return s
}

func (st *store) dropSolutions() {
	st.sols.clear()
	st.opts.clear()
	st.stats.invalidations.Add(1)
}
