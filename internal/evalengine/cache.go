package evalengine

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/evalcache"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/sfp"
	"repro/internal/slab"
)

// Every cache key is a vector of small ints — (levels, mapping) for a
// solution, the mapping for a RedundancyOpt result, (level, process set)
// for an SFP node analysis — and the caches index it by a 64-bit hash of
// those ints instead of an encoded string. The hash picks the map slot;
// the entry stores the full key, and every hit confirms it,
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

// table is a hash-keyed map from int-vector keys to values. K is the map
// key: the hash itself, or the hash plus whatever else scopes the key (the
// SFP cache adds the node type). A table belongs to one engine and is
// used by one goroutine; only the entry count is atomic, because the
// live gauges read it from the /metrics scrape goroutine.
type table[K comparable, V any] struct {
	m   map[K]chain[V]
	n   atomic.Int64 // entries, chained ones included
	cap int          // entry backstop; one counted victim evicted at cap
}

func newTable[K comparable, V any](totalCap int) *table[K, V] {
	return &table[K, V]{m: make(map[K]chain[V]), cap: totalCap}
}

// get returns the value stored under the key a ++ b, whose map key is k.
// It allocates nothing.
func (t *table[K, V]) get(k K, a, b []int) (V, bool) {
	c, ok := t.m[k]
	for p := &c; ok && p != nil; p = p.next {
		if keyEq(p.key, a, b) {
			return p.val, true
		}
	}
	var zero V
	return zero, false
}

// put inserts the entry unless its key is already resident, reporting how
// many entries were evicted to stay under the cap. The table keeps key as
// the stored key; the caller must not modify it afterwards. Eviction is
// counted, one victim at a time (an arbitrary resident entry — the keys
// are content hashes, so any victim is as good as any other): the
// incoming entry is always kept and at most one resident is displaced.
func (t *table[K, V]) put(k K, key []uint16, v V) (evicted int64) {
	c, ok := t.m[k]
	for p := &c; ok && p != nil; p = p.next {
		if slices.Equal(p.key, key) {
			return 0
		}
	}
	if n := t.n.Load(); n >= int64(t.cap) && n > 0 {
		for vk, vc := range t.m {
			if vc.next != nil {
				t.m[vk] = *vc.next
			} else {
				delete(t.m, vk)
			}
			break
		}
		t.n.Add(-1)
		evicted++
		c, ok = t.m[k]
	}
	if ok {
		rest := c
		c = chain[V]{key: key, val: v, next: &rest}
	} else {
		c = chain[V]{key: key, val: v}
	}
	t.m[k] = c
	t.n.Add(1)
	return evicted
}

// each calls f for every entry; f must not call back into the table.
func (t *table[K, V]) each(f func(key []uint16, v V)) {
	for _, c := range t.m {
		for p := &c; p != nil; p = p.next {
			f(p.key, p.val)
		}
	}
}

func (t *table[K, V]) clear() {
	t.m = make(map[K]chain[V])
	t.n.Store(0)
}

// size returns the current entry count. It is safe to call from any
// goroutine.
func (t *table[K, V]) size() int { return int(t.n.Load()) }

// solCache maps a solution key — (levels, mapping), or the mapping alone
// for RedundancyOpt results — to the memoized solution. The map key is
// the key hash.
type solCache = table[uint64, *redundancy.Solution]

func newSolCache(totalCap int) *solCache { return newTable[uint64, *redundancy.Solution](totalCap) }

// sfpCache is the per-node-type SFP analysis cache: (node type,
// hardening level, mapped process set) → *sfp.Node. It is the expensive,
// highly reusable layer of the evaluation pipeline — node types recur
// across candidate architectures — so it survives the SetProblem rebinds
// that drop the solution caches. sfp.Node values are immutable after
// construction.
type sfpCache = table[sfpKey, *sfp.Node]

// sfpKey scopes the hash of (level, process set) to one node type.
type sfpKey struct {
	node *platform.Node
	h    uint64
}

func newSFPCache() *sfpCache { return newTable[sfpKey, *sfp.Node](maxSFPEntries) }

// store bundles an Evaluator's caches and counters. The counters are
// atomics because the live gauges and Stats may be read from other
// goroutines (the /metrics scrape) while the engine runs.
type store struct {
	sols  *solCache // (levels, mapping) → solution
	opts  *solCache // mapping → RedundancyOpt result
	sfp   *sfpCache
	stats atomicStats

	// persist is the optional disk-backed cache behind warm starts;
	// persistFP is the problem fingerprint the current solution caches
	// belong to, and persistSeeded how many entries the load seeded (so a
	// flush that learned nothing can be skipped). See persist.go.
	persist       *evalcache.Cache
	persistFP     string
	persistSeeded int

	// progress is the optional live-progress publisher.
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

func newStore() *store {
	return &store{
		sols: newSolCache(maxSolutionEntries),
		opts: newSolCache(maxOptEntries),
		sfp:  newSFPCache(),
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

func (st *store) dropSolutions() {
	st.sols.clear()
	st.opts.clear()
	st.stats.invalidations.Add(1)
}
