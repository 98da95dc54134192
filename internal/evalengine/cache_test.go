package evalengine

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/sfp"
	"repro/internal/slab"
)

// keysInShard returns count distinct one-int keys (with their hashes)
// that all land in shard 0.
func keysInShard(count int) (keys [][]uint16, hashes []uint64) {
	for i := 0; len(keys) < count; i++ {
		k := []uint16{uint16(i)}
		if h := hashInts(hashSeed, k); h%nShards == 0 {
			keys = append(keys, k)
			hashes = append(hashes, h)
		}
	}
	return keys, hashes
}

// TestSolCachePutEvictsOneVictim pins the regression for the whole-shard
// reset: overflowing a shard must displace exactly one resident entry per
// insert (reported through the return value), never wipe the shard.
func TestSolCachePutEvictsOneVictim(t *testing.T) {
	c := newSolCache(nShards * 4) // shardCap = 4
	sol := &redundancy.Solution{}

	// Fill one shard to its cap.
	keys, hs := keysInShard(6)
	var evicted int64
	for i := range keys[:4] {
		evicted += c.put(hs[i], hs[i], keys[i], sol)
	}
	if evicted != 0 {
		t.Fatalf("evictions while filling to cap: %d", evicted)
	}
	// Re-putting a resident key at cap must not evict anything.
	if ev := c.put(hs[0], hs[0], keys[0], sol); ev != 0 {
		t.Fatalf("re-put of resident key evicted %d entries", ev)
	}
	// One past cap: exactly one victim, incoming entry kept, population
	// stays at cap instead of collapsing to one.
	if ev := c.put(hs[4], hs[4], keys[4], sol); ev != 1 {
		t.Fatalf("overflow put evicted %d entries, want 1", ev)
	}
	if _, ok := c.get(hs[4], hs[4], []int{int(keys[4][0])}, nil); !ok {
		t.Fatal("incoming entry was not kept on overflow")
	}
	if n := c.size(); n != 4 {
		t.Fatalf("shard population after overflow = %d, want 4 (whole-shard drop regressed)", n)
	}
}

// TestSFPCachePutEvictsOneVictim is the same regression for the SFP cache,
// whose entries are scoped by node type.
func TestSFPCachePutEvictsOneVictim(t *testing.T) {
	c := NewSFPCache()
	nodeA := &platform.Node{}
	nodeB := &platform.Node{}
	nd := &sfp.Node{}

	cap := maxSFPEntries / nShards
	// Generate enough shard-0 keys to overflow.
	keys, hs := keysInShard(cap + 2)
	var evicted int64
	for i := range keys[:cap] {
		n := nodeA
		if i%2 == 1 {
			n = nodeB
		}
		evicted += c.put(n, hs[i], keys[i], nd)
	}
	if evicted != 0 {
		t.Fatalf("evictions while filling to cap: %d", evicted)
	}
	if ev := c.put(nodeA, hs[0], keys[0], nd); ev != 0 {
		t.Fatalf("re-put of resident key evicted %d entries", ev)
	}
	if ev := c.put(nodeA, hs[cap], keys[cap], nd); ev != 1 {
		t.Fatalf("overflow put evicted %d entries, want 1", ev)
	}
	if _, ok := c.get(nodeA, hs[cap], []int{int(keys[cap][0])}, nil); !ok {
		t.Fatal("incoming entry was not kept on overflow")
	}
	if n := c.t.shards[0].n; n != cap {
		t.Fatalf("shard population after overflow = %d, want %d", n, cap)
	}
}

// countLiveGauges returns how many evalengine.live.* gauges a registry
// snapshot exposes.
func countLiveGauges(r *obs.Registry) int {
	n := 0
	for name := range r.Snapshot().Gauges {
		if strings.HasPrefix(name, "evalengine.live.") {
			n++
		}
	}
	return n
}

// TestSetMetricsIdempotent pins the gauge-leak regression: installing the
// same registry twice (as jobs.Runner does per job) must leave exactly one
// gauge set, and moving to another registry — or nil — must deregister the
// closures from the previous one.
func TestSetMetricsIdempotent(t *testing.T) {
	st := newStore(NewSFPCache(), 1)
	a := obs.NewRegistry()

	st.setMetrics(a)
	st.setMetrics(a)
	if n := countLiveGauges(a); n != len(liveGaugeNames) {
		t.Fatalf("after double install: %d live gauges, want %d", n, len(liveGaugeNames))
	}

	b := obs.NewRegistry()
	st.setMetrics(b)
	if n := countLiveGauges(a); n != 0 {
		t.Fatalf("old registry still holds %d live gauges after move", n)
	}
	if n := countLiveGauges(b); n != len(liveGaugeNames) {
		t.Fatalf("new registry holds %d live gauges, want %d", n, len(liveGaugeNames))
	}

	st.setMetrics(nil)
	if n := countLiveGauges(b); n != 0 {
		t.Fatalf("registry still holds %d live gauges after SetMetrics(nil)", n)
	}
}

// TestTableCollisionChains forces distinct keys onto one hash: every get
// must confirm the full key, colliding entries must chain rather than
// overwrite each other, and eviction must count chained entries one at a
// time.
func TestTableCollisionChains(t *testing.T) {
	c := newSolCache(nShards * 3) // shardCap = 3
	const h = 42                  // one hash for every key below
	sols := []*redundancy.Solution{{Cost: 1}, {Cost: 2}, {Cost: 3}, {Cost: 4}}
	keys := [][]int{{1, 2}, {2, 1}, {1, 2, 3}, {7}}
	stored := func(k []int) []uint16 { return makeKey(new(slab.Slab[uint16]), k, nil) }
	for i, k := range keys[:3] {
		if ev := c.put(h, h, stored(k), sols[i]); ev != 0 {
			t.Fatalf("put %v evicted %d", k, ev)
		}
	}
	if ev := c.put(h, h, stored(keys[1]), sols[3]); ev != 0 || c.size() != 3 {
		t.Fatalf("re-put of a chained key: evicted %d, size %d", ev, c.size())
	}
	for i, k := range keys[:3] {
		if got, ok := c.get(h, h, k, nil); !ok || got != sols[i] {
			t.Fatalf("get %v = %v, %v; want %v", k, got, ok, sols[i])
		}
	}
	// Split points do not matter, only the concatenation.
	if got, ok := c.get(h, h, []int{1}, []int{2, 3}); !ok || got != sols[2] {
		t.Fatalf("get [1]++[2 3] = %v, %v", got, ok)
	}
	if _, ok := c.get(h, h, keys[3], nil); ok {
		t.Fatal("a key never put hit through a hash collision")
	}
	if ev := c.put(h, h, stored(keys[3]), sols[3]); ev != 1 || c.size() != 3 {
		t.Fatalf("overflow put into a chained slot: evicted %d, size %d", ev, c.size())
	}
	if got, ok := c.get(h, h, keys[3], nil); !ok || got != sols[3] {
		t.Fatal("incoming entry was not kept on overflow")
	}
	n := 0
	c.each(func([]uint16, *redundancy.Solution) { n++ })
	if n != 3 {
		t.Fatalf("each visited %d entries, want 3", n)
	}
}
