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

// distinctKeys returns count distinct one-int keys with their hashes.
func distinctKeys(count int) (keys [][]uint16, hashes []uint64) {
	for i := 0; i < count; i++ {
		k := []uint16{uint16(i)}
		keys = append(keys, k)
		hashes = append(hashes, hashInts(hashSeed, k))
	}
	return keys, hashes
}

// TestSolCachePutEvictsOneVictim pins the regression for the whole-cache
// reset: overflowing the cap must displace exactly one resident entry per
// insert (reported through the return value), never wipe the cache.
func TestSolCachePutEvictsOneVictim(t *testing.T) {
	c := newSolCache(4)
	sol := &redundancy.Solution{}

	// Fill the cache to its cap.
	keys, hs := distinctKeys(6)
	var evicted int64
	for i := range keys[:4] {
		evicted += c.put(hs[i], keys[i], sol)
	}
	if evicted != 0 {
		t.Fatalf("evictions while filling to cap: %d", evicted)
	}
	// Re-putting a resident key at cap must not evict anything.
	if ev := c.put(hs[0], keys[0], sol); ev != 0 {
		t.Fatalf("re-put of resident key evicted %d entries", ev)
	}
	// One past cap: exactly one victim, incoming entry kept, population
	// stays at cap instead of collapsing to one.
	if ev := c.put(hs[4], keys[4], sol); ev != 1 {
		t.Fatalf("overflow put evicted %d entries, want 1", ev)
	}
	if _, ok := c.get(hs[4], []int{int(keys[4][0])}, nil); !ok {
		t.Fatal("incoming entry was not kept on overflow")
	}
	if n := c.size(); n != 4 {
		t.Fatalf("population after overflow = %d, want 4 (whole-cache drop regressed)", n)
	}
}

// TestSFPCachePutEvictsOneVictim is the same regression for the SFP cache,
// whose entries are scoped by node type.
func TestSFPCachePutEvictsOneVictim(t *testing.T) {
	c := newSFPCache()
	nodeA := &platform.Node{}
	nodeB := &platform.Node{}
	nd := &sfp.Node{}

	cap := maxSFPEntries
	// Generate enough keys to overflow.
	keys, hs := distinctKeys(cap + 2)
	var evicted int64
	for i := range keys[:cap] {
		n := nodeA
		if i%2 == 1 {
			n = nodeB
		}
		evicted += c.put(sfpKey{n, hs[i]}, keys[i], nd)
	}
	if evicted != 0 {
		t.Fatalf("evictions while filling to cap: %d", evicted)
	}
	if ev := c.put(sfpKey{nodeA, hs[0]}, keys[0], nd); ev != 0 {
		t.Fatalf("re-put of resident key evicted %d entries", ev)
	}
	if ev := c.put(sfpKey{nodeA, hs[cap]}, keys[cap], nd); ev != 1 {
		t.Fatalf("overflow put evicted %d entries, want 1", ev)
	}
	if _, ok := c.get(sfpKey{nodeA, hs[cap]}, []int{int(keys[cap][0])}, nil); !ok {
		t.Fatal("incoming entry was not kept on overflow")
	}
	if n := c.size(); n != cap {
		t.Fatalf("population after overflow = %d, want %d", n, cap)
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
	st := newStore()
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
	c := newSolCache(3)
	const h = 42 // one hash for every key below
	sols := []*redundancy.Solution{{Cost: 1}, {Cost: 2}, {Cost: 3}, {Cost: 4}}
	keys := [][]int{{1, 2}, {2, 1}, {1, 2, 3}, {7}}
	stored := func(k []int) []uint16 { return makeKey(new(slab.Slab[uint16]), k, nil) }
	for i, k := range keys[:3] {
		if ev := c.put(h, stored(k), sols[i]); ev != 0 {
			t.Fatalf("put %v evicted %d", k, ev)
		}
	}
	if ev := c.put(h, stored(keys[1]), sols[3]); ev != 0 || c.size() != 3 {
		t.Fatalf("re-put of a chained key: evicted %d, size %d", ev, c.size())
	}
	for i, k := range keys[:3] {
		if got, ok := c.get(h, k, nil); !ok || got != sols[i] {
			t.Fatalf("get %v = %v, %v; want %v", k, got, ok, sols[i])
		}
	}
	// Split points do not matter, only the concatenation.
	if got, ok := c.get(h, []int{1}, []int{2, 3}); !ok || got != sols[2] {
		t.Fatalf("get [1]++[2 3] = %v, %v", got, ok)
	}
	if _, ok := c.get(h, keys[3], nil); ok {
		t.Fatal("a key never put hit through a hash collision")
	}
	if ev := c.put(h, stored(keys[3]), sols[3]); ev != 1 || c.size() != 3 {
		t.Fatalf("overflow put into a chained slot: evicted %d, size %d", ev, c.size())
	}
	if got, ok := c.get(h, keys[3], nil); !ok || got != sols[3] {
		t.Fatal("incoming entry was not kept on overflow")
	}
	n := 0
	c.each(func([]uint16, *redundancy.Solution) { n++ })
	if n != 3 {
		t.Fatalf("each visited %d entries, want 3", n)
	}
}

// TestLiveGaugesReadDuringRun: the /metrics scrape goroutine reads the
// live gauges while the engine's goroutine fills its caches and rebinds
// problems (which replaces the cache maps). Under -race this pins that
// the gauges touch only atomics.
func TestLiveGaugesReadDuringRun(t *testing.T) {
	p, maps := allocProblem(t, 300)
	q := p
	q.Goal.Gamma *= 2 // a different goal: every rebind drops the solution caches
	reg := obs.NewRegistry()
	ev := New(p)
	ev.SetMetrics(reg)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, m := range maps {
			if _, err := ev.Evaluate(m, []int{1, 1}); err != nil {
				t.Error(err)
				return
			}
			if i%100 == 99 {
				ev.SetProblem(q)
				p, q = q, p
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
			reg.Snapshot()
		}
	}
	if got := reg.Snapshot().Gauges["evalengine.live.evaluations"]; got != float64(len(maps)) {
		t.Errorf("live evaluations gauge = %v, want %d", got, len(maps))
	}
}
