package evalengine

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/taskgen"
	"repro/internal/ttp"
)

// allocProblem is a 20-process, 2-node problem plus n distinct seeded
// mappings of it.
func allocProblem(t *testing.T, n int) (redundancy.Problem, [][]int) {
	t.Helper()
	inst, err := taskgen.Generate(taskgen.DefaultConfig(6, 20, 1e-11, 25))
	if err != nil {
		t.Fatal(err)
	}
	p := redundancy.Problem{
		App:  inst.App,
		Arch: platform.NewArchitecture(collect(inst.Platform, []int{0, 1})),
		Goal: inst.Goal,
		Bus:  ttp.NewBus(2, inst.Platform.Bus.SlotLen),
	}
	rng := rand.New(rand.NewSource(1))
	seen := map[int]bool{}
	var maps [][]int
	for len(maps) < n {
		bitsv := rng.Intn(1 << 20)
		if seen[bitsv] {
			continue
		}
		seen[bitsv] = true
		m := make([]int, 20)
		for i := range m {
			m[i] = bitsv >> i & 1
		}
		maps = append(maps, m)
	}
	return p, maps
}

// TestAllocsHitPaths pins the cache hit paths at zero allocations: an
// Evaluate hit, a RedundancyOpt hit and an SFP cache hit.
func TestAllocsHitPaths(t *testing.T) {
	p, maps := allocProblem(t, 1)
	m := maps[0]
	ev := New(p)
	levels := []int{1, 1}
	if _, err := ev.Evaluate(m, levels); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.RedundancyOpt(m); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(200, func() { ev.Evaluate(m, levels) }); a != 0 {
		t.Errorf("Evaluate hit: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { ev.RedundancyOpt(m) }); a != 0 {
		t.Errorf("RedundancyOpt hit: %v allocs, want 0", a)
	}
	node := p.Arch.Nodes[0]
	level, pids := levels[:1], ev.buckets[0]
	h := hashInts(hashInts(hashSeed, level), pids)
	if _, ok := ev.st.sfp.get(sfpKey{node, h}, level, pids); !ok {
		t.Fatal("SFP analysis of the evaluated mapping is not cached")
	}
	if a := testing.AllocsPerRun(200, func() { ev.st.sfp.get(sfpKey{node, h}, level, pids) }); a != 0 {
		t.Errorf("SFP cache hit: %v allocs, want 0", a)
	}
}

// TestAllocsEvaluateMiss pins the steady-state miss path: once the slabs
// have grown past their first chunks, a solution-cache miss whose SFP
// analyses are cached allocates at most one object, amortized.
func TestAllocsEvaluateMiss(t *testing.T) {
	const warm, measured = 1000, 2000
	p, maps := allocProblem(t, warm+measured)
	levels := []int{1, 1}
	// A first engine fills an SFP cache the measured engine then adopts,
	// so the measured engine's misses build schedules but no node
	// analyses.
	filler := New(p)
	for _, m := range maps {
		if _, err := filler.Evaluate(m, levels); err != nil {
			t.Fatal(err)
		}
	}
	ev := New(p)
	ev.st.sfp = filler.st.sfp
	i := 0
	next := func() {
		if _, err := ev.Evaluate(maps[i], levels); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for i < warm {
		next()
	}
	a := testing.AllocsPerRun(measured-1, next) // AllocsPerRun adds a warm-up call
	if st := ev.Stats(); st.CacheMisses != warm+measured || st.SFPBuilds != 0 {
		t.Fatalf("want %d misses and no SFP builds, got %v", warm+measured, st)
	}
	if a > 1 {
		t.Errorf("Evaluate miss: %v allocs amortized, want <= 1", a)
	}
}

// TestRetireMetricsReleasesStore pins the gauge leak: a registry that
// outlives the engine must not keep the engine's store reachable once the
// run retired its metrics, and must still report the final live values.
func TestRetireMetricsReleasesStore(t *testing.T) {
	p, maps := allocProblem(t, 1)
	reg := obs.NewRegistry()
	ev := New(p)
	ev.SetMetrics(reg)
	if _, err := ev.RedundancyOpt(maps[0]); err != nil {
		t.Fatal(err)
	}
	entries := float64(ev.st.sols.size())
	freed := make(chan struct{})
	runtime.SetFinalizer(ev.st, func(*store) { close(freed) })
	ev.RetireMetrics()
	ev = nil
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(10 * time.Second):
		t.Error("store still reachable after RetireMetrics")
	}
	if got := reg.Snapshot().Gauges["evalengine.live.cache_entries"]; got != entries || got == 0 {
		t.Errorf("retired cache_entries gauge = %v, want %v", got, entries)
	}
	runtime.KeepAlive(reg)
}
