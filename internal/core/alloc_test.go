package core

import (
	"runtime"
	"testing"

	"repro/internal/cc"
	"repro/internal/obs"
)

// ccOptAllocBudget bounds the heap allocations of one OPT design of the
// cruise controller: 18.7k with go1.24. The evaluator's miss path
// allocates nothing in steady state; what remains is the tabu search's
// bookkeeping, the SFP node analyses and slab chunks. One allocation per
// schedule build (17,904 of them) or per SFP analysis (5,495) would
// overrun it.
const ccOptAllocBudget = 20000

// TestCruiseControllerAllocBudget pins the allocation count of core.Run
// OPT on cc.Instance().
func TestCruiseControllerAllocBudget(t *testing.T) {
	inst, err := cc.Instance()
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Goal: inst.Goal, Strategy: OPT}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(inst.App, inst.Platform, opts)
	runtime.ReadMemStats(&after)
	if err != nil || !res.Feasible {
		t.Fatalf("cc OPT: feasible=%v err=%v", res != nil && res.Feasible, err)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > ccOptAllocBudget {
		t.Errorf("cc OPT allocated %d objects, budget %d", allocs, ccOptAllocBudget)
	}
}

// TestRunReleasesEngine pins the engine-store leak: after core.Run with a
// Metrics registry, the registry (which callers such as ftesd keep per
// job) must not keep the run's evaluation engine — its cached solutions
// and schedule slabs — reachable, yet must still report the final live
// gauges.
func TestRunReleasesEngine(t *testing.T) {
	inst, err := cc.Instance()
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(inst.App, inst.Platform, Options{Goal: inst.Goal, Strategy: OPT, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// Leaked, the engine of a cc OPT run holds ~36 MB; released, the run
	// leaves only its Result behind.
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if retained > 4<<20 {
		t.Errorf("registry keeps %d bytes of the finished run reachable", retained)
	}
	if _, ok := reg.Snapshot().Gauges["evalengine.live.cache_entries"]; !ok {
		t.Error("metrics lost evalengine.live.cache_entries")
	}
	runtime.KeepAlive(reg)
	runtime.KeepAlive(res)
}
