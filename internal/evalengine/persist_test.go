package evalengine

import (
	"testing"

	"repro/internal/evalcache"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/taskgen"
	"repro/internal/ttp"
)

func persistProblem(t *testing.T, seed int64) (redundancy.Problem, []int) {
	t.Helper()
	inst, err := taskgen.Generate(taskgen.DefaultConfig(seed, 10, 1e-11, 25))
	if err != nil {
		t.Fatal(err)
	}
	ar := platform.NewEnumerator(inst.Platform).Arch(2, 0)
	if ar == nil {
		t.Fatal("no 2-node architecture")
	}
	m := make([]int, inst.App.NumProcesses())
	for pid := range m {
		m[pid] = pid % 2
	}
	return redundancy.Problem{
		App:  inst.App,
		Arch: ar,
		Goal: inst.Goal,
		Bus:  ttp.NewBus(2, inst.Platform.Bus.SlotLen),
	}, m
}

// TestPersistentWarmStart is the cross-process warm-start contract: a
// fresh engine pointed at a cache directory a previous engine flushed
// into answers the same requests without rebuilding a single schedule,
// and with bit-identical solutions.
func TestPersistentWarmStart(t *testing.T) {
	p, m := persistProblem(t, 11)
	dir := t.TempDir()
	cache, err := evalcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	cold := New(p)
	cold.SetPersistent(cache)
	want, err := cold.RedundancyOpt(m)
	if err != nil {
		t.Fatal(err)
	}
	coldStats := cold.Stats()
	if coldStats.ScheduleBuilds == 0 {
		t.Fatal("cold run built no schedules")
	}
	if err := cold.FlushPersistent(); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Saves != 1 {
		t.Fatalf("flush saved %d files, want 1", cache.Stats().Saves)
	}
	// A second flush with nothing new learned must not rewrite the file.
	if err := cold.FlushPersistent(); err != nil {
		t.Fatal(err)
	}
	if cache.Stats().Saves != 1 {
		t.Fatal("no-op flush rewrote the cache file")
	}

	// New process: same problem content, fresh bus pointer, same cache dir.
	p2, _ := persistProblem(t, 11)
	warm := New(p2)
	warm.SetPersistent(cache)
	got, err := warm.RedundancyOpt(m)
	if err != nil {
		t.Fatal(err)
	}
	ws := warm.Stats()
	if ws.ScheduleBuilds != 0 || ws.SFPBuilds != 0 {
		t.Fatalf("warm run rebuilt: %d schedules, %d SFP analyses", ws.ScheduleBuilds, ws.SFPBuilds)
	}
	if got.Cost != want.Cost || got.Reliable != want.Reliable || got.Schedulable != want.Schedulable ||
		got.Schedule.Length != want.Schedule.Length {
		t.Fatalf("warm solution diverges: got %+v want %+v", got, want)
	}
}

// TestPersistentSetProblemFlushes pins the rebind lifecycle: moving to
// another problem flushes the outgoing one's entries, and moving back
// seeds them from disk again.
func TestPersistentSetProblemFlushes(t *testing.T) {
	pA, mA := persistProblem(t, 11)
	pB, mB := persistProblem(t, 12)
	cache, err := evalcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	ev := New(pA)
	ev.SetPersistent(cache)
	if _, err := ev.RedundancyOpt(mA); err != nil {
		t.Fatal(err)
	}
	ev.SetProblem(pB) // flushes A's entries
	if cache.Stats().Saves == 0 {
		t.Fatal("SetProblem did not flush the outgoing problem")
	}
	if _, err := ev.RedundancyOpt(mB); err != nil {
		t.Fatal(err)
	}
	ev.SetProblem(pA) // flushes B, loads A
	ev.ResetStats()
	if _, err := ev.RedundancyOpt(mA); err != nil {
		t.Fatal(err)
	}
	if s := ev.Stats(); s.ScheduleBuilds != 0 {
		t.Fatalf("returning to a flushed problem rebuilt %d schedules", s.ScheduleBuilds)
	}
}

// TestPersistedKeyFormat pins the on-disk key layout the hashed caches
// re-encode into: levels ++ mapping as big-endian 16-bit values, the
// layout of every cache file written so far. An entry written under that
// layout must seed the cache and be hit without a rebuild.
func TestPersistedKeyFormat(t *testing.T) {
	p, m := persistProblem(t, 11)
	levels := make([]int, len(p.Arch.Nodes))
	for j, n := range p.Arch.Nodes {
		levels[j] = n.MinLevel()
	}
	want := make([]byte, 0, 2*(len(levels)+len(m)))
	for _, v := range append(append([]int(nil), levels...), m...) {
		want = append(want, 0, byte(v))
	}
	ev := New(p)
	sol, err := ev.Evaluate(m, levels)
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotMap(ev.st.sols)
	if len(snap) != 1 || snap[string(want)] != sol {
		t.Fatalf("snapshot keys = %q, want the single key %q", keysOf(snap), want)
	}
	fresh := New(p)
	seed(fresh.st.sols, map[string]*redundancy.Solution{string(want): sol})
	if got, err := fresh.Evaluate(m, levels); err != nil || got != sol {
		t.Fatalf("seeded entry not hit: %v, %v", got, err)
	}
	if st := fresh.Stats(); st.ScheduleBuilds != 0 {
		t.Fatalf("seeded lookup rebuilt %d schedules", st.ScheduleBuilds)
	}
}

func keysOf(m map[string]*redundancy.Solution) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
