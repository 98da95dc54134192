package evalengine

import (
	"repro/internal/appmodel"
	"repro/internal/evalcache"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/runstate"
	"repro/internal/sched"
	"repro/internal/sfp"
	"repro/internal/ttp"
)

// persistFormat versions the persistent cache key layout. It is folded
// into the problem fingerprint, so bumping it orphans entries written
// under an incompatible key scheme instead of misreading them.
const persistFormat = 1

// busFingerprint reduces a bus to the parameters that determine its
// message timing. The in-memory caches compare buses by pointer (a fresh
// bus is a fresh problem), but across processes only behavior matters: a
// TDMA bus is its slot geometry, the instantaneous and absent buses carry
// no state at all. Unknown bus implementations return ok=false, which
// disables persistence for the problem rather than guessing at key
// equivalence.
func busFingerprint(b sched.Bus) (kind string, slot, round float64, ok bool) {
	switch bus := b.(type) {
	case nil:
		return "none", 0, 0, true
	case *ttp.Bus:
		return "ttp", bus.SlotLen(), bus.RoundLen(), true
	case ttp.InstantBus:
		return "instant", 0, 0, true
	default:
		return "", 0, 0, false
	}
}

// problemFingerprint derives the content address the problem's memoized
// solutions are persisted under: every input of the evaluation pipeline
// other than the per-call (levels, mapping) key. Two processes that
// construct equal problems — same application content, node types with
// their h-versions, reliability goal, bus behavior, slack model,
// re-execution cap and fixed levels — share one cache file. ok=false
// means the problem cannot be fingerprinted (unknown bus type, missing
// pieces) and must not be persisted.
func problemFingerprint(p redundancy.Problem) (string, bool) {
	if p.App == nil || p.Arch == nil {
		return "", false
	}
	kind, slot, round, ok := busFingerprint(p.Bus)
	if !ok {
		return "", false
	}
	v := struct {
		Format      int
		App         *appmodel.Application
		Nodes       []*platform.Node
		Goal        sfp.Goal
		BusKind     string
		BusSlot     float64
		BusRound    float64
		MaxK        int
		Model       int
		FixedLevels []int
	}{persistFormat, p.App, p.Arch.Nodes, p.Goal, kind, slot, round, p.MaxK, int(p.Model), p.FixedLevels}
	fp, err := runstate.Fingerprint(v)
	if err != nil {
		return "", false
	}
	return fp, true
}

// appendKey encodes a stored key as fixed-width big-endian 16-bit values —
// the key format of the persisted cache files.
func appendKey(dst []byte, key []uint16) []byte {
	for _, v := range key {
		dst = append(dst, byte(v>>8), byte(v))
	}
	return dst
}

// decodeKey is the inverse of appendKey; ok is false for a key of odd
// length, which no appendKey output has.
func decodeKey(s string) (key []uint16, ok bool) {
	if len(s)%2 != 0 {
		return nil, false
	}
	key = make([]uint16, len(s)/2)
	for i := range key {
		key[i] = uint16(s[2*i])<<8 | uint16(s[2*i+1])
	}
	return key, true
}

// snapshotMap copies the cache's entries into a plain map for
// serialization, re-encoding each stored key with appendKey: the
// in-memory caches key by hash, the files by the encoded ints, so the
// file format is unchanged and files from either layout load into both.
func snapshotMap(c *solCache) map[string]*redundancy.Solution {
	out := make(map[string]*redundancy.Solution, c.size())
	var buf []byte
	c.each(func(key []uint16, sol *redundancy.Solution) {
		buf = appendKey(buf[:0], key)
		out[string(buf)] = sol
	})
	return out
}

// seed inserts previously persisted entries under the usual cache cap —
// the disk file may accumulate more history than the in-memory backstop
// admits, and the overflow displaces residents without being counted as
// run evictions. A key that does not decode is skipped like any other
// damaged entry.
func seed(c *solCache, m map[string]*redundancy.Solution) {
	for k, sol := range m {
		key, ok := decodeKey(k)
		if !ok {
			continue
		}
		h := hashInts(hashSeed, key)
		c.put(h, key, sol)
	}
}

// setPersistent installs (or removes, with nil) the disk cache, flushing
// whatever the previous one was owed and seeding the in-memory caches
// from the new one's entry for fp.
func (st *store) setPersistent(c *evalcache.Cache, fp string) {
	st.flushPersistent()
	st.persist = c
	st.loadPersistent(fp)
}

// loadPersistent points the store at fingerprint fp and seeds the
// solution caches from its on-disk entry, if any. A corrupt or absent
// entry is simply a cold start.
func (st *store) loadPersistent(fp string) {
	st.persistFP = fp
	st.persistSeeded = 0
	if st.persist == nil || fp == "" {
		return
	}
	e, ok := st.persist.Load(fp)
	if !ok {
		return
	}
	seed(st.sols, e.Sols)
	seed(st.opts, e.Opts)
	st.persistSeeded = len(e.Sols) + len(e.Opts)
}

// flushPersistent writes the current solution caches to disk under the
// store's fingerprint. It is a no-op without a disk cache, without a
// fingerprint, or when no entries were added since the load — so calling
// it defensively (problem changes, run teardown) costs nothing on warm
// runs that computed nothing new.
func (st *store) flushPersistent() error {
	if st.persist == nil || st.persistFP == "" {
		return nil
	}
	sols := snapshotMap(st.sols)
	opts := snapshotMap(st.opts)
	total := len(sols) + len(opts)
	if total <= st.persistSeeded {
		return nil
	}
	if err := st.persist.Save(st.persistFP, &evalcache.Entry{Sols: sols, Opts: opts}); err != nil {
		return err
	}
	st.persistSeeded = total
	return nil
}

// SetPersistent installs (or removes, with nil) the disk-backed cache the
// evaluator's solution caches are loaded from and flushed to. Installing
// it immediately seeds the in-memory caches with whatever a previous
// process persisted for the current problem; from then on SetProblem
// flushes the outgoing problem's entries and loads the incoming one's.
// Call FlushPersistent (or SetProblem away) to persist the final
// problem's work.
//
// Like the caches themselves, persistence is invisible to results: disk
// entries are deterministic values of the fingerprinted problem, and a
// missing, stale or damaged file only costs recomputation.
func (e *Evaluator) SetPersistent(c *evalcache.Cache) {
	fp := ""
	if c != nil {
		fp, _ = problemFingerprint(e.prob)
	}
	e.st.setPersistent(c, fp)
}

// FlushPersistent writes entries computed since the last load to the disk
// cache. No-op without SetPersistent.
func (e *Evaluator) FlushPersistent() error { return e.st.flushPersistent() }
