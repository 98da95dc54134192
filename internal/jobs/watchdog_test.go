package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/faultject"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/runstate"
	"repro/internal/shard"
)

// plantStaleLease writes a lease file for one slice as if another process
// heartbeat it once and then died: the payload carries the given PID and
// the file's mtime is backdated far past any staleness threshold.
func plantStaleLease(t *testing.T, dir string, index, shards, pid int) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(shard.LeaseInfo{PID: pid, Index: index, Shards: shards, Attempt: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, shard.LeaseName(index, shards))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Minute)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
}

// eventsOf returns the log's events of one type, in order.
func eventsOf(events *obs.EventLog, typ string) []obs.LogEvent {
	var out []obs.LogEvent
	for _, ev := range events.Events(0) {
		if ev.Type == typ {
			out = append(out, ev)
		}
	}
	return out
}

// TestWatchdogResubmitsStaleSlice: a slice that fails while its lease file
// is stale and owned by a dead foreign process is resubmitted by the sweep
// watchdog, and the healed sweep still merges byte-identical to a clean
// unsharded run. The failure is injected at the shard.manifest failpoint
// (one ENOSPC, first slice to run), so only slice 0 ever dies.
func TestWatchdogResubmitsStaleSlice(t *testing.T) {
	clean := newTestScheduler(t, Options{Workers: 1})
	want, err := mustSubmit(t, clean, tinyFigSpec(), SubmitOptions{}).Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	events := durableEvents(t)
	s := newTestScheduler(t, Options{Workers: 1, Dir: t.TempDir(), Events: events})
	dir, err := s.sweepDir(tinyFigSpec())
	if err != nil {
		t.Fatal(err)
	}
	// The dead worker: a stale lease from a PID that is not ours.
	plantStaleLease(t, dir, 0, 3, os.Getpid()+1)
	if err := faultject.Arm("shard.manifest=enospc:times=1"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultject.Reset)

	h, err := s.SubmitSharded(tinyFigSpec(), 3, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.Wait(context.Background())
	if err != nil {
		t.Fatalf("healed sweep failed: %v", err)
	}
	if !bytes.Equal(got[ArtifactTable], want[ArtifactTable]) {
		t.Errorf("healed table differs from clean run:\n%s\nwant:\n%s",
			got[ArtifactTable], want[ArtifactTable])
	}

	// Guard against a vacuous pass: the original slice 0 job really died.
	if _, err := h.Shards()[0].Wait(nil); err == nil {
		t.Fatal("slice 0 never failed — the failpoint did not fire")
	}
	stale := eventsOf(events, "watchdog.stale")
	if len(stale) != 1 || fmt.Sprint(stale[0].Fields["shard"]) != "0" {
		t.Errorf("watchdog.stale events = %+v, want exactly one for shard 0", stale)
	}
	resub := eventsOf(events, "sweep.resubmitted")
	if len(resub) != 1 || fmt.Sprint(resub[0].Fields["shard"]) != "0" {
		t.Errorf("sweep.resubmitted events = %+v, want exactly one for shard 0", resub)
	}
	// The dead worker's lease was reaped (the replacement's own lease is
	// released on completion), so nothing stale remains in the sweep dir.
	if _, err := os.Stat(filepath.Join(dir, shard.LeaseName(0, 3))); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("stale lease still present after heal: %v", err)
	}
}

// TestWatchdogSingleRevival: the watchdog's revival of a quarantined slice
// goes through Retry (budget re-opened, attempts monotonic), and one stale
// lease justifies exactly one resubmission — when the revived slice fails
// again the error stands and the sweep fails loudly instead of looping.
func TestWatchdogSingleRevival(t *testing.T) {
	events := durableEvents(t)
	s := newTestScheduler(t, Options{
		Workers: 1, Dir: t.TempDir(), Events: events,
		Retry: &retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
	})
	dir, err := s.sweepDir(tinyFigSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Poison slice 0 permanently: a journal already bound to a different
	// fingerprint makes every attempt fail at open, a permanent error.
	j, err := runstate.Open(filepath.Join(dir, shard.JournalName(0, 3)), "not-this-sweeps-fingerprint", true)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	plantStaleLease(t, dir, 0, 3, os.Getpid()+1)

	h, err := s.SubmitSharded(tinyFigSpec(), 3, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, werr := h.Wait(context.Background())
	if werr == nil {
		t.Fatal("sweep with a permanently poisoned slice succeeded")
	}
	if !strings.Contains(werr.Error(), "shard 0/3") {
		t.Errorf("sweep error does not name shard 0: %v", werr)
	}
	if strings.Contains(werr.Error(), "shard 1/3") || strings.Contains(werr.Error(), "shard 2/3") {
		t.Errorf("healthy slices dragged into the sweep error: %v", werr)
	}

	// The watchdog revived the quarantined slice exactly once (Retry path:
	// same job, monotonic attempt count), then let the second quarantine
	// stand because the stale lease was already reaped.
	if n := len(eventsOf(events, "sweep.resubmitted")); n != 1 {
		t.Fatalf("sweep.resubmitted fired %d times, want exactly 1", n)
	}
	// The revival went through Retry: same job identity, fresh incarnation
	// (look it up by ID — the pre-revival handle is a stale snapshot).
	hz, ok := s.Get(h.Shards()[0].ID())
	if !ok {
		t.Fatal("poisoned slice vanished from the scheduler")
	}
	st := hz.Status()
	if st.State != StateQuarantined {
		t.Errorf("poisoned slice state = %s, want %s", st.State, StateQuarantined)
	}
	if st.Attempts != 2 {
		t.Errorf("poisoned slice attempts = %d, want 2 (original + one revival)", st.Attempts)
	}
}

// TestWatchdogIgnoresOwnLease: a stale lease carrying our own PID means
// the worker is this very process — the watchdog must not resubmit (the
// scheduler's retry budget already governs in-process failures), so the
// slice's failure stands.
func TestWatchdogIgnoresOwnLease(t *testing.T) {
	events := durableEvents(t)
	s := newTestScheduler(t, Options{Workers: 1, Dir: t.TempDir(), Events: events})
	dir, err := s.sweepDir(tinyFigSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	j, err := runstate.Open(filepath.Join(dir, shard.JournalName(1, 3)), "not-this-sweeps-fingerprint", true)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	plantStaleLease(t, dir, 1, 3, os.Getpid())

	h, err := s.SubmitSharded(tinyFigSpec(), 3, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err == nil {
		t.Fatal("sweep with a poisoned slice and our own lease succeeded")
	}
	if n := len(eventsOf(events, "sweep.resubmitted")); n != 0 {
		t.Errorf("watchdog resubmitted %d slices under our own live PID, want 0", n)
	}
}

// TestMergeShardsPartialArtifact: the library-level degraded merge — with
// one journal gone, strict MergeShards refuses while Partial returns a
// table with "!" cells plus the ArtifactIncomplete gap report.
func TestMergeShardsPartialArtifact(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: 2, Dir: t.TempDir()})
	h, err := s.SubmitSharded(tinyFigSpec(), 3, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Complete sweep: Partial is a no-op and the report says complete.
	art, err := MergeShards(context.Background(), tinyFigSpec(), h.Dir(), Instruments{}, Partial)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Complete bool `json:"complete"`
		Missing  []struct {
			Key   string `json:"key"`
			Shard int    `json:"shard"`
		} `json:"missing_rows"`
	}
	if err := json.Unmarshal(art[ArtifactIncomplete], &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || len(rep.Missing) != 0 {
		t.Errorf("complete sweep report = %+v", rep)
	}

	// Shard 0 owns rows in this workload; losing its journal degrades.
	if err := os.Remove(filepath.Join(h.Dir(), shard.JournalName(0, 3))); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards(context.Background(), tinyFigSpec(), h.Dir(), Instruments{}); err == nil ||
		!strings.Contains(err.Error(), "merge refused") {
		t.Errorf("strict merge of gapped sweep: %v, want refusal", err)
	}
	art, err = MergeShards(context.Background(), tinyFigSpec(), h.Dir(), Instruments{}, Partial)
	if err != nil {
		t.Fatalf("partial merge of gapped sweep: %v", err)
	}
	if !bytes.Contains(art[ArtifactTable], []byte("!")) {
		t.Errorf("degraded table has no ! cells:\n%s", art[ArtifactTable])
	}
	if err := json.Unmarshal(art[ArtifactIncomplete], &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Complete || len(rep.Missing) == 0 {
		t.Errorf("gapped sweep report = %+v", rep)
	}
	for _, m := range rep.Missing {
		if m.Shard != 0 {
			t.Errorf("missing row %q attributed to shard %d, want 0", m.Key, m.Shard)
		}
	}
}
