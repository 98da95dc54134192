package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/obs"
)

// eventTypes filters the log down to one job's event type sequence.
func eventTypes(log *obs.EventLog, job string) []string {
	var out []string
	for _, ev := range log.Events(0) {
		if ev.Job == job {
			out = append(out, ev.Type)
		}
	}
	return out
}

// durableEvents opens a durable event log under a fresh temp dir, closed
// when the test ends; a scheduler with Options.Dir needs one.
func durableEvents(t *testing.T) *obs.EventLog {
	t.Helper()
	log, err := obs.OpenEventLog(filepath.Join(t.TempDir(), "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	return log
}

// TestSchedulerEvents: a scheduler with an event log narrates every job's
// lifecycle — submitted, started, done in order — plus dedup and failure
// events, and the log survives a reopen with identical contents.
func TestSchedulerEvents(t *testing.T) {
	dir := t.TempDir()
	log, err := obs.OpenEventLog(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		if j.spec.Fig == "boom" {
			return nil, errors.New("synthetic failure")
		}
		return Artifacts{"out": []byte("ok")}, nil
	})
	s := newTestScheduler(t, Options{Workers: 1, Events: log})

	h := mustSubmit(t, s, testSpec("good"), SubmitOptions{})
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A resubmission of the finished spec dedups without re-running.
	mustSubmit(t, s, testSpec("good"), SubmitOptions{})

	hb := mustSubmit(t, s, testSpec("boom"), SubmitOptions{})
	if _, err := hb.Wait(context.Background()); err == nil {
		t.Fatal("boom job succeeded")
	}

	got := eventTypes(log, h.ID())
	want := []string{"job.submitted", "job.started", "job.done", "job.dedup"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("good job events = %v, want %v", got, want)
	}
	gotB := eventTypes(log, hb.ID())
	wantB := []string{"job.submitted", "job.started", "job.failed"}
	if fmt.Sprint(gotB) != fmt.Sprint(wantB) {
		t.Errorf("failed job events = %v, want %v", gotB, wantB)
	}

	// The journal replays identically after a close/reopen cycle.
	before, err := json.Marshal(log.Events(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := obs.OpenEventLog(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	after, err := json.Marshal(reopened.Events(0))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Errorf("reopened event log differs:\n%s\nwant:\n%s", after, before)
	}
}

// TestPanicEvent: a panicking job emits panic.recovered with the
// recovered value before its terminal job.failed event.
func TestPanicEvent(t *testing.T) {
	log := obs.NewEventLog()
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		panic("kaboom")
	})
	s := newTestScheduler(t, Options{Workers: 1, Events: log})
	h := mustSubmit(t, s, testSpec("panics"), SubmitOptions{})
	if _, err := h.Wait(context.Background()); err == nil {
		t.Fatal("panicking job succeeded")
	}
	var sawPanic bool
	for _, ev := range log.Events(0) {
		if ev.Job == h.ID() && ev.Type == "panic.recovered" {
			sawPanic = true
			if ev.Fields["value"] != "kaboom" {
				t.Errorf("panic value = %v, want kaboom", ev.Fields["value"])
			}
		}
	}
	if !sawPanic {
		t.Errorf("no panic.recovered event; got %v", eventTypes(log, h.ID()))
	}
}

// traceSpanID normalizes a span/parent id from a parsed trace, where JSON
// round-tripping turns int64 into float64.
func traceSpanID(v any) (int64, bool) {
	switch n := v.(type) {
	case int64:
		return n, true
	case float64:
		return int64(n), true
	}
	return 0, false
}

// TestShardedSweepMergedTrace: a 2-shard sweep produces the merged
// ArtifactTrace — one Chrome trace holding the coordinator's sweep span
// plus every worker's spans in separate process lanes, with every worker
// root reconnected to the sweep span across the process boundary.
func TestShardedSweepMergedTrace(t *testing.T) {
	log := durableEvents(t)
	s := newTestScheduler(t, Options{Workers: 2, Dir: t.TempDir(), Events: log})
	h, err := s.SubmitSharded(tinyFigSpec(), 2, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	art, err := h.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	data := art[ArtifactTrace]
	if len(data) == 0 {
		t.Fatal("sweep produced no merged trace artifact")
	}
	var doc struct {
		TraceEvents []obs.Event `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}

	// Three process lanes: the coordinator plus one per worker, each
	// announced by a process_name metadata event.
	lanes := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			name, _ := ev.Args["name"].(string)
			lanes[ev.PID] = name
		}
	}
	if len(lanes) != 3 {
		t.Fatalf("merged trace has %d process lanes (%v), want 3", len(lanes), lanes)
	}
	coordPID := -1
	for pid, name := range lanes {
		if name == "coordinator" {
			coordPID = pid
		}
	}
	if coordPID == -1 {
		t.Fatalf("no coordinator lane in %v", lanes)
	}

	// The sweep span exists exactly once; every span id is globally
	// unique; no unresolved cross-process references survive the merge.
	spanIDs := map[int64]bool{}
	var sweepID int64
	workerRoots := map[int]int64{} // pid → parent of its fig.6a root span
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		id, ok := traceSpanID(ev.Args["span_id"])
		if !ok {
			t.Fatalf("span %q has no span_id", ev.Name)
		}
		if spanIDs[id] {
			t.Errorf("span id %d appears twice", id)
		}
		spanIDs[id] = true
		if _, ok := ev.Args["parent_ref"]; ok {
			t.Errorf("span %q kept an unresolved parent_ref", ev.Name)
		}
		switch ev.Name {
		case "sweep.6a":
			sweepID = id
		case "fig.6a":
			// The coordinator renders the merge through its own fig.6a
			// span; only worker-lane roots cross a process boundary.
			if ev.PID == coordPID {
				break
			}
			if p, ok := traceSpanID(ev.Args["parent_id"]); ok {
				workerRoots[ev.PID] = p
			} else {
				t.Errorf("worker root in pid %d has no parent", ev.PID)
			}
		}
	}
	if sweepID == 0 {
		t.Fatal("merged trace has no sweep.6a span")
	}
	if len(workerRoots) != 2 {
		t.Fatalf("found %d worker fig.6a roots, want 2", len(workerRoots))
	}
	for pid, parent := range workerRoots {
		if parent != sweepID {
			t.Errorf("worker pid %d root parent = %d, want sweep span %d", pid, parent, sweepID)
		}
	}

	// Every parent_id must reference a span present in the merged trace.
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if p, ok := traceSpanID(ev.Args["parent_id"]); ok && !spanIDs[p] {
			t.Errorf("span %q parent %d not in trace", ev.Name, p)
		}
	}

	// The sweep's lifecycle narration bookends the merge.
	types := eventTypes(log, h.ID())
	var sawSubmitted, sawMerged bool
	for i, typ := range types {
		switch typ {
		case "sweep.submitted":
			sawSubmitted = true
		case "sweep.merged":
			sawMerged = true
			if !sawSubmitted {
				t.Errorf("sweep.merged at %d before sweep.submitted: %v", i, types)
			}
		}
	}
	if !sawSubmitted || !sawMerged {
		t.Errorf("sweep events missing submitted/merged: %v", types)
	}
}
