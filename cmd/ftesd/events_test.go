package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// TestDaemonEventJournalReplay: the daemon's durable event journal
// replays identically after a restart — the reopened log serves the same
// events, and the restarted daemon appends after them.
func TestDaemonEventJournalReplay(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "events.jsonl")
	events1, err := obs.OpenEventLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	reg1 := obs.NewRegistry()
	sched1, err := jobs.New(jobs.Options{Workers: 1, Dir: filepath.Join(dir, "state"), Metrics: reg1, Events: events1})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(newDaemon(sched1, reg1, nil, 0, events1, nil))
	_, sr := postJSON(t, srv1.URL+"/jobs", tinyFigBody)
	if st := pollDone(t, srv1.URL, sr.ID); st.State != jobs.StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	types := map[string]bool{}
	for _, ev := range events1.Events(0) {
		if ev.Job == sr.ID {
			types[ev.Type] = true
		}
	}
	for _, want := range []string{"job.submitted", "job.started", "job.done"} {
		if !types[want] {
			t.Errorf("event log lacks %s for job %s", want, sr.ID)
		}
	}
	before, err := json.Marshal(events1.Events(0))
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	if err := sched1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := events1.Close(); err != nil {
		t.Fatal(err)
	}

	events2, err := obs.OpenEventLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer events2.Close()
	after, err := json.Marshal(events2.Events(0))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("replayed event journal differs:\n%s\nwant:\n%s", after, before)
	}
	// The restarted daemon keeps appending past the replayed history.
	seqBefore := events2.Seq()
	events2.Emit("daemon.up", "", nil)
	if events2.Seq() != seqBefore+1 {
		t.Errorf("seq after replayed append = %d, want %d", events2.Seq(), seqBefore+1)
	}
}

// readSSEUntil reads SSE frames off the stream until an event of type
// want (matched against the data payload's "type") arrives, returning
// the types seen in order.
func readSSEUntil(t *testing.T, body *bufio.Reader, want string, deadline time.Duration) []string {
	t.Helper()
	var seen []string
	done := make(chan struct{})
	timer := time.AfterFunc(deadline, func() { close(done) })
	defer timer.Stop()
	for {
		select {
		case <-done:
			t.Fatalf("no %s event within %v; saw %v", want, deadline, seen)
		default:
		}
		line, err := body.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE stream ended early (saw %v): %v", seen, err)
		}
		if !strings.HasPrefix(line, "data:") {
			continue
		}
		var ev obs.LogEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data:")), &ev); err != nil {
			continue // progress frames and heartbeats are not LogEvents
		}
		if ev.Type == "" {
			continue
		}
		seen = append(seen, ev.Type)
		if ev.Type == want {
			return seen
		}
	}
}

// TestDaemonEventsSSE: the daemon streams lifecycle events over /events
// in submission order, the per-job endpoint filters to one job, and
// /timeseries serves the sampler's history.
func TestDaemonEventsSSE(t *testing.T) {
	events := obs.NewEventLog()
	defer events.Close()
	reg := obs.NewRegistry()
	sampler := obs.NewSampler(reg, 10*time.Millisecond, 0)
	sampler.Start()
	defer sampler.Stop()
	sched, err := jobs.New(jobs.Options{Workers: 1, Metrics: reg, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newDaemon(sched, reg, nil, 0, events, sampler))
	t.Cleanup(func() {
		srv.Close()
		sched.Close(context.Background())
	})

	_, sr := postJSON(t, srv.URL+"/jobs", tinyFigBody)
	if st := pollDone(t, srv.URL, sr.ID); st.State != jobs.StateDone {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}

	// Replay from the beginning over SSE: the job's lifecycle arrives in
	// order on both the fleet stream and the job-scoped one.
	for _, url := range []string{srv.URL + "/events?since=0", srv.URL + "/jobs/" + sr.ID + "/events?since=0"} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		req, _ := http.NewRequestWithContext(ctx, "GET", url, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
			t.Errorf("%s Content-Type = %q", url, ct)
		}
		seen := readSSEUntil(t, bufio.NewReader(resp.Body), "job.done", 20*time.Second)
		resp.Body.Close()
		cancel()
		idx := func(typ string) int {
			for i, s := range seen {
				if s == typ {
					return i
				}
			}
			return -1
		}
		sub, started, done := idx("job.submitted"), idx("job.started"), idx("job.done")
		if sub == -1 || started == -1 || done == -1 || !(sub < started && started < done) {
			t.Errorf("%s: lifecycle out of order: %v", url, seen)
		}
	}

	// The sampler has been ticking throughout; /timeseries serves ≥ 2
	// samples of the scheduler counters.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, data := get(t, srv.URL+"/timeseries")
		var ts obs.TimeSeries
		if err := json.Unmarshal(data, &ts); err != nil {
			t.Fatalf("/timeseries: %v: %s", err, data)
		}
		if len(ts.Samples) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/timeseries stuck at %d samples", len(ts.Samples))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestMetricsExportEventsDropped: events the replay ring evicts are
// counted on the daemon registry and exported as events_dropped_total.
func TestMetricsExportEventsDropped(t *testing.T) {
	events := obs.NewEventLog()
	defer events.Close()
	srv, _ := newTestServer(t, jobs.Options{Workers: 1, Events: events})

	const ring, extra = 4096, 7
	for i := 0; i < ring+extra; i++ {
		events.Emit("tick", "", nil)
	}
	code, prom := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	var dropped int64 = -1
	for _, line := range strings.Split(string(prom), "\n") {
		if v, ok := strings.CutPrefix(line, "events_dropped_total "); ok {
			if err := json.Unmarshal([]byte(v), &dropped); err != nil {
				t.Fatalf("events_dropped_total value %q: %v", v, err)
			}
		}
	}
	if want := events.Dropped(); dropped != want || want < extra {
		t.Errorf("events_dropped_total = %d, want %d (≥ %d):\n%s", dropped, want, extra, prom)
	}
}
