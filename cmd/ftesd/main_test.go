package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/specio"
	"repro/internal/taskgen"
)

// newTestServer stands up an in-process daemon over a fresh scheduler.
func newTestServer(t *testing.T, o jobs.Options) (*httptest.Server, *jobs.Scheduler) {
	t.Helper()
	reg := o.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
		o.Metrics = reg
	}
	sched, err := jobs.New(o)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newDaemon(sched, reg, nil, 0, o.Events, nil))
	t.Cleanup(func() {
		srv.Close()
		sched.Close(context.Background())
	})
	return srv, sched
}

func postJSON(t *testing.T, url, body string) (int, submitResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatalf("submit response %q: %v", data, err)
		}
	}
	return resp.StatusCode, sr
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, data
}

// pollDone polls a job's status until it reaches a terminal state.
func pollDone(t *testing.T, base, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, data := get(t, base+"/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d: %s", id, code, data)
		}
		var st jobs.Status
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case jobs.StateDone, jobs.StateFailed, jobs.StateCanceled, jobs.StateInterrupted:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

const tinyFigBody = `{"kind":"figure","fig":"6a","apps":2,"procs":[20],"seed":3}`

// TestSubmitFigure: a figure job submitted over HTTP produces the
// rendered table artifact, per-job introspection serves that run's own
// counters, and the daemon-level metrics expose the scheduler's queue.
func TestSubmitFigure(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{Workers: 1})

	code, sr := postJSON(t, srv.URL+"/jobs", tinyFigBody)
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d", code)
	}
	if sr.Dedup {
		t.Error("first submission reported dedup")
	}
	st := pollDone(t, srv.URL, sr.ID)
	if st.State != jobs.StateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}

	code, table := get(t, srv.URL+"/jobs/"+sr.ID+"/artifacts/table.txt")
	if code != http.StatusOK || !bytes.Contains(table, []byte("Fig. 6a")) {
		t.Errorf("artifact (%d):\n%s", code, table)
	}

	code, prom := get(t, srv.URL+"/jobs/"+sr.ID+"/metrics")
	if code != http.StatusOK || !bytes.Contains(prom, []byte("core_archs_explored_total")) {
		t.Errorf("per-job metrics (%d) missing core counters:\n%.400s", code, prom)
	}
	code, prom = get(t, srv.URL+"/metrics")
	if code != http.StatusOK ||
		!bytes.Contains(prom, []byte("jobs_completed_total")) ||
		!bytes.Contains(prom, []byte("jobs_queue_depth")) {
		t.Errorf("daemon metrics (%d) missing scheduler instruments:\n%.400s", code, prom)
	}

	code, listing := get(t, srv.URL+"/jobs")
	if code != http.StatusOK || !bytes.Contains(listing, []byte(sr.ID)) {
		t.Errorf("GET /jobs (%d):\n%s", code, listing)
	}
}

// TestDedup: the same envelope twice returns the same id, flagged dedup.
func TestDedup(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{Workers: 1})
	_, first := postJSON(t, srv.URL+"/jobs", tinyFigBody)
	_, second := postJSON(t, srv.URL+"/jobs", tinyFigBody)
	if first.ID != second.ID {
		t.Errorf("ids differ: %s vs %s", first.ID, second.ID)
	}
	if !second.Dedup {
		t.Error("second submission not flagged dedup")
	}
}

// TestBareSpecioDesign: POSTing a bare specio problem document (no
// envelope) runs it as a design job with text and JSON result artifacts.
func TestBareSpecioDesign(t *testing.T) {
	inst, err := taskgen.Generate(taskgen.DefaultConfig(3, 10, 1e-11, 25))
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := specio.Write(&doc, &specio.Spec{Application: inst.App, Platform: inst.Platform,
		Gamma: inst.Goal.Gamma, TauMs: inst.Goal.Tau}); err != nil {
		t.Fatal(err)
	}

	srv, _ := newTestServer(t, jobs.Options{Workers: 1})
	code, sr := postJSON(t, srv.URL+"/jobs", doc.String())
	if code != http.StatusAccepted {
		t.Fatalf("POST bare specio = %d", code)
	}
	st := pollDone(t, srv.URL, sr.ID)
	if st.State != jobs.StateDone {
		t.Fatalf("state = %s (%s)", st.State, st.Error)
	}
	_, text := get(t, srv.URL+"/jobs/"+sr.ID+"/artifacts/result.txt")
	if !bytes.Contains(text, []byte("strategy:    OPT")) {
		t.Errorf("result.txt:\n%s", text)
	}
	_, js := get(t, srv.URL+"/jobs/"+sr.ID+"/artifacts/result.json")
	var rec map[string]any
	if err := json.Unmarshal(js, &rec); err != nil {
		t.Fatalf("result.json not JSON: %v\n%s", err, js)
	}
	if _, ok := rec["feasible"]; !ok {
		t.Errorf("result.json has no feasible field:\n%s", js)
	}
}

// TestCancel: DELETE cancels a job cooperatively; its terminal state is
// canceled and further artifacts reads say so.
func TestCancel(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{Workers: 1})
	// A deliberately heavy sweep so the cancel lands while work remains.
	_, sr := postJSON(t, srv.URL+"/jobs", `{"kind":"figure","fig":"6b","apps":6,"procs":[20,40],"seed":1}`)
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+sr.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d", resp.StatusCode)
	}
	st := pollDone(t, srv.URL, sr.ID)
	if st.State != jobs.StateCanceled {
		t.Errorf("state after DELETE = %s, want canceled", st.State)
	}
}

// TestSubmitErrors: malformed bodies and unknown jobs get 4xx JSON errors.
func TestSubmitErrors(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{Workers: 1})
	for _, body := range []string{
		"not json",
		`{"fig":"6a"}`,                       // neither envelope nor specio
		`{"kind":"figure","fig":"6z"}`,       // unknown figure
		`{"kind":"design"}`,                  // no document
		`{"kind":"figure","fig":"6a","x":1}`, // unknown envelope field
	} {
		code, _ := postJSON(t, srv.URL+"/jobs", body)
		if code != http.StatusBadRequest {
			t.Errorf("POST %q = %d, want 400", body, code)
		}
	}
	// run_workers, which older clients sent to parallelize inside each
	// design run, is an unknown field now: refused by name, never ignored.
	resp, err := http.Post(srv.URL+"/jobs", "application/json",
		strings.NewReader(`{"kind":"figure","fig":"cc","run_workers":4}`))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(msg, []byte(`run_workers`)) {
		t.Errorf("POST with run_workers = %d %s, want 400 naming the field", resp.StatusCode, msg)
	}
	if code, _ := get(t, srv.URL+"/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("GET unknown job = %d, want 404", code)
	}
	if code, _ := get(t, srv.URL+"/jobs/nope/artifacts/table.txt"); code != http.StatusNotFound {
		t.Errorf("GET unknown artifact = %d, want 404", code)
	}
	if code, _ := get(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("GET /healthz = %d", code)
	}
}

// TestRestartResume: a daemon torn down mid-job comes back over the same
// state directory, resumes the in-flight job, and serves an artifact
// byte-identical to an uninterrupted run's.
func TestRestartResume(t *testing.T) {
	// Clean reference artifact.
	cleanSrv, _ := newTestServer(t, jobs.Options{Workers: 1})
	_, cr := postJSON(t, cleanSrv.URL+"/jobs", tinyFigBody)
	if st := pollDone(t, cleanSrv.URL, cr.ID); st.State != jobs.StateDone {
		t.Fatalf("clean run: %s (%s)", st.State, st.Error)
	}
	_, want := get(t, cleanSrv.URL+"/jobs/"+cr.ID+"/artifacts/table.txt")

	dir := t.TempDir()
	reg1 := obs.NewRegistry()
	sched1, err := jobs.New(jobs.Options{Workers: 1, Dir: dir, Metrics: reg1})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(newDaemon(sched1, reg1, nil, 0, nil, nil))
	_, sr := postJSON(t, srv1.URL+"/jobs", tinyFigBody)
	// "Crash": tear the daemon down while the job runs. Close cancels the
	// run cooperatively; the completion is never journaled, so the job is
	// still in-flight on the next start.
	srv1.Close()
	if err := sched1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv2, sched2 := newTestServer(t, jobs.Options{Workers: 1, Dir: dir})
	if sched2.Resumed() != 1 {
		// The job may have finished before Close landed; then there is
		// nothing to resume and the journaled result must still match.
		code, data := get(t, srv2.URL+"/jobs/"+sr.ID)
		if code != http.StatusOK {
			t.Fatalf("job lost across restart: %d %s", code, data)
		}
	}
	st := pollDone(t, srv2.URL, sr.ID)
	if st.State != jobs.StateDone {
		t.Fatalf("resumed job: %s (%s)", st.State, st.Error)
	}
	_, got := get(t, srv2.URL+"/jobs/"+sr.ID+"/artifacts/table.txt")
	if !bytes.Equal(got, want) {
		t.Errorf("resumed artifact differs from clean run:\n%s\nwant:\n%s", got, want)
	}
}

// TestEnvelopeTimeout: a submission's timeout_ms bounds the run; the
// expired job reports failed with a deadline error.
func TestEnvelopeTimeout(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{Workers: 1})
	_, sr := postJSON(t, srv.URL+"/jobs", `{"kind":"figure","fig":"6b","apps":6,"procs":[20,40],"timeout_ms":1}`)
	st := pollDone(t, srv.URL, sr.ID)
	if st.State != jobs.StateFailed || !strings.Contains(st.Error, "deadline") {
		t.Errorf("state = %s, err = %q; want failed with deadline error", st.State, st.Error)
	}
}

// pollSweepDone polls a sweep's aggregate status until it leaves running.
func pollSweepDone(t *testing.T, base, id string) sweepInfo {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		code, data := get(t, base+"/sweeps/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /sweeps/%s = %d: %s", id, code, data)
		}
		var info sweepInfo
		if err := json.Unmarshal(data, &info); err != nil {
			t.Fatal(err)
		}
		if info.State != jobs.StateRunning {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck running: %+v", id, info)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestShardedSweep: a figure submitted with "shards":2 on a durable daemon
// fans out, merges, and serves a table byte-identical to the unsharded
// job's; resubmitting the sweep joins it.
func TestShardedSweep(t *testing.T) {
	cleanSrv, _ := newTestServer(t, jobs.Options{Workers: 1})
	_, cr := postJSON(t, cleanSrv.URL+"/jobs", tinyFigBody)
	if st := pollDone(t, cleanSrv.URL, cr.ID); st.State != jobs.StateDone {
		t.Fatalf("clean run: %s (%s)", st.State, st.Error)
	}
	_, want := get(t, cleanSrv.URL+"/jobs/"+cr.ID+"/artifacts/table.txt")

	srv, _ := newTestServer(t, jobs.Options{Workers: 2, Dir: t.TempDir()})
	body := `{"kind":"figure","fig":"6a","apps":2,"procs":[20],"seed":3,"shards":2}`
	code, sr := postJSON(t, srv.URL+"/jobs", body)
	if code != http.StatusAccepted || sr.Shards != 2 {
		t.Fatalf("POST sharded = %d, shards = %d", code, sr.Shards)
	}
	info := pollSweepDone(t, srv.URL, sr.ID)
	if info.State != jobs.StateDone {
		t.Fatalf("sweep state = %s (%s)", info.State, info.Error)
	}
	if info.Shards != 2 || len(info.Jobs) != 2 || info.Fig != "6a" {
		t.Errorf("sweep info = %+v", info)
	}
	for _, st := range info.Jobs {
		if st.State != jobs.StateDone {
			t.Errorf("shard job %s state = %s", st.ID, st.State)
		}
	}

	code, got := get(t, srv.URL+"/sweeps/"+sr.ID+"/artifacts/table.txt")
	if code != http.StatusOK {
		t.Fatalf("sweep artifact = %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("sharded sweep table differs from unsharded job:\n%s\nwant:\n%s", got, want)
	}

	code, listing := get(t, srv.URL+"/sweeps")
	if code != http.StatusOK || !bytes.Contains(listing, []byte(sr.ID)) {
		t.Errorf("GET /sweeps (%d):\n%s", code, listing)
	}

	code, again := postJSON(t, srv.URL+"/jobs", body)
	if code != http.StatusAccepted || !again.Dedup || again.ID != sr.ID {
		t.Errorf("resubmitted sweep: code=%d dedup=%v id=%s (want dedup join of %s)",
			code, again.Dedup, again.ID, sr.ID)
	}
}

// TestShardedSweepErrors: sweep submissions that cannot work are 400s with
// the reason, and unknown sweeps are 404s.
func TestShardedSweepErrors(t *testing.T) {
	mem, _ := newTestServer(t, jobs.Options{Workers: 1})
	code, _ := postJSON(t, mem.URL+"/jobs", `{"kind":"figure","fig":"6a","shards":2}`)
	if code != http.StatusBadRequest {
		t.Errorf("sharded sweep on a stateless daemon = %d, want 400", code)
	}

	srv, _ := newTestServer(t, jobs.Options{Workers: 1, Dir: t.TempDir()})
	code, _ = postJSON(t, srv.URL+"/jobs", `{"kind":"figure","fig":"cc","shards":2}`)
	if code != http.StatusBadRequest {
		t.Errorf("non-shardable sharded figure = %d, want 400", code)
	}
	if code, _ := get(t, srv.URL+"/sweeps/nope"); code != http.StatusNotFound {
		t.Errorf("GET unknown sweep = %d, want 404", code)
	}
	if code, _ := get(t, srv.URL+"/sweeps/nope/artifacts/table.txt"); code != http.StatusNotFound {
		t.Errorf("GET unknown sweep artifact = %d, want 404", code)
	}
}
