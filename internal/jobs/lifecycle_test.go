package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/runctl"
	"repro/internal/runstate"
)

// TestResubmitAfterFailureSurvivesRestart: a spec that failed (or was
// canceled) and then succeeded on resubmission restores as done, with the
// rerun's artifacts, after a restart — the latest submission's outcome,
// not the first one's.
func TestResubmitAfterFailureSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	var rerun atomic.Bool
	blockerStarted := make(chan struct{})
	releaseBlocker := make(chan struct{})
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		switch {
		case j.spec.Fig == "blocker":
			close(blockerStarted)
			<-releaseBlocker
		case !rerun.Load():
			return nil, errors.New("first run fails")
		}
		return Artifacts{"out": []byte("rerun of " + j.spec.Fig)}, nil
	})

	s1, err := New(Options{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	failed := mustSubmit(t, s1, testSpec("fails"), SubmitOptions{})
	if _, err := failed.Wait(context.Background()); err == nil {
		t.Fatal("first run succeeded")
	}
	// A job canceled while queued behind a busy worker.
	blocker := mustSubmit(t, s1, testSpec("blocker"), SubmitOptions{})
	<-blockerStarted
	canceled := mustSubmit(t, s1, testSpec("canceled"), SubmitOptions{})
	if !s1.Cancel(canceled.ID()) {
		t.Fatal("Cancel of a queued job found nothing")
	}
	close(releaseBlocker)
	if _, err := blocker.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	rerun.Store(true)
	for _, label := range []string{"fails", "canceled"} {
		h := mustSubmit(t, s1, testSpec(label), SubmitOptions{})
		if art, err := h.Wait(context.Background()); err != nil || string(art["out"]) != "rerun of "+label {
			t.Fatalf("%s resubmission: %v, artifact %q", label, err, art["out"])
		}
	}
	if err := s1.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	s2 := newTestScheduler(t, Options{Workers: 1, Dir: dir})
	for _, label := range []string{"fails", "canceled"} {
		id, _ := testSpec(label).Fingerprint()
		h, ok := s2.Get(id)
		if !ok {
			t.Fatalf("%s lost across restart", label)
		}
		if st := h.Status(); st.State != StateDone || st.Error != "" {
			t.Errorf("%s after restart state = %s (%s), want done", label, st.State, st.Error)
		}
		art, err := h.Wait(context.Background())
		if err != nil || string(art["out"]) != "rerun of "+label {
			t.Errorf("%s after restart: %v, artifact %q, want the rerun's", label, err, art["out"])
		}
	}
}

// TestNewRefusesMisconfiguredStateDir: a state dir that still holds the
// state.jsonl of the earlier two-journal layout is refused by name rather
// than silently dropping the jobs it records, and so is a memory-only
// event log paired with a state dir (nothing would survive a restart).
func TestNewRefusesMisconfiguredStateDir(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "state.jsonl")
	if err := os.WriteFile(legacy, []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Dir: dir}); err == nil || !strings.Contains(err.Error(), legacy) || !strings.Contains(err.Error(), "layout") {
		t.Errorf("New over a legacy state dir = %v, want an error naming %s and the layout change", err, legacy)
	}
	if _, err := New(Options{Dir: t.TempDir(), Events: obs.NewEventLog()}); err == nil || !strings.Contains(err.Error(), "durable event log") {
		t.Errorf("New with Dir and a memory-only log = %v, want a durable-log error", err)
	}
}

// TestOneLifecycleJournal: a durable scheduler keeps its lifecycle in
// events.jsonl alone — one fsynced row per transition, with the recovery
// payload in the journal row and never in what readers see.
func TestOneLifecycleJournal(t *testing.T) {
	dir := t.TempDir()
	withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
		return Artifacts{"out": []byte("ok")}, nil
	})
	s, err := New(Options{Workers: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h := mustSubmit(t, s, testSpec("one"), SubmitOptions{})
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	frames, err := json.Marshal(s.events.Events(0))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(frames), "payload") || strings.Contains(string(frames), "artifacts") {
		t.Errorf("the payload reached readers: %s", frames)
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || filepath.Base(names[0]) != "events.jsonl" {
		t.Errorf("state dir holds %v, want events.jsonl alone", names)
	}
	data, err := os.ReadFile(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	_, _, rows, _ := runstate.Scan(data)
	var types []string
	for _, r := range rows {
		typ := ""
		for _, name := range []string{"job.submitted", "job.started", "job.done"} {
			if strings.Contains(string(r.Data), `"type":"`+name+`"`) {
				typ = name
			}
		}
		if typ == "job.done" && !strings.Contains(string(r.Data), `"payload":{"artifacts":{"out":`) {
			t.Errorf("job.done row has no artifact payload: %s", r.Data)
		}
		types = append(types, typ)
	}
	if want := "[job.submitted job.started job.done]"; fmt.Sprint(types) != want {
		t.Errorf("journal rows = %v, want %s", types, want)
	}
}

// lcRun is one run of a model job, parked in the test hook until the
// model decides its outcome (or cancels its context).
type lcRun struct {
	id    string
	reply chan lcOutcome
}

type lcOutcome struct {
	art Artifacts
	err error
}

// lcJob is the reference state machine's view of one job. State is a
// Status state, or "backoff" — queued behind a retry timer.
type lcJob struct {
	label, id               string
	state                   string
	attempts, base, submits int
	subSeq                  int    // order of the job's latest job.submitted
	out                     string // artifact of a done job
	cancelPending           bool   // canceled during backoff
}

// lcTimer is a retry backoff captured by the fake clock.
type lcTimer struct {
	job  *lcJob
	fire func()
}

// lcHarness drives a one-worker durable scheduler and the reference
// model side by side.
type lcHarness struct {
	t       *testing.T
	rng     *rand.Rand
	dir     string
	policy  *retry.Policy
	s       *Scheduler
	starts  chan lcRun
	timers  chan func()
	pending []lcTimer
	running *lcJob
	run     lcRun
	jobs    []*lcJob
	queue   []*lcJob // the model's FIFO of runnable jobs
	subSeq  int
}

// start opens a scheduler over the harness dir with the fake clock.
func (h *lcHarness) start() {
	s, err := New(Options{Workers: 1, Dir: h.dir, Retry: h.policy})
	if err != nil {
		h.t.Fatal(err)
	}
	s.mu.Lock()
	s.after = func(_ time.Duration, f func()) { h.timers <- f }
	s.mu.Unlock()
	h.s = s
}

// settle receives the run the idle worker must start next, if any, and
// checks it is the model queue's head.
func (h *lcHarness) settle() {
	if h.running != nil || len(h.queue) == 0 {
		return
	}
	head := h.queue[0]
	h.queue = h.queue[1:]
	select {
	case r := <-h.starts:
		if r.id != head.id {
			h.t.Fatalf("worker started %s, want queue head %s", r.id, head.label)
		}
		h.run = r
	case <-time.After(time.Minute):
		h.t.Fatalf("worker never started %s", head.label)
	}
	head.state = StateRunning
	head.attempts++
	h.running = head
}

// handle returns the live handle of a model job.
func (h *lcHarness) handle(m *lcJob) *Handle {
	hd, ok := h.s.Get(m.id)
	if !ok {
		h.t.Fatalf("job %s missing from the scheduler", m.label)
	}
	return hd
}

// waitDone waits for a job to release its waiters and checks that its
// terminal event was readable at that instant: the event log is read
// before anything that takes the scheduler lock.
func (h *lcHarness) waitDone(hd *Handle) {
	h.t.Helper()
	select {
	case <-hd.Done():
	case <-time.After(time.Minute):
		h.t.Fatalf("job %s never finished", hd.ID())
	}
	last := h.lastLifecycleEvent(hd.ID())
	h.checkTerminalEvent(hd.ID(), hd.Status().State, last)
}

// lastLifecycleEvent returns the job's latest lifecycle event type,
// ignoring dedups (which do not change state).
func (h *lcHarness) lastLifecycleEvent(id string) string {
	last := ""
	for _, ev := range h.s.events.Events(0) {
		if _, ok := lifecycle[ev.Type]; ok && ev.Job == id && ev.Type != "job.dedup" {
			last = ev.Type
		}
	}
	return last
}

func (h *lcHarness) checkTerminalEvent(id, state, last string) {
	h.t.Helper()
	if !finished(state) {
		h.t.Fatalf("job %s released its waiters in state %s", id, state)
	}
	if lifecycle[last].state != state {
		h.t.Fatalf("job %s is %s but its latest lifecycle event is %q", id, state, last)
	}
}

// check compares every job's live status with the model, and asserts
// that any finished job's terminal event is already in Events(0).
func (h *lcHarness) check(step string) {
	h.t.Helper()
	for _, m := range h.jobs {
		hd := h.handle(m)
		st := hd.Status()
		want := m.state
		if want == "backoff" {
			want = StateQueued
		}
		if st.State != want || st.Attempts != m.attempts || st.Submits != m.submits {
			h.t.Fatalf("%s: job %s = %s attempts %d submits %d, model %s attempts %d submits %d",
				step, m.label, st.State, st.Attempts, st.Submits, m.state, m.attempts, m.submits)
		}
		select {
		case <-hd.Done():
			h.checkTerminalEvent(m.id, st.State, h.lastLifecycleEvent(m.id))
		default:
			if finished(st.State) {
				h.t.Fatalf("%s: job %s is %s with its waiters still blocked", step, m.label, st.State)
			}
		}
		if m.state == StateDone {
			art, err := hd.Wait(nil)
			if err != nil || string(art["out"]) != m.out {
				h.t.Fatalf("%s: job %s result %v %q, want %q", step, m.label, err, art["out"], m.out)
			}
		}
	}
}

func (h *lcHarness) submit() {
	label := fmt.Sprintf("j%d", h.rng.Intn(6))
	spec := testSpec(label)
	var m *lcJob
	for _, x := range h.jobs {
		if x.label == label {
			m = x
		}
	}
	switch {
	case m == nil:
		id, _ := spec.Fingerprint()
		m = &lcJob{label: label, id: id}
		h.jobs = append(h.jobs, m)
		fallthrough
	case m.state == StateFailed || m.state == StateCanceled:
		h.subSeq++
		*m = lcJob{label: label, id: m.id, state: StateQueued, submits: 1, subSeq: h.subSeq}
		h.queue = append(h.queue, m)
	default:
		m.submits++
	}
	if hd, err := h.s.Submit(spec, SubmitOptions{}); err != nil || hd.ID() != m.id {
		h.t.Fatalf("submit %s: %v", label, err)
	}
	h.settle()
}

func (h *lcHarness) pick() *lcJob {
	if len(h.jobs) == 0 {
		return nil
	}
	return h.jobs[h.rng.Intn(len(h.jobs))]
}

func (h *lcHarness) cancel() {
	m := h.pick()
	if m == nil {
		return
	}
	hd := h.handle(m)
	got := h.s.Cancel(m.id)
	switch m.state {
	case StateQueued:
		for i, q := range h.queue {
			if q == m {
				h.queue = append(h.queue[:i:i], h.queue[i+1:]...)
			}
		}
		m.state = StateCanceled
		h.waitDone(hd)
	case StateRunning:
		m.state = StateCanceled
		h.running = nil
		h.waitDone(hd)
		h.settle()
	case "backoff":
		m.cancelPending = true
	default:
		if got {
			h.t.Fatalf("Cancel of %s job %s found a live job", m.state, m.label)
		}
		return
	}
	if !got {
		h.t.Fatalf("Cancel of %s job %s found nothing", m.state, m.label)
	}
}

func (h *lcHarness) finish() {
	m := h.running
	if m == nil {
		return
	}
	hd := h.handle(m)
	kind := h.rng.Intn(3)
	if kind == 0 {
		m.out = fmt.Sprintf("%s run %d", m.label, m.attempts)
		h.run.reply <- lcOutcome{art: Artifacts{"out": []byte(m.out)}}
		m.state = StateDone
		h.running = nil
		h.waitDone(hd)
		h.settle()
		return
	}
	err := fmt.Errorf("%s attempt %d fails", m.label, m.attempts)
	if kind == 1 {
		err = retry.Retryable(err)
	}
	h.run.reply <- lcOutcome{err: err}
	h.running = nil
	switch {
	case h.policy == nil:
		m.state = StateFailed
		h.waitDone(hd)
	case kind == 1 && !h.policy.Exhausted(m.attempts-m.base):
		m.state = "backoff"
		select {
		case f := <-h.timers:
			h.pending = append(h.pending, lcTimer{m, f})
		case <-time.After(time.Minute):
			h.t.Fatalf("no retry scheduled for %s", m.label)
		}
	default:
		m.state = StateQuarantined
		h.waitDone(hd)
	}
	h.settle()
}

func (h *lcHarness) fire() {
	if len(h.pending) == 0 {
		return
	}
	tm := h.pending[0]
	h.pending = h.pending[1:]
	tm.fire()
	if tm.job.cancelPending {
		tm.job.state = StateCanceled
		tm.job.cancelPending = false
		h.waitDone(h.handle(tm.job))
		return
	}
	tm.job.state = StateQueued
	h.queue = append(h.queue, tm.job)
	h.settle()
}

func (h *lcHarness) retry() {
	m := h.pick()
	if m == nil {
		return
	}
	_, err := h.s.Retry(m.id)
	if m.state != StateQuarantined {
		if err == nil {
			h.t.Fatalf("Retry of %s job %s succeeded", m.state, m.label)
		}
		return
	}
	if err != nil {
		h.t.Fatalf("Retry of quarantined %s: %v", m.label, err)
	}
	m.state = StateQueued
	m.base = m.attempts
	m.submits++
	h.queue = append(h.queue, m)
	h.settle()
}

// restart closes the scheduler — the running job is interrupted, pending
// retry timers die with the process — and opens a new one over the same
// dir, which must restore every finished job's status exactly and
// re-enqueue every in-flight one in submission order.
func (h *lcHarness) restart() {
	if err := h.s.Close(context.Background()); err != nil {
		h.t.Fatal(err)
	}
	if h.running != nil {
		h.running.state = StateInterrupted
		h.running = nil
	}
	h.check("before restart")
	pre := map[string]Status{}
	for _, st := range h.s.List() {
		pre[st.ID] = st
	}
	h.pending = nil
	h.queue = h.queue[:0]
	for _, m := range h.jobs {
		m.cancelPending = false
		switch m.state {
		case StateQueued, "backoff", StateInterrupted:
			m.state = StateQueued
			h.queue = append(h.queue, m)
		}
	}
	sort.Slice(h.queue, func(a, b int) bool { return h.queue[a].subSeq < h.queue[b].subSeq })

	h.start()
	if got := h.s.Resumed(); got != len(h.queue) {
		h.t.Fatalf("Resumed() = %d, want %d in-flight jobs", got, len(h.queue))
	}
	h.settle()
	for _, m := range h.jobs {
		st := h.handle(m).Status()
		p := pre[m.id]
		if finished(m.state) {
			if st.State != p.State || st.Attempts != p.Attempts || st.Submits != p.Submits ||
				st.Error != p.Error || fmt.Sprint(st.Artifacts) != fmt.Sprint(p.Artifacts) {
				h.t.Fatalf("job %s restored as %+v, was %+v", m.label, st, p)
			}
		} else if st.Attempts != p.Attempts+btoi(m == h.running) || st.Submits != p.Submits {
			h.t.Fatalf("in-flight job %s restored as %+v, was %+v", m.label, st, p)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestLifecycleModel runs seeded random sequences of submit, dedup,
// cancel (queued, running and in backoff), retryable and permanent
// failures, success, retry timers, Retry and crash-restart over one state
// dir against a reference state machine. It asserts that (i) after every
// restart each finished job's status equals its pre-crash status and
// every in-flight job re-enqueues, and (ii) whenever a job's waiters are
// released or its status is terminal, its terminal event is already in
// Events(0). Retry backoff runs on a fake clock, so nothing sleeps.
func TestLifecycleModel(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			h := &lcHarness{
				t:      t,
				rng:    rand.New(rand.NewSource(seed)),
				dir:    t.TempDir(),
				starts: make(chan lcRun),
				timers: make(chan func(), 1),
			}
			if seed%2 == 0 {
				h.policy = &retry.Policy{MaxAttempts: 3}
			}
			withHook(t, func(ctx context.Context, j *Job) (Artifacts, error) {
				r := lcRun{id: j.id, reply: make(chan lcOutcome, 1)}
				select {
				case h.starts <- r:
				case <-ctx.Done():
					return nil, runctl.Err(ctx)
				}
				select {
				case o := <-r.reply:
					return o.art, o.err
				case <-ctx.Done():
					return nil, runctl.Err(ctx)
				}
			})
			h.start()
			defer func() { h.s.Close(context.Background()) }()
			ops := []func(){h.submit, h.submit, h.submit, h.cancel, h.finish, h.finish, h.finish, h.fire, h.retry, h.restart}
			for step := 0; step < 60; step++ {
				ops[h.rng.Intn(len(ops))]()
				h.check(fmt.Sprintf("step %d", step))
			}
		})
	}
}
