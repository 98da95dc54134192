package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/evalcache"
	"repro/internal/obs"
	"repro/internal/retry"
	"repro/internal/runctl"
	"repro/internal/runstate"
	"repro/internal/shard"
)

// ErrClosed is returned by Submit once the scheduler is shutting down.
var ErrClosed = errors.New("jobs: scheduler closed")

// testRunHook, when non-nil, runs kindTest jobs; scheduler tests use it
// to control execution timing deterministically. Never set in production.
var testRunHook func(ctx context.Context, j *Job) (Artifacts, error)

// testFigRowDone, when non-nil, observes every freshly journaled row of a
// figure job; the crash-resume tests use it to stop the scheduler at
// exact row boundaries.
var testFigRowDone func(jobID, rowKey string)

// Options configures a Scheduler.
type Options struct {
	// Workers bounds how many jobs run concurrently (min 1).
	Workers int
	// Dir, when non-empty, makes the scheduler durable: every lifecycle
	// transition is journaled in the durable event log (Events, or
	// Dir/events.jsonl when Events is nil), figure jobs journal their rows
	// to Dir/rows-<id>.jsonl, and a new Scheduler over the same Dir and log
	// restores finished results and re-enqueues every job that was queued
	// or running when the previous process died. New refuses a memory-only
	// Events log with Dir, and a Dir still holding the state.jsonl of the
	// earlier two-journal layout.
	Dir string
	// Metrics, when non-nil, receives the scheduler's own instruments:
	// jobs.submitted/completed/failed/canceled/interrupted/dedup_hits
	// counters, jobs.queue_depth and jobs.running gauges, and the
	// jobs.queue_wait submit→start latency histogram.
	Metrics *obs.Registry
	// Log receives scheduler lifecycle records (nil disables logging).
	Log *obs.Logger
	// Events, when non-nil, receives the fleet lifecycle event stream:
	// job submitted/started/done/failed/canceled/interrupted, dedup hits,
	// resumes, shard and sweep milestones, eval-cache warm/cold, panics
	// recovered. With Dir set it must be durable (obs.OpenEventLog): its
	// journal is then the scheduler's only lifecycle record. ftesd opens
	// one under its state dir; paperbench -serve uses a memory-only log
	// and no Dir. With Dir set and Events nil the scheduler opens
	// Dir/events.jsonl itself and closes it in Close.
	Events *obs.EventLog
	// EvalCache, when non-nil, is the disk-backed evaluation cache every
	// job's design runs share (core.Options.EvalCache): resubmitted and
	// repeated jobs warm-start from what earlier jobs persisted. It lives
	// on Options, not Spec — specs are content-addressed and a cache
	// location must not change a job's identity.
	EvalCache *evalcache.Cache
	// Retry, when non-nil, is the self-healing policy: a job failing with
	// a retryable error (retry.IsRetryable — torn journal writes, ENOSPC,
	// a slice journal still flock-held by a dying worker) is re-enqueued
	// after a backoff delay instead of going terminal, until the policy's
	// attempt budget is spent. Attempt counts ride in the journaled
	// job.started rows, so restarts never reset a budget. A permanent
	// error, or an exhausted budget, quarantines the job: terminal until a
	// human (or the sweep watchdog) calls Retry, with job.quarantined in
	// the event log. Nil keeps the pre-self-healing behavior: every
	// failure is terminal.
	Retry *retry.Policy
	// LeaseInterval paces the heartbeat on the lease file each sharded
	// slice maintains in its sweep directory (0 = shard.DefaultLeaseInterval).
	LeaseInterval time.Duration
	// LeaseStale is how old a slice lease's heartbeat must be before the
	// sweep watchdog declares its worker dead and resubmits the slice
	// (0 = 10s). Must be a comfortable multiple of LeaseInterval.
	LeaseStale time.Duration
}

// defaultLeaseStale is the watchdog staleness threshold when Options
// does not set one.
const defaultLeaseStale = 10 * time.Second

func (o Options) leaseStale() time.Duration {
	if o.LeaseStale > 0 {
		return o.LeaseStale
	}
	return defaultLeaseStale
}

// Job is one scheduled exploration. All mutable fields are guarded by
// the owning scheduler's mutex; artifacts and err are immutable once the
// done channel closes.
type Job struct {
	id       string
	spec     Spec
	tenant   string
	priority int
	timeout  time.Duration
	seq      int64

	obs        Instruments
	rowJournal *runstate.Journal // submitter-owned; nil → scheduler-owned per-job journal
	parent     context.Context

	state        string
	userCanceled bool
	cancel       context.CancelFunc // set while running
	submits      int
	// attempts counts runs started across the job's whole durable life,
	// monotonic even across manual retries (journaled on job.started).
	// budgetBase is the attempt count the current budget window started
	// at: Retry (manual un-quarantine) moves it forward so the policy's
	// MaxAttempts applies per window, while the history stays monotonic.
	attempts    int
	budgetBase  int
	submittedAt time.Time
	startedAt   time.Time
	finishedAt  time.Time

	artifacts Artifacts
	err       error
	done      chan struct{}
}

// ID returns the job's content fingerprint.
func (j *Job) ID() string { return j.id }

// Spec returns the job's spec.
func (j *Job) Spec() Spec { return j.spec }

// Instruments returns the job's observability hooks; ftesd mounts
// obshttp handlers over them for per-job /metrics, /progress and /trace.
func (j *Job) Instruments() Instruments { return j.obs }

// SubmitOptions carry everything about a submission that is not part of
// the job's content-addressed identity.
type SubmitOptions struct {
	// Tenant names the fair-share queue the job waits in ("" is a valid
	// tenant). The scheduler serves tenants round-robin, so one tenant's
	// backlog cannot starve another's.
	Tenant string
	// Priority orders jobs within a tenant (higher first, FIFO within a
	// priority).
	Priority int
	// Timeout bounds the job's run (0 = none); expiry surfaces as
	// runctl.ErrCanceled wrapping context.DeadlineExceeded, with the
	// deterministic partial artifacts every canceled run produces.
	Timeout time.Duration
	// Context, when non-nil, parents the job's run context: canceling it
	// cooperatively stops the job. paperbench passes its signal context;
	// daemon submissions leave it nil (jobs outlive HTTP requests).
	Context context.Context
	// Obs, when non-nil, replaces the per-job instruments.
	Obs *Instruments
	// RowJournal, when non-nil, is a caller-owned row journal for figure
	// jobs (paperbench -journal); the scheduler then neither opens nor
	// closes a per-job one.
	RowJournal *runstate.Journal
	// TraceParent, when non-empty, is the cross-process span reference
	// (obs.Span.Ref) the job's root spans hang under once traces are
	// merged. SubmitSharded sets it to its sweep span so every slice's
	// trace reconnects under the coordinator. Like the other fields here
	// it is not part of the job's identity. It applies only to the
	// scheduler's own per-job tracer (ignored when Obs is provided — a
	// shared tracer must not inherit one submission's parent).
	TraceParent string
}

// Handle is a submitter's reference to a (possibly shared) job.
type Handle struct {
	s *Scheduler
	j *Job
}

// ID returns the job's content fingerprint.
func (h *Handle) ID() string { return h.j.id }

// Job returns the underlying job.
func (h *Handle) Job() *Job { return h.j }

// Done returns a channel closed when the job finishes.
func (h *Handle) Done() <-chan struct{} { return h.j.done }

// Wait blocks until the job finishes or ctx is canceled, returning the
// job's artifacts and error. A canceled job returns its deterministic
// partial artifacts alongside the runctl.ErrCanceled-wrapped error.
func (h *Handle) Wait(ctx context.Context) (Artifacts, error) {
	if ctx != nil {
		select {
		case <-h.j.done:
		case <-ctx.Done():
			return nil, runctl.Err(ctx)
		}
	} else {
		<-h.j.done
	}
	return h.j.artifacts, h.j.err
}

// Status snapshots the job.
func (h *Handle) Status() Status { return h.s.status(h.j) }

// Scheduler runs jobs from a priority + fair-share queue on a bounded
// worker pool. Create one with New and stop it with Close.
type Scheduler struct {
	opts       Options
	log        *obs.Logger
	events     *obs.EventLog
	ownsEvents bool // events was opened by New (Dir set, Options.Events nil)

	mu         sync.Mutex
	cond       *sync.Cond
	jobs       map[string]*Job
	queues     map[string][]*Job
	ring       []string // tenants in first-seen order
	lastTenant int      // ring index served last
	queued     int
	closing    bool
	seq        int64
	resumed    int
	// after schedules a retry backoff (time.AfterFunc outside tests, which
	// swap in a fake clock).
	after func(time.Duration, func())

	wg sync.WaitGroup

	counters   map[string]*obs.Counter // lifecycle event type → counter
	hQueueWait *obs.Histogram
	gRunning   *obs.Gauge
}

// record is the recovery payload a lifecycle event's journal row carries
// on a durable scheduler: what replaying the journal needs beyond the
// event itself. It never reaches the ring or /events readers.
type record struct {
	Spec      *Spec             `json:"spec,omitempty"` // job.submitted
	Tenant    string            `json:"tenant,omitempty"`
	Priority  int               `json:"priority,omitempty"`
	Timeout   int64             `json:"timeout_ns,omitempty"`
	Attempts  int               `json:"attempts,omitempty"` // job.started/quarantined/retried
	Artifacts map[string][]byte `json:"artifacts,omitempty"`
	Err       string            `json:"err,omitempty"`
}

// transitionKind is one row of the lifecycle table: the state a job
// enters on an event (unchanged when empty), the counter the event bumps
// (none when empty) and its log line.
type transitionKind struct {
	state, metric, msg string
}

// lifecycle is the single table every job state change goes through
// (see transition), keyed by the event type the change emits.
var lifecycle = map[string]transitionKind{
	"job.submitted":   {StateQueued, "jobs.submitted", "job submitted"},
	"job.dedup":       {"", "jobs.dedup_hits", "job deduplicated"},
	"job.resumed":     {StateQueued, "", "job resumed from event journal"},
	"job.started":     {StateRunning, "", "job start"},
	"job.retry":       {StateQueued, "jobs.retries", "job retry scheduled"},
	"job.retried":     {StateQueued, "", "job retried from quarantine"},
	"job.done":        {StateDone, "jobs.completed", "job done"},
	"job.failed":      {StateFailed, "jobs.failed", "job failed"},
	"job.canceled":    {StateCanceled, "jobs.canceled", "job canceled"},
	"job.interrupted": {StateInterrupted, "jobs.interrupted", "job interrupted"},
	"job.quarantined": {StateQuarantined, "jobs.quarantined", "job quarantined"},
}

// finished reports whether a job in state has released its waiters.
func finished(state string) bool {
	switch state {
	case StateDone, StateFailed, StateCanceled, StateInterrupted, StateQuarantined:
		return true
	}
	return false
}

// New builds a scheduler, restores its durable state when Options.Dir is
// set (finished jobs resolve immediately; in-flight ones re-enqueue),
// and starts the worker pool.
func New(o Options) (*Scheduler, error) {
	if o.Workers < 1 {
		o.Workers = 1
	}
	reg := o.Metrics
	if reg == nil {
		// Private registry: the instruments always exist, they just are
		// not exported anywhere.
		reg = obs.NewRegistry()
	}
	s := &Scheduler{
		opts:       o,
		log:        o.Log,
		events:     o.Events,
		jobs:       make(map[string]*Job),
		queues:     make(map[string][]*Job),
		after:      func(d time.Duration, f func()) { time.AfterFunc(d, f) },
		counters:   make(map[string]*obs.Counter),
		hQueueWait: reg.Histogram("jobs.queue_wait"),
		gRunning:   reg.Gauge("jobs.running"),
	}
	for typ, k := range lifecycle {
		if k.metric != "" {
			s.counters[typ] = reg.Counter(k.metric)
		}
	}
	s.cond = sync.NewCond(&s.mu)
	reg.GaugeFunc("jobs.queue_depth", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.queued)
	})
	if o.Dir != "" {
		if o.Events != nil && !o.Events.Durable() {
			return nil, errors.New("jobs: Options.Dir needs a durable event log (obs.OpenEventLog, or nil to open Dir/events.jsonl): the event journal is the scheduler's lifecycle record")
		}
		legacy := filepath.Join(o.Dir, "state.jsonl")
		if _, err := os.Stat(legacy); err == nil {
			return nil, fmt.Errorf("jobs: %s is a state journal from an earlier layout; job lifecycle now lives only in the event journal, so the jobs it records would not be restored — move it aside to start this state dir afresh", legacy)
		}
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: state dir: %w", err)
		}
		if o.Events == nil {
			ev, err := obs.OpenEventLog(filepath.Join(o.Dir, "events.jsonl"))
			if err != nil {
				return nil, err
			}
			s.events, s.ownsEvents = ev, true
		}
		s.mu.Lock()
		s.recover()
		s.mu.Unlock()
	}
	for i := 0; i < o.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover folds the replayed event journal into the job table, in file
// order: job.submitted creates the job queued (replacing a failed or
// canceled entry of the same id), job.dedup counts a submission,
// job.started sets the attempt count, job.retry/interrupted/resumed leave
// it pending, job.done/failed/canceled make it terminal with its
// artifacts and error, job.quarantined quarantines it, and job.retried
// re-opens it with a new budget window. Finished jobs resolve; pending
// ones re-enqueue in submission order. Caller holds s.mu.
func (s *Scheduler) recover() {
	var order []*Job
	s.events.Replay(func(ev obs.LogEvent, payload json.RawMessage) {
		k, ok := lifecycle[ev.Type]
		if !ok {
			return
		}
		var rec record
		if payload != nil && json.Unmarshal(payload, &rec) != nil {
			return
		}
		if ev.Type == "job.submitted" {
			if rec.Spec != nil {
				j := s.newJob(ev.Job, *rec.Spec, SubmitOptions{Tenant: rec.Tenant, Priority: rec.Priority, Timeout: time.Duration(rec.Timeout)})
				s.jobs[ev.Job] = j
				order = append(order, j)
			}
			return
		}
		j := s.jobs[ev.Job]
		if j == nil {
			return
		}
		switch ev.Type {
		case "job.dedup":
			j.submits++
		case "job.started":
			j.attempts = rec.Attempts
		case "job.retried":
			j.attempts, j.budgetBase = rec.Attempts, rec.Attempts
			j.submits++
			j.artifacts, j.err = nil, nil
		case "job.quarantined":
			j.attempts = rec.Attempts
			fallthrough
		case "job.done", "job.failed", "job.canceled":
			j.artifacts, j.err = rec.Artifacts, nil
			if rec.Err != "" {
				e := &journaledErr{msg: rec.Err}
				if k.state == StateCanceled {
					e.cause = runctl.ErrCanceled
				}
				j.err = e
			}
		}
		if k.state != "" {
			j.state = k.state
		}
	})
	for _, j := range order {
		if s.jobs[j.id] != j {
			continue // replaced by a later submission
		}
		switch j.state {
		case StateDone, StateFailed, StateCanceled, StateQuarantined:
			close(j.done)
		default: // queued, running or interrupted when the last process stopped
			s.resumed++
			s.transition(j, "job.resumed", eventFields(j.spec), nil)
			s.enqueueLocked(j)
		}
	}
}

// journaledErr is an error restored from its journaled text, verbatim; a
// canceled job's still matches runctl.ErrCanceled.
type journaledErr struct {
	msg   string
	cause error
}

func (e *journaledErr) Error() string { return e.msg }
func (e *journaledErr) Unwrap() error { return e.cause }

// Resumed reports how many in-flight jobs the event journal re-enqueued
// at startup.
func (s *Scheduler) Resumed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resumed
}

// newJob builds a Job (caller inserts it under s.mu where needed).
func (s *Scheduler) newJob(id string, spec Spec, so SubmitOptions) *Job {
	j := &Job{
		id:          id,
		spec:        spec,
		tenant:      so.Tenant,
		priority:    so.Priority,
		timeout:     so.Timeout,
		parent:      so.Context,
		rowJournal:  so.RowJournal,
		state:       StateQueued,
		submits:     1,
		submittedAt: time.Now(),
		done:        make(chan struct{}),
	}
	if j.parent == nil {
		j.parent = context.Background()
	}
	if so.Obs != nil {
		j.obs = *so.Obs
	} else {
		j.obs = Instruments{
			Tracer:   obs.NewTracer(),
			Metrics:  obs.NewRegistry(),
			Progress: obs.NewProgress(),
			Log:      s.log,
		}
		j.obs.Tracer.SetRemoteParent(so.TraceParent)
		if spec.ShardCount > 1 {
			j.obs.Tracer.SetProcessLabel(fmt.Sprintf("shard %d/%d", spec.ShardIndex, spec.ShardCount))
		}
	}
	if j.obs.Events == nil {
		j.obs.Events = s.events.Scoped(id)
	}
	return j
}

// transition is the one funnel every job state change goes through, with
// s.mu held for all of it: it sets the state from the lifecycle table,
// appends the event (with rec as its recovery payload on a durable
// scheduler) to the journal, emits the event, log line and counter, and
// only then, for a finished state, releases the job's waiters. So no
// caller of Status, Wait or Done can see a state whose event is not yet
// journaled and in Events. A job.submitted that fails to journal returns
// the error with nothing published (the caller backs the job out); any
// other journal error is logged and the event still reaches the ring.
func (s *Scheduler) transition(j *Job, typ string, fields map[string]any, rec *record) error {
	k := lifecycle[typ]
	if k.state != "" {
		j.state = k.state
	}
	var payload any
	if rec != nil && s.opts.Dir != "" {
		payload = rec
	}
	if err := s.events.Record(typ, j.id, fields, payload); err != nil {
		if typ == "job.submitted" {
			return err
		}
		s.log.Error("transition not journaled", "job", j.id, "event", typ, "err", err.Error())
		s.events.Emit(typ, j.id, fields)
	}
	if c := s.counters[typ]; c != nil {
		c.Add(1)
	}
	if k.state == StateFailed || k.state == StateQuarantined {
		s.log.Error(k.msg, "job", j.id, "fields", fields)
	} else {
		s.log.Info(k.msg, "job", j.id, "fields", fields)
	}
	if finished(k.state) {
		close(j.done)
	}
	return nil
}

// Submit enqueues the spec (or joins the existing job with the same
// fingerprint) and returns a handle on it.
func (s *Scheduler) Submit(spec Spec, so SubmitOptions) (*Handle, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	id, err := spec.Fingerprint()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return nil, ErrClosed
	}
	old, ok := s.jobs[id]
	// A terminal non-success does not poison the fingerprint: resubmitting
	// runs the spec again (the fresh job replaces the dead one).
	if ok && old.state != StateFailed && old.state != StateCanceled {
		old.submits++
		s.transition(old, "job.dedup", map[string]any{"submits": old.submits}, nil)
		return &Handle{s, old}, nil
	}
	j := s.newJob(id, spec, so)
	s.jobs[id] = j
	// Durability before visibility: the submission is on disk before the
	// job can run, so a crash between accept and completion always
	// re-enqueues it.
	rec := &record{Spec: &spec, Tenant: so.Tenant, Priority: so.Priority, Timeout: int64(so.Timeout)}
	if err := s.transition(j, "job.submitted", eventFields(spec), rec); err != nil {
		if ok {
			s.jobs[id] = old
		} else {
			delete(s.jobs, id)
		}
		return nil, err
	}
	s.enqueueLocked(j)
	return &Handle{s, j}, nil
}

// enqueueLocked inserts j into its tenant's queue: higher priority first,
// FIFO within a priority. Caller holds s.mu.
func (s *Scheduler) enqueueLocked(j *Job) {
	s.seq++
	j.seq = s.seq
	q := s.queues[j.tenant]
	if _, ok := s.queues[j.tenant]; !ok {
		s.ring = append(s.ring, j.tenant)
	}
	pos := len(q)
	for i, other := range q {
		if other.priority < j.priority {
			pos = i
			break
		}
	}
	q = append(q, nil)
	copy(q[pos+1:], q[pos:])
	q[pos] = j
	s.queues[j.tenant] = q
	s.queued++
	s.cond.Signal()
}

// next blocks until a job is available or the scheduler closes (nil).
// Fair share: the scan starts at the tenant after the one served last,
// so tenants take turns regardless of backlog sizes.
func (s *Scheduler) next() *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.closing {
			return nil
		}
		if s.queued > 0 {
			n := len(s.ring)
			for k := 1; k <= n; k++ {
				idx := (s.lastTenant + k) % n
				q := s.queues[s.ring[idx]]
				if len(q) == 0 {
					continue
				}
				j := q[0]
				s.queues[s.ring[idx]] = q[1:]
				s.lastTenant = idx
				s.queued--
				return j
			}
		}
		s.cond.Wait()
	}
}

// worker is one pool goroutine: pick, run, repeat until close.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		j := s.next()
		if j == nil {
			return
		}
		s.runJob(j)
	}
}

// runJob executes one job and publishes its completion.
func (s *Scheduler) runJob(j *Job) {
	ctx, cancel := context.WithCancel(j.parent)
	defer cancel()
	start := time.Now()
	s.mu.Lock()
	if j.userCanceled || s.closing {
		// Canceled while queued and not yet reaped by Cancel itself, or
		// dequeued just as the scheduler began closing — complete it
		// (canceled or interrupted) without running anything.
		s.mu.Unlock()
		s.completeJob(j, nil, fmt.Errorf("%w: canceled before start", runctl.ErrCanceled))
		return
	}
	// The cancel func is in place before the job shows as running, so a
	// Cancel or Close that sees it running always reaches its run.
	j.cancel = cancel
	j.startedAt = start
	j.attempts++
	// The attempt lands on disk before the run starts, so a crashed
	// attempt still spends budget after a restart.
	startedFields := eventFields(j.spec)
	startedFields["attempt"] = j.attempts
	s.transition(j, "job.started", startedFields, &record{Attempts: j.attempts})
	s.mu.Unlock()
	s.gRunning.Set(s.gRunning.Value() + 1)
	s.hQueueWait.Observe(start.Sub(j.submittedAt))
	if j.spec.ShardCount > 1 {
		s.events.Emit("shard.started", j.id, map[string]any{
			"index": j.spec.ShardIndex, "count": j.spec.ShardCount, "fig": j.spec.Fig,
		})
	}

	runCtx := ctx
	if j.timeout > 0 {
		var cancelTimeout context.CancelFunc
		runCtx, cancelTimeout = context.WithTimeout(ctx, j.timeout)
		defer cancelTimeout()
	}

	var cacheBefore evalcache.Stats
	if s.opts.EvalCache != nil {
		cacheBefore = s.opts.EvalCache.Stats()
	}

	artifacts, err := s.execute(runCtx, j)

	if s.opts.EvalCache != nil {
		// Warm vs cold is a per-job, best-effort read of the shared cache:
		// did this run load anything an earlier run persisted? Concurrent
		// jobs can blur the delta; the answer is still the right signal for
		// "was the cache worth having" dashboards.
		after := s.opts.EvalCache.Stats()
		typ := "evalcache.cold"
		if after.LoadHits > cacheBefore.LoadHits {
			typ = "evalcache.warm"
		}
		s.events.Emit(typ, j.id, map[string]any{
			"load_hits": after.LoadHits - cacheBefore.LoadHits,
			"loads":     after.Loads - cacheBefore.Loads,
			"saves":     after.Saves - cacheBefore.Saves,
		})
	}

	s.gRunning.Set(s.gRunning.Value() - 1)
	s.completeJob(j, artifacts, err)
}

// execute dispatches to the job's runner with panic isolation: a panic
// inside a runner fails the job, not the scheduler.
func (s *Scheduler) execute(ctx context.Context, j *Job) (art Artifacts, err error) {
	defer runctl.Recover(fmt.Sprintf("jobs %s runner (job %s)", j.spec.Kind, j.id), &err)
	switch j.spec.Kind {
	case KindFigure:
		rowJ := j.rowJournal
		sliceTrace := false
		switch {
		case rowJ != nil:
		case j.spec.ShardCount > 1:
			// A sharded slice journals into the sweep's shard directory so
			// the merge can find it; without a state dir there is nowhere
			// durable to put it, which defeats the whole point of sharding.
			if s.opts.Dir == "" {
				return nil, fmt.Errorf("jobs: sharded figure job %s needs a durable scheduler (Options.Dir) or a caller-provided row journal", j.id)
			}
			rj, jerr := s.openShardJournal(j.spec)
			if jerr != nil {
				return nil, jerr
			}
			defer rj.Close()
			rowJ = rj
			sliceTrace = true
			// Heartbeat lease for the watchdog: a dead worker's lease goes
			// stale, a live one's never does. Advisory only (the journal
			// flock is the mutual exclusion), so failure to install it is
			// logged, not fatal.
			s.mu.Lock()
			attempt := j.attempts
			s.mu.Unlock()
			if dir, derr := s.sweepDir(j.spec); derr == nil {
				if lease, lerr := shard.AcquireLease(dir, j.spec.ShardIndex, j.spec.ShardCount, attempt, s.opts.LeaseInterval); lerr != nil {
					s.log.Error("slice lease not acquired", "job", j.id, "err", lerr.Error())
				} else {
					defer lease.Release()
				}
			}
			if rj.Restored() > 0 {
				j.obs.Events.Emit("shard.resumed", map[string]any{
					"index": j.spec.ShardIndex, "count": j.spec.ShardCount,
					"restored_rows": rj.Restored(),
				})
			}
		case s.opts.Dir != "":
			// The row journal is keyed by the job fingerprint, so it can
			// only ever resume the spec that wrote it.
			rj, jerr := runstate.Open(filepath.Join(s.opts.Dir, "rows-"+j.id+".jsonl"), j.id, true)
			if jerr != nil {
				return nil, jerr
			}
			defer rj.Close()
			rowJ = rj
		}
		art, ferr := runFigure(ctx, j, rowJ, s.opts.EvalCache)
		if sliceTrace {
			// Snapshot the slice's trace (final durations, open spans flagged
			// unfinished) into the shard directory next to its journal, so the
			// sweep merge can stitch every worker's timeline. Observation-only:
			// a failed snapshot is logged, never fails the job.
			if terr := s.writeShardTrace(j); terr != nil {
				s.log.Error("shard trace not written", "job", j.id, "err", terr.Error())
			}
		}
		return art, ferr
	case KindDesign:
		return runDesign(ctx, j.spec, j.obs, s.opts.EvalCache)
	case kindTest:
		if testRunHook != nil {
			return testRunHook(ctx, j)
		}
		return nil, fmt.Errorf("jobs: test job without hook")
	default:
		return nil, fmt.Errorf("jobs: unknown job kind %q", j.spec.Kind)
	}
}

// completeJob records the outcome — terminal, interrupted (a shutdown or
// an external cancel, which a scheduler over the same state dir resumes),
// a retry backoff or a quarantine — through the transition funnel, which
// wakes every waiter once the outcome is journaled and published.
func (s *Scheduler) completeJob(j *Job, artifacts Artifacts, err error) {
	var pe *runctl.PanicError
	if errors.As(err, &pe) {
		s.events.Emit("panic.recovered", j.id, map[string]any{
			"where": pe.Where, "value": fmt.Sprint(pe.Value),
		})
	}
	parentCanceled := j.parent.Err() != nil
	s.mu.Lock()
	defer s.mu.Unlock()
	j.cancel = nil

	// A cooperative cancellation that the submitter did not ask for —
	// scheduler shutdown or the parent context (an operator interrupt)
	// going away — leaves the job interrupted: job.interrupted is not a
	// completion, so a durable scheduler resumes the job on the next start.
	canceled := err != nil && errors.Is(err, runctl.ErrCanceled)
	interrupted := canceled && !j.userCanceled && (s.closing || parentCanceled)

	// Self-healing disposition. With a retry policy configured, a failure
	// that is neither an interruption nor a user cancel goes one of two
	// ways instead of terminal-failed: retryable with budget left →
	// backoff and re-enqueue; permanent or exhausted → quarantine, held
	// for a human (or the sweep watchdog) to Retry.
	healing := err != nil && !interrupted && !j.userCanceled && s.opts.Retry != nil && s.opts.Retry.MaxAttempts > 1
	if healing {
		p := s.opts.Retry
		if used := j.attempts - j.budgetBase; retry.IsRetryable(err) && !p.Exhausted(used) {
			s.scheduleRetry(j, err, p.Delay(used))
			return
		}
	}

	j.artifacts, j.err, j.finishedAt = artifacts, err, time.Now()
	rec := &record{Artifacts: artifacts}
	if err != nil {
		rec.Err = err.Error()
	}
	switch {
	case healing:
		rec.Attempts = j.attempts
		s.transition(j, "job.quarantined", map[string]any{"attempts": j.attempts, "error": rec.Err}, rec)
	case interrupted:
		s.transition(j, "job.interrupted", nil, nil)
	case err == nil:
		s.transition(j, "job.done", map[string]any{"elapsed_ms": j.finishedAt.Sub(j.startedAt).Milliseconds()}, rec)
	case j.userCanceled && canceled:
		s.transition(j, "job.canceled", nil, rec)
	default:
		s.transition(j, "job.failed", map[string]any{"error": rec.Err}, rec)
	}
}

// scheduleRetry re-enqueues j after a backoff delay. The job's done
// channel stays open — waiters keep waiting across the whole retry
// sequence and only ever observe the final outcome — and job.retry is not
// a completion, so a crash mid-backoff resumes the job on restart (the
// attempt counts journaled on job.started keep the budget honest).
// Caller holds s.mu.
func (s *Scheduler) scheduleRetry(j *Job, cause error, delay time.Duration) {
	j.err = cause // visible in Status while the backoff runs
	s.transition(j, "job.retry", map[string]any{
		"attempt": j.attempts, "delay_ms": delay.Milliseconds(), "error": cause.Error(),
	}, nil)
	s.after(delay, func() { s.requeueRetry(j, cause) })
}

// requeueRetry fires when a retry backoff elapses: normally the job goes
// back in its queue; under a shutdown it completes interrupted (resumed
// by the next scheduler over the same state dir); after a user cancel it
// completes canceled.
func (s *Scheduler) requeueRetry(j *Job, cause error) {
	s.mu.Lock()
	switch {
	case s.closing:
		s.mu.Unlock()
		s.completeJob(j, nil, fmt.Errorf("%w: retry interrupted by shutdown: %s", runctl.ErrCanceled, cause))
	case j.userCanceled:
		s.mu.Unlock()
		s.completeJob(j, nil, fmt.Errorf("%w: canceled during retry backoff", runctl.ErrCanceled))
	default:
		s.enqueueLocked(j)
		s.mu.Unlock()
	}
}

// Retry un-quarantines a job: the same spec re-enqueues with a fresh
// attempt budget window. The attempt history stays monotonic — the new
// window simply starts at the current count — and the journaled
// job.retried makes both the un-quarantine and the window survive
// restarts.
func (s *Scheduler) Retry(id string) (*Handle, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("jobs: no job %s", id)
	}
	if j.state != StateQuarantined {
		return nil, fmt.Errorf("jobs: job %s is %s, not quarantined", id, j.state)
	}
	if s.closing {
		return nil, ErrClosed
	}
	// Fresh Job (the old done channel already closed; waiters saw the
	// quarantine), same identity and submission parameters.
	nj := s.newJob(id, j.spec, SubmitOptions{Tenant: j.tenant, Priority: j.priority, Timeout: j.timeout})
	nj.parent = j.parent
	nj.attempts = j.attempts
	nj.budgetBase = j.attempts
	nj.submits = j.submits + 1
	s.jobs[id] = nj
	s.transition(nj, "job.retried", map[string]any{"attempts": nj.attempts}, &record{Attempts: nj.attempts})
	s.enqueueLocked(nj)
	return &Handle{s, nj}, nil
}

// eventFields condenses a spec into the detail fields its lifecycle
// events carry.
func eventFields(spec Spec) map[string]any {
	f := map[string]any{"kind": spec.Kind}
	if spec.Fig != "" {
		f["fig"] = spec.Fig
	}
	if spec.ShardCount > 1 {
		f["shard_index"] = spec.ShardIndex
		f["shard_count"] = spec.ShardCount
	}
	return f
}

// Get returns a handle on the job with the given id.
func (s *Scheduler) Get(id string) (*Handle, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return &Handle{s, j}, true
}

// Cancel cooperatively cancels a job: a queued job completes immediately
// as canceled; a running one stops at its next row boundary with its
// partial artifacts. It reports whether a live job was found.
func (s *Scheduler) Cancel(id string) bool {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok || finished(j.state) {
		s.mu.Unlock()
		return false
	}
	j.userCanceled = true
	if j.state == StateQueued {
		// Reap it from its queue so a worker never picks it up. When a
		// worker already dequeued it (but has not started it yet), leave
		// completion to that worker's userCanceled check — completing from
		// both sides would double-close the done channel.
		q := s.queues[j.tenant]
		for i, other := range q {
			if other == j {
				s.queues[j.tenant] = append(q[:i:i], q[i+1:]...)
				s.queued--
				s.mu.Unlock()
				s.completeJob(j, nil, fmt.Errorf("%w: canceled while queued", runctl.ErrCanceled))
				return true
			}
		}
	}
	cancel := j.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// List snapshots every known job in submission order.
func (s *Scheduler) List() []Status {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool {
		if jobs[a].submittedAt.Equal(jobs[b].submittedAt) {
			return jobs[a].id < jobs[b].id
		}
		return jobs[a].submittedAt.Before(jobs[b].submittedAt)
	})
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = s.status(j)
	}
	return out
}

// status snapshots one job under the scheduler lock.
func (s *Scheduler) status(j *Job) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		ID:          j.id,
		Kind:        j.spec.Kind,
		Fig:         j.spec.Fig,
		Tenant:      j.tenant,
		Priority:    j.priority,
		State:       j.state,
		Submits:     j.submits,
		Attempts:    j.attempts,
		SubmittedAt: j.submittedAt,
		StartedAt:   j.startedAt,
		FinishedAt:  j.finishedAt,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	for name := range j.artifacts {
		st.Artifacts = append(st.Artifacts, name)
	}
	sort.Strings(st.Artifacts)
	return st
}

// Close stops the scheduler: running jobs are cooperatively canceled (and
// left interrupted, so a durable scheduler resumes them), queued jobs
// stay pending in the event journal, and workers are waited for until
// ctx expires; an event log New opened is closed last. A nil ctx waits
// without bound.
func (s *Scheduler) Close(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosing := s.closing
	s.closing = true
	for _, j := range s.jobs {
		if j.state == StateRunning && j.cancel != nil {
			j.cancel()
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	if ctx != nil {
		select {
		case <-done:
		case <-ctx.Done():
			return fmt.Errorf("jobs: close: %w", ctx.Err())
		}
	} else {
		<-done
	}
	if !alreadyClosing && s.ownsEvents {
		return s.events.Close()
	}
	return nil
}

// jsonMarshalIndent renders v as pretty-printed JSON with a trailing
// newline (the shape `curl | jq`-free users expect from an artifact).
func jsonMarshalIndent(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
