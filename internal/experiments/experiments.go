// Package experiments is the evaluation harness reproducing Section 7 of
// the paper: acceptance-rate sweeps over hardening performance degradation
// (HPD), soft error rate (SER) and maximum architecture cost (ArC) for the
// MIN, MAX and OPT design strategies on batches of synthetic applications,
// plus the ablation studies called out in DESIGN.md.
//
// An application is accepted when the strategy finds an implementation
// that meets its reliability goal, is schedulable, and does not exceed the
// maximum architectural cost.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/evalcache"
	"repro/internal/evalengine"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/sched"
	"repro/internal/shard"
	"repro/internal/taskgen"
)

// RowStore is where completed rows are journaled and restored from. A
// *runstate.Journal is the production store for a live run; a *shard.Rows
// (the read-only union of per-shard journals) is the store of a merge.
type RowStore interface {
	// Lookup reports whether key has a stored row, unmarshalling its
	// payload into v when v is non-nil.
	Lookup(key string, v any) bool
	// Record stores a freshly completed row under key.
	Record(key string, v any) error
}

// jobsStarted counts batch jobs that began real work, across all
// AcceptanceStats calls; the fail-fast regression test reads it to prove
// that a failing batch does not run to completion.
var jobsStarted atomic.Int64

// testAppHook, when non-nil, runs at the start of every application job.
// Tests use it to inject panics at a deterministic point inside the
// batch goroutines; it is never set in production.
var testAppHook func(seed int64)

// Config controls batch size and execution of an experiment run.
type Config struct {
	// Apps is the number of synthetic applications per process count
	// (the paper uses 150; the default harness uses fewer for a quick
	// turnaround — pass -apps to cmd/paperbench for full scale).
	Apps int
	// Procs lists the application sizes (paper: 20 and 40).
	Procs []int
	// Seed bases the deterministic generation.
	Seed int64
	// Workers bounds the parallelism across applications of a batch
	// (0 = GOMAXPROCS).
	Workers int
	// MappingParams tunes the tabu search.
	MappingParams mapping.Params
	// Model selects the recovery-slack accounting for all runs.
	Model sched.SlackModel
	// Graphs splits each generated application into this many task
	// graphs (0 or 1 = single graph).
	Graphs int
	// Span, when non-nil, nests the harness's per-point and per-app spans
	// (and the design runs under them) below it; Metrics receives the
	// counters of every run; Progress receives live progress (the
	// "experiments.apps" phase per batch application, "experiments.rows"
	// per runtime-study row, plus the per-run phases underneath); Log
	// receives structured records (one per sweep point / study row). All
	// are optional observability hooks — see internal/obs.
	Span     *obs.Span
	Metrics  *obs.Registry
	Progress *obs.Progress
	Log      *obs.Logger
	// Events, when non-nil, receives low-rate lifecycle events the fleet
	// event stream surfaces per job: currently one "app.timeout" per
	// application that hit AppTimeout. Like the other hooks it is
	// observation-only and nil-disabled.
	Events *obs.EventScope
	// AppTimeout, when > 0, puts a deadline on each application's design
	// runs. An application that exceeds it is counted as rejected for
	// every strategy (and in the experiments.app_timeouts counter) and the
	// sweep continues — a single pathological instance slows a row down,
	// it does not kill the run.
	AppTimeout time.Duration
	// Journal, when non-nil, makes the sweep crash-safe: every completed
	// row (acceptance point or runtime-study row) is recorded under a
	// deterministic key, and a later run with the same configuration
	// restores recorded rows instead of recomputing them. Deterministic
	// generation makes restored and recomputed rows byte-identical.
	// Production runs pass a *runstate.Journal; merges pass the read-only
	// union of per-shard journals. Assign only non-nil concrete values.
	Journal RowStore
	// ShardIndex/ShardCount shard the sweep: with ShardCount > 1 this
	// process computes only the rows that shard.Index assigns to
	// ShardIndex — the other rows are skipped (rendered as "-" cells) and
	// contribute nothing to progress totals, so N workers with disjoint
	// indices cover the grid exactly once. ShardIndex = -1 with
	// ShardCount > 1 means "own every row" and is used by the merge step
	// for shard attribution in its error messages.
	ShardIndex int
	ShardCount int
	// RequireJournaled is the merge step's strict mode: a row that does
	// not restore from Journal is an error naming the shard that should
	// have produced it, instead of being recomputed. Merges must never
	// compute — that is what makes the merged table provably the union of
	// what the workers ran.
	RequireJournaled bool
	// Missing, when non-nil alongside RequireJournaled, switches the
	// strict merge to degraded mode: a row that does not restore is
	// collected here and rendered as "!" cells instead of failing the
	// merge. The caller turns the collected keys into an incomplete.json
	// manifest naming each hole and its owning shard.
	Missing *MissingRows
	// RowDone, when non-nil, is called with the journal key of each row
	// after it was freshly computed (journal-restored rows do not fire
	// it). Tests use it to cancel at exact row boundaries.
	RowDone func(key string)
	// EvalCache, when non-nil, is the disk-backed evaluation cache every
	// design run loads from and flushes to (core.Options.EvalCache):
	// reruns and CI repeats warm-start instead of recomputing schedules.
	EvalCache *evalcache.Cache
}

// MissingRows collects, during a degraded merge, the journal key of
// every row that failed to restore. Safe for concurrent use.
type MissingRows struct {
	mu   sync.Mutex
	keys []string
}

func (m *MissingRows) add(key string) {
	m.mu.Lock()
	m.keys = append(m.keys, key)
	m.mu.Unlock()
}

// Keys returns the missing journal keys in the order the render
// encountered them (deterministic: figure rendering is sequential).
func (m *MissingRows) Keys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.keys))
	copy(out, m.keys)
	return out
}

// missingRates is the degraded-merge marker for an unrestorable point:
// NaN per strategy, which cell renders as "!".
func missingRates() Rates {
	return Rates{core.MIN: math.NaN(), core.MAX: math.NaN(), core.OPT: math.NaN()}
}

// rowDone journals a freshly computed row and fires the RowDone hook.
func (c Config) rowDone(key string, v any) error {
	if c.Journal != nil {
		if err := c.Journal.Record(key, v); err != nil {
			return err
		}
	}
	if c.RowDone != nil {
		c.RowDone(key)
	}
	return nil
}

// rowRestore consults the journal for a previously completed row.
func (c Config) rowRestore(key string, v any) bool {
	return c.Journal != nil && c.Journal.Lookup(key, v)
}

// owns reports whether this process is responsible for computing the row
// with the given journal key under the configured sharding (always true
// unsharded; ShardIndex -1 owns everything).
func (c Config) owns(key string) bool {
	if c.ShardCount <= 1 || c.ShardIndex < 0 {
		return true
	}
	return shard.Index(key, c.ShardCount) == c.ShardIndex
}

// missingRow is the strict-mode (merge) error for a row that did not
// restore: it names the shard whose journal should hold the row, so the
// operator knows which worker to rerun before merging again.
func (c Config) missingRow(key string) error {
	if c.ShardCount > 1 {
		return fmt.Errorf("experiments: row %q is not journaled — shard %d of %d is incomplete (rerun that worker with -resume, then merge again)",
			key, shard.Index(key, c.ShardCount), c.ShardCount)
	}
	return fmt.Errorf("experiments: row %q is not journaled", key)
}

// DefaultConfig returns a configuration sized for minutes-scale runs.
func DefaultConfig() Config {
	return Config{Apps: 20, Procs: []int{20, 40}, Seed: 1}
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Point is one configuration of the sweep space.
type Point struct {
	SER float64 // transient error rate per cycle at minimum hardening
	HPD float64 // hardening performance degradation, percent
	ArC float64 // maximum architectural cost
}

// Rates maps each strategy to its acceptance percentage at a point.
type Rates map[core.Strategy]float64

// pointKey is the journal key of one acceptance point. The slack model
// and tabu tuning participate because the ablation studies revisit the
// same (SER, HPD, ArC) coordinates under different models; the figure
// name deliberately does not, so identical points shared between figures
// (Fig. 6a and 6c both evaluate SER=1e-11, HPD=5, ArC=20) are computed
// once per journal.
func (c Config) pointKey(pt Point) string {
	mp := c.MappingParams
	return fmt.Sprintf("acceptance|model=%d|tabu=%d,%d,%d|graphs=%d|ser=%g|hpd=%g|arc=%g",
		c.Model, mp.TabuTenure, mp.MaxNoImprove, mp.MaxIterations, c.Graphs, pt.SER, pt.HPD, pt.ArC)
}

// Acceptance evaluates all three strategies at the given point over the
// configured application batch and returns the acceptance percentages.
// The context is consulted between applications and between the
// strategies of one application; a done context drains the in-flight
// jobs and returns an error wrapping runctl.ErrCanceled.
func Acceptance(ctx context.Context, cfg Config, pt Point) (Rates, error) {
	rates, _, err := AcceptanceStats(ctx, cfg, pt)
	return rates, err
}

// AcceptanceStats is Acceptance plus the per-strategy evaluation-engine
// counters summed over the batch, for the runtime instrumentation
// reports. A point restored from cfg.Journal returns its recorded rates
// with empty stats (no work was performed).
func AcceptanceStats(ctx context.Context, cfg Config, pt Point) (Rates, map[core.Strategy]evalengine.Stats, error) {
	strategies := []core.Strategy{core.MIN, core.MAX, core.OPT}
	type job struct {
		seed  int64
		procs int
	}
	var jobs []job
	for _, n := range cfg.Procs {
		for i := 0; i < cfg.Apps; i++ {
			jobs = append(jobs, job{seed: cfg.Seed + int64(i) + int64(n)*1000003, procs: n})
		}
	}
	if len(jobs) == 0 {
		return nil, nil, fmt.Errorf("experiments: empty batch (Apps=%d, Procs=%v)", cfg.Apps, cfg.Procs)
	}
	key := cfg.pointKey(pt)
	if saved := make(map[string]float64); cfg.rowRestore(key, &saved) {
		// JSON round-trips float64 exactly, so a restored rate formats to
		// the same bytes the original run printed.
		rates := make(Rates, len(strategies))
		for _, s := range strategies {
			rates[s] = saved[s.String()]
		}
		appPh := cfg.Progress.Phase("experiments.apps")
		appPh.AddTotal(int64(len(jobs)))
		appPh.Add(int64(len(jobs)))
		cfg.Metrics.Counter("experiments.rows_restored").Add(1)
		cfg.Log.Info("acceptance point restored from journal",
			"ser", pt.SER, "hpd", pt.HPD, "arc", pt.ArC, "key", key)
		return rates, map[core.Strategy]evalengine.Stats{}, nil
	}
	if cfg.RequireJournaled {
		if cfg.Missing != nil {
			// Degraded merge: record the hole and render it as "!" cells
			// instead of refusing the whole table.
			cfg.Missing.add(key)
			cfg.Metrics.Counter("experiments.rows_missing").Add(1)
			return missingRates(), map[core.Strategy]evalengine.Stats{}, nil
		}
		return nil, nil, cfg.missingRow(key)
	}
	if !cfg.owns(key) {
		// Another shard computes this point: report nothing (callers render
		// "-" cells) and contribute nothing to the progress totals, so a
		// worker's /progress is slice-local.
		return nil, nil, nil
	}
	if cerr := runctl.Err(ctx); cerr != nil {
		cfg.Metrics.Counter("experiments.canceled").Add(1)
		return nil, nil, fmt.Errorf("experiments: acceptance point: %w", cerr)
	}
	ptSpan := cfg.Span.Child("acceptance",
		obs.Float("ser", pt.SER),
		obs.Float("hpd", pt.HPD),
		obs.Float("arc", pt.ArC),
		obs.Int("jobs", len(jobs)))
	defer ptSpan.End()
	appPh := cfg.Progress.Phase("experiments.apps")
	appPh.AddTotal(int64(len(jobs)))

	counts := make(map[core.Strategy]int)
	stats := make(map[core.Strategy]evalengine.Stats)
	var mu sync.Mutex
	var firstErr error
	// A failing batch fails fast: the first error stops new jobs from
	// launching and makes in-flight jobs bail before their next strategy,
	// instead of grinding through the rest of the batch for a result that
	// is discarded anyway. Cancellation rides the same machinery.
	var stop atomic.Bool
	record := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	// runApp runs the three strategies for one application. A panic
	// anywhere inside — these run on batch goroutines, where an escaped
	// panic would kill the whole process — comes back as a
	// *runctl.PanicError.
	runApp := func(jb job) (err error) {
		defer runctl.Recover(fmt.Sprintf("experiments app (seed %d, %d procs)", jb.seed, jb.procs), &err)
		if testAppHook != nil {
			testAppHook(jb.seed)
		}
		appSpan := ptSpan.Child("app",
			obs.Int64("seed", jb.seed),
			obs.Int("processes", jb.procs))
		defer appSpan.End()
		appCtx := ctx
		if cfg.AppTimeout > 0 {
			parent := ctx
			if parent == nil {
				parent = context.Background()
			}
			var cancel context.CancelFunc
			appCtx, cancel = context.WithTimeout(parent, cfg.AppTimeout)
			defer cancel()
		}
		gcfg := taskgen.DefaultConfig(jb.seed, jb.procs, pt.SER, pt.HPD)
		gcfg.NumGraphs = cfg.Graphs
		inst, err := taskgen.Generate(gcfg)
		if err != nil {
			return err
		}
		for _, s := range strategies {
			if stop.Load() {
				return nil
			}
			if cerr := runctl.Err(ctx); cerr != nil {
				return cerr
			}
			res, err := core.RunContext(appCtx, inst.App, inst.Platform, core.Options{
				Goal:          inst.Goal,
				Strategy:      s,
				MaxCost:       pt.ArC,
				Model:         cfg.Model,
				MappingParams: cfg.MappingParams,
				ParentSpan:    appSpan,
				Metrics:       cfg.Metrics,
				Progress:      cfg.Progress,
				Log:           cfg.Log,
				EvalCache:     cfg.EvalCache,
			})
			if err != nil {
				// A per-app deadline miss while the sweep itself is live:
				// the application counts as rejected for every strategy and
				// the batch moves on.
				if errors.Is(err, context.DeadlineExceeded) && runctl.Err(ctx) == nil {
					cfg.Metrics.Counter("experiments.app_timeouts").Add(1)
					cfg.Log.Warn("application timed out, counted as rejected",
						"seed", jb.seed, "processes", jb.procs,
						"strategy", s.String(), "timeout", cfg.AppTimeout)
					cfg.Events.Emit("app.timeout", map[string]any{
						"seed": jb.seed, "processes": jb.procs,
						"strategy": s.String(), "timeout_ms": cfg.AppTimeout.Milliseconds(),
					})
					appSpan.SetAttr(obs.Bool("timeout", true))
					return nil
				}
				return err
			}
			mu.Lock()
			if res.Feasible {
				counts[s]++
			}
			agg := stats[s]
			agg.Add(res.EvalStats)
			stats[s] = agg
			mu.Unlock()
		}
		return nil
	}
	sem := make(chan struct{}, cfg.workers())
	var wg sync.WaitGroup
	for _, jb := range jobs {
		if stop.Load() {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(jb job) {
			defer wg.Done()
			defer func() { <-sem }()
			if stop.Load() {
				return
			}
			jobsStarted.Add(1)
			defer appPh.Add(1) // abandoned jobs still count toward the batch
			if err := runApp(jb); err != nil {
				record(err)
			}
		}(jb)
	}
	wg.Wait()
	if firstErr != nil {
		if errors.Is(firstErr, runctl.ErrCanceled) {
			cfg.Metrics.Counter("experiments.canceled").Add(1)
			cfg.Log.Info("acceptance point canceled",
				"ser", pt.SER, "hpd", pt.HPD, "arc", pt.ArC, "span", ptSpan.ID())
			return nil, nil, fmt.Errorf("experiments: acceptance point: %w", firstErr)
		}
		cfg.Log.Error("acceptance point failed",
			"ser", pt.SER, "hpd", pt.HPD, "arc", pt.ArC,
			"err", firstErr.Error(), "span", ptSpan.ID())
		return nil, nil, firstErr
	}
	rates := make(Rates, len(strategies))
	payload := make(map[string]float64, len(strategies))
	for _, s := range strategies {
		rates[s] = 100 * float64(counts[s]) / float64(len(jobs))
		payload[s.String()] = rates[s]
	}
	if err := cfg.rowDone(key, payload); err != nil {
		return nil, nil, err
	}
	cfg.Log.Info("acceptance point done",
		"ser", pt.SER, "hpd", pt.HPD, "arc", pt.ArC, "jobs", len(jobs),
		"min", rates[core.MIN], "max", rates[core.MAX], "opt", rates[core.OPT],
		"span", ptSpan.ID())
	return rates, stats, nil
}

// Sweep evaluates a list of points and returns the rates in order. On
// cancellation the returned slice still carries every completed point —
// nil entries mark the rest — alongside the typed error, so callers can
// render partial tables.
func Sweep(ctx context.Context, cfg Config, pts []Point) ([]Rates, error) {
	out := make([]Rates, len(pts))
	for i, pt := range pts {
		r, err := Acceptance(ctx, cfg, pt)
		if err != nil {
			return out, fmt.Errorf("experiments: point %+v: %w", pt, err)
		}
		out[i] = r
	}
	return out, nil
}

// The sweep axes of the paper's Fig. 6.
var (
	// HPDs are the hardening performance degradations of Fig. 6a/6b.
	HPDs = []float64{5, 25, 50, 100}
	// SERs are the soft error rates of Fig. 6c/6d.
	SERs = []float64{1e-12, 1e-11, 1e-10}
	// ArCs are the maximum architecture costs of Fig. 6b.
	ArCs = []float64{15, 20, 25}
)

// cell formats one strategy's acceptance rate, "-" when the point was
// not reached before cancellation or belongs to another shard, or "!"
// when a degraded merge found the point missing from every journal.
func cell(r Rates, s core.Strategy) string {
	if r == nil {
		return "-"
	}
	if v := r[s]; math.IsNaN(v) {
		return "!"
	}
	return fmt.Sprintf("%.0f", r[s])
}

// Fig6a reproduces Fig. 6a: % accepted architectures as a function of HPD
// for SER = 1e-11 and ArC = 20. On cancellation it returns the partial
// table — completed points filled in, the rest "-" — together with the
// typed error, so the operator keeps every finished row.
func Fig6a(ctx context.Context, cfg Config) (*Table, error) {
	pts := make([]Point, len(HPDs))
	for i, hpd := range HPDs {
		pts[i] = Point{SER: 1e-11, HPD: hpd, ArC: 20}
	}
	rates, err := Sweep(ctx, cfg, pts)
	if err != nil && !errors.Is(err, runctl.ErrCanceled) {
		return nil, err
	}
	t := NewTable("Fig. 6a — % accepted vs HPD (SER=1e-11, ArC=20)",
		append([]string{"strategy"}, labels(HPDs, "HPD=%g%%")...))
	for _, s := range []core.Strategy{core.MAX, core.MIN, core.OPT} {
		row := []string{s.String()}
		for i := range pts {
			row = append(row, cell(rates[i], s))
		}
		t.AddRow(row)
	}
	return t, err
}

// Fig6b reproduces the Fig. 6b table: % accepted for each HPD and maximum
// architecture cost at SER = 1e-11. On cancellation the rows completed so
// far come back with the typed error.
func Fig6b(ctx context.Context, cfg Config) (*Table, error) {
	t := NewTable("Fig. 6b — % accepted by HPD and ArC (SER=1e-11)",
		[]string{"HPD", "ArC", "MAX", "MIN", "OPT"})
	for _, hpd := range HPDs {
		for _, arc := range ArCs {
			r, err := Acceptance(ctx, cfg, Point{SER: 1e-11, HPD: hpd, ArC: arc})
			if err != nil {
				if errors.Is(err, runctl.ErrCanceled) {
					return t, err
				}
				return nil, err
			}
			t.AddRow([]string{
				fmt.Sprintf("%g%%", hpd),
				fmt.Sprintf("%g", arc),
				cell(r, core.MAX),
				cell(r, core.MIN),
				cell(r, core.OPT),
			})
		}
	}
	return t, nil
}

// Fig6c reproduces Fig. 6c: % accepted as a function of SER for HPD = 5%
// and ArC = 20.
func Fig6c(ctx context.Context, cfg Config) (*Table, error) {
	return serSweep(ctx, cfg, 5, "Fig. 6c")
}

// Fig6d reproduces Fig. 6d: % accepted as a function of SER for HPD =
// 100% and ArC = 20.
func Fig6d(ctx context.Context, cfg Config) (*Table, error) {
	return serSweep(ctx, cfg, 100, "Fig. 6d")
}

func serSweep(ctx context.Context, cfg Config, hpd float64, name string) (*Table, error) {
	pts := make([]Point, len(SERs))
	for i, ser := range SERs {
		pts[i] = Point{SER: ser, HPD: hpd, ArC: 20}
	}
	rates, err := Sweep(ctx, cfg, pts)
	if err != nil && !errors.Is(err, runctl.ErrCanceled) {
		return nil, err
	}
	t := NewTable(fmt.Sprintf("%s — %% accepted vs SER (HPD=%g%%, ArC=20)", name, hpd),
		append([]string{"strategy"}, labels(SERs, "SER=%.0e")...))
	for _, s := range []core.Strategy{core.MAX, core.MIN, core.OPT} {
		row := []string{s.String()}
		for i := range pts {
			row = append(row, cell(rates[i], s))
		}
		t.AddRow(row)
	}
	return t, err
}

func labels(xs []float64, format string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf(format, x)
	}
	return out
}
