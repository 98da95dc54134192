// Package core implements the outer design optimization strategy of the
// paper (Fig. 5): an exploration of candidate architectures that, for each
// one, runs the tabu-search mapping optimization with its embedded
// hardening/re-execution trade-off, and returns the cheapest architecture
// that satisfies both the hard deadlines and the reliability goal.
//
// Three strategies are provided, matching the experimental evaluation of
// Section 7:
//
//   - OPT — the full DesignStrategy with hardening optimization
//     (RedundancyOpt) inside the mapping algorithm;
//   - MIN — computation nodes fixed at their minimum hardening levels,
//     fault tolerance achieved with software re-execution only;
//   - MAX — computation nodes fixed at their maximum hardening levels.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/appmodel"
	"repro/internal/evalcache"
	"repro/internal/evalengine"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/runctl"
	"repro/internal/sched"
	"repro/internal/sfp"
	"repro/internal/ttp"
)

// Strategy selects the design strategy variant.
type Strategy int

const (
	// OPT is the paper's full design optimization with the
	// hardening/re-execution trade-off (Section 6).
	OPT Strategy = iota
	// MIN fixes all nodes at minimum hardening (software-only fault
	// tolerance).
	MIN
	// MAX fixes all nodes at maximum hardening.
	MAX
)

// String returns the strategy name as used in the paper's plots.
func (s Strategy) String() string {
	switch s {
	case OPT:
		return "OPT"
	case MIN:
		return "MIN"
	case MAX:
		return "MAX"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures a design run.
type Options struct {
	// Goal is the reliability goal ρ = 1 − γ per time unit τ.
	Goal sfp.Goal
	// Strategy selects OPT (default), MIN or MAX.
	Strategy Strategy
	// MaxK caps re-executions per node (0 = sfp.DefaultMaxK).
	MaxK int
	// Model selects the recovery-slack accounting (default shared).
	Model sched.SlackModel
	// MappingParams tunes the tabu search (zero values = defaults).
	MappingParams mapping.Params
	// MaxCost, when positive, prunes architectures whose minimum
	// attainable cost already exceeds it and rejects final solutions
	// above it. It corresponds to the maximum architectural cost ArC of
	// the experimental evaluation.
	MaxCost float64
	// Workers, when > 1, spreads the run over that many goroutines:
	// candidate architectures of a size class are probed concurrently and
	// the tabu neighborhoods inside each probe are evaluated by a worker
	// pool. The result is identical to the sequential path — candidates
	// are selected by a deterministic replay in enumeration order
	// (TestParallelMatchesSequential). 0 or 1 means sequential.
	Workers int
	// Tracer, when non-nil, records the run as hierarchical spans — one
	// per candidate architecture, per mapping optimization, per tabu
	// iteration and per RedundancyOpt hardening search — exportable as
	// Chrome trace_event JSON (see internal/obs and the span taxonomy in
	// DESIGN.md). Instrumentation does not alter the result.
	Tracer *obs.Tracer
	// ParentSpan nests the run under an existing span instead of starting
	// a root span on Tracer; when set it wins over Tracer. Experiment
	// harnesses use it to group runs under per-row spans.
	ParentSpan *obs.Span
	// Metrics, when non-nil, receives the run's counters (core.*,
	// evalengine.*, mapping.*) and duration histograms.
	Metrics *obs.Registry
	// Progress, when non-nil, receives live progress: the run ticks the
	// "core.archs" phase per candidate architecture (with the best cost so
	// far), and the tabu search below it ticks "mapping.iterations". Like
	// the other observability hooks it is observation-only — nothing in
	// the search reads it — so publication cannot alter results.
	Progress *obs.Progress
	// Log, when non-nil, receives structured log records: one info line
	// per finished run and a debug line per candidate architecture, with
	// span IDs so lines correlate with the trace. nil logs nothing.
	Log *obs.Logger
	// EvalCache, when non-nil, is the disk-backed evaluation cache the
	// run's memoized solutions are loaded from and flushed to (warm
	// starts across processes). Like the in-memory caches it cannot alter
	// results — entries are deterministic values of their content key —
	// so reruns with and without it produce identical designs.
	EvalCache *evalcache.Cache
}

// runSpan opens the root span of one design run.
func (o Options) runSpan(app *appmodel.Application) *obs.Span {
	attrs := []obs.Attr{
		obs.String("strategy", o.Strategy.String()),
		obs.Int("processes", app.NumProcesses()),
		obs.Int("workers", o.Workers),
	}
	if o.ParentSpan != nil {
		return o.ParentSpan.Child("core.run", attrs...)
	}
	return o.Tracer.Start("core.run", attrs...)
}

// publish folds a finished run's counters into the metrics registry.
func (o Options) publish(res *Result, elapsed time.Duration) {
	r := o.Metrics
	if r == nil {
		return
	}
	r.Counter("core.runs").Add(1)
	r.Counter("core.archs_explored").Add(int64(res.ArchsExplored))
	r.Counter("core.evaluations").Add(int64(res.Evaluations))
	r.Histogram("core.run").Observe(elapsed)
	res.EvalStats.Publish(r)
}

// logDone emits the run-completed info record, correlated to the run
// span by ID.
func (o Options) logDone(span *obs.Span, res *Result, elapsed time.Duration) {
	o.Log.Info("core.run done",
		"strategy", o.Strategy.String(),
		"feasible", res.Feasible,
		"cost", res.Cost,
		"archs", res.ArchsExplored,
		"evaluations", res.Evaluations,
		"elapsed", elapsed,
		"span", span.ID())
}

// Result is the outcome of a design run.
type Result struct {
	// Feasible reports whether any architecture satisfied both the
	// deadlines and the reliability goal (within MaxCost, if set).
	Feasible bool
	// Arch is the selected architecture with its final hardening levels
	// (nil when infeasible).
	Arch *platform.Architecture
	// Mapping assigns each process to an index into Arch.Nodes.
	Mapping []int
	// Ks are the re-execution counts per architecture node.
	Ks []int
	// Schedule is the final static schedule.
	Schedule *sched.Schedule
	// Cost is the total architecture cost.
	Cost float64
	// ArchsExplored counts candidate architectures evaluated.
	ArchsExplored int
	// Evaluations counts RedundancyOpt invocations across the run.
	Evaluations int
	// EvalStats reports what the shared evaluation engine did across the
	// whole run: cache effectiveness, schedule builds and time per layer.
	EvalStats evalengine.Stats
}

// Run executes the selected design strategy on the application over the
// platform's available nodes and returns the cheapest feasible
// implementation found.
//
// The exploration follows Fig. 5: start with the fastest monoprocessor
// architecture; whenever the application is unschedulable on the best
// mapping of the current architecture, grow the architecture by one node;
// otherwise record the cost-optimized solution and move to the next
// fastest architecture of the same size; prune architectures whose
// minimum cost cannot beat the best cost so far.
func Run(app *appmodel.Application, pl *platform.Platform, opts Options) (*Result, error) {
	return RunContext(context.Background(), app, pl, opts)
}

// RunContext is Run with cooperative cancellation: the context is
// consulted between candidate architectures (and, inside each candidate,
// between tabu iterations) — never inside an evaluation, so every number
// computed is bit-identical to an uncancelled run. A done context stops
// the exploration at the next boundary and returns the best complete
// solution found so far — a non-nil partial Result with its EvalStats
// finalized — together with an error wrapping runctl.ErrCanceled. A
// candidate whose mapping optimization was interrupted mid-search is
// discarded, never folded into the partial result, so resuming and
// re-running the exploration reproduces the same decisions.
func RunContext(ctx context.Context, app *appmodel.Application, pl *platform.Platform, opts Options) (*Result, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(app.NumProcesses()); err != nil {
		return nil, err
	}
	if err := opts.Goal.Validate(); err != nil {
		return nil, err
	}
	if opts.Workers > 1 {
		return runParallel(ctx, app, pl, opts)
	}
	return runSequential(ctx, app, pl, opts)
}

// runSequential is the reference single-goroutine exploration; the
// parallel path (parallel.go) replays candidate selection in this exact
// order.
func runSequential(ctx context.Context, app *appmodel.Application, pl *platform.Platform, opts Options) (*Result, error) {
	start := time.Now()
	span := opts.runSpan(app)
	defer span.End()
	enum := platform.NewEnumerator(pl)
	res := &Result{}
	// One evaluation engine is shared across the whole architecture loop:
	// rebinding it per candidate invalidates exactly what the architecture
	// change invalidates (solution caches when the node set differs, nothing
	// when only the mapping seed differs between the two Optimize calls),
	// while the per-node SFP analyses survive across candidates that reuse
	// the same platform nodes.
	var ev *evalengine.Evaluator
	bestCost := opts.MaxCost
	if bestCost <= 0 {
		bestCost = 1e308
	}
	archPh := opts.Progress.Phase("core.archs")

	// finalize closes out the run — stats, span attributes, metrics, log —
	// on every exit path, complete or canceled, so a partial Result is as
	// fully accounted as a finished one.
	finalize := func() {
		if ev != nil {
			res.EvalStats = ev.Stats()
			ev.FlushPersistent()
			ev.RetireMetrics()
		}
		span.SetAttr(
			obs.Bool("feasible", res.Feasible),
			obs.Int("archs_explored", res.ArchsExplored),
			obs.Int("evaluations", res.Evaluations))
		elapsed := time.Since(start)
		opts.publish(res, elapsed)
		opts.logDone(span, res, elapsed)
	}
	canceled := func(cause error) (*Result, error) {
		opts.Metrics.Counter("core.canceled").Add(1)
		span.SetAttr(obs.Bool("canceled", true))
		finalize()
		return res, fmt.Errorf("core: canceled after %d architectures: %w", res.ArchsExplored, cause)
	}

	n, idx := 1, 0
	for n <= enum.MaxNodes() {
		// Between-candidate cancellation boundary: a done context returns
		// the best complete solution so far, never a half-explored one.
		if cerr := runctl.Err(ctx); cerr != nil {
			return canceled(cerr)
		}
		ar := enum.Arch(n, idx)
		if ar == nil { // size-n candidates exhausted
			n++
			idx = 0
			continue
		}
		res.ArchsExplored++
		archPh.Add(1)

		// Fig. 5 line 6: skip architectures whose floor cost is already
		// too high. For MAX the fixed levels determine the cost floor.
		floor := ar.MinCost()
		if opts.Strategy == MAX {
			ar.SetMaxHardening()
			floor = ar.Cost()
		}
		archSpan := span.Child("arch",
			obs.Int("nodes", n),
			obs.Int("index", idx),
			obs.Float("floor_cost", floor))
		if floor >= bestCost {
			archSpan.SetAttr(obs.Bool("pruned", true))
			archSpan.End()
			idx++
			continue
		}

		prob := problem(app, pl, ar, opts)
		if ev == nil {
			ev = evalengine.New(prob)
			ev.SetMetrics(opts.Metrics)
			ev.SetProgress(opts.Progress)
			ev.SetPersistent(opts.EvalCache)
		} else {
			ev.SetProblem(prob)
		}
		ev.SetTraceSpan(archSpan)

		// Fig. 5 line 7: best mapping for schedule length.
		sl, err := mapping.OptimizeContext(ctx, ev, nil, mapping.ScheduleLength, opts.MappingParams)
		if err != nil {
			archSpan.End()
			if errors.Is(err, runctl.ErrCanceled) {
				return canceled(err)
			}
			return nil, err
		}
		res.Evaluations += sl.Evaluations

		if !sl.Solution.Feasible() {
			// Unschedulable (or unreliable) even at the best mapping:
			// grow the architecture (Fig. 5 line 15).
			archSpan.SetAttr(obs.Bool("feasible", false))
			archSpan.End()
			opts.Log.Debug("arch infeasible, growing",
				"strategy", opts.Strategy.String(),
				"nodes", n, "index", idx, "span", archSpan.ID())
			n++
			idx = 0
			continue
		}

		// Fig. 5 line 9: re-optimize the mapping for architecture cost,
		// seeded with the schedulable mapping.
		co, err := mapping.OptimizeContext(ctx, ev, sl.Mapping, mapping.ArchitectureCost, opts.MappingParams)
		if err != nil {
			archSpan.End()
			if errors.Is(err, runctl.ErrCanceled) {
				return canceled(err)
			}
			return nil, err
		}
		res.Evaluations += co.Evaluations
		archSpan.SetAttr(obs.Bool("feasible", true))
		archSpan.End()

		cand := co
		if !co.Solution.Feasible() {
			cand = sl // defensive: keep the feasible schedule-length result
		}
		if cand.Solution.Feasible() && cand.Solution.Cost < bestCost {
			bestCost = cand.Solution.Cost
			final := ar.Clone()
			copy(final.Levels, cand.Solution.Levels)
			res.Feasible = true
			res.Arch = final
			res.Mapping = cand.Mapping
			// Ks and Schedule live in the engine's slabs: copy them so the
			// result does not pin slab chunks full of other solutions.
			res.Ks = slices.Clone(cand.Solution.Ks)
			res.Schedule = cand.Solution.Schedule.Clone()
			res.Cost = cand.Solution.Cost
			archPh.Best(bestCost)
			opts.Log.Debug("new best architecture",
				"strategy", opts.Strategy.String(),
				"nodes", n, "index", idx, "cost", bestCost, "span", archSpan.ID())
		}
		idx++
	}
	finalize()
	return res, nil
}

// problem assembles the redundancy.Problem for one candidate architecture
// under the chosen strategy.
func problem(app *appmodel.Application, pl *platform.Platform, ar *platform.Architecture, opts Options) redundancy.Problem {
	p := redundancy.Problem{
		App:   app,
		Arch:  ar,
		Goal:  opts.Goal,
		MaxK:  opts.MaxK,
		Model: opts.Model,
	}
	if pl.Bus.SlotLen > 0 {
		p.Bus = ttp.NewBus(len(ar.Nodes), pl.Bus.SlotLen)
	}
	switch opts.Strategy {
	case MIN:
		levels := make([]int, len(ar.Nodes))
		for j, nd := range ar.Nodes {
			levels[j] = nd.MinLevel()
		}
		p.FixedLevels = levels
	case MAX:
		levels := make([]int, len(ar.Nodes))
		for j, nd := range ar.Nodes {
			levels[j] = nd.MaxLevel()
		}
		p.FixedLevels = levels
	}
	return p
}
