package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/appmodel"
	"repro/internal/evalengine"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/runctl"
)

// runParallel is Run with Options.Workers > 1: candidate architectures of
// one size class are probed speculatively on concurrent engines, then the
// class is replayed in enumeration order to make the exact decisions of
// runSequential — the same candidates pruned, the same counters, the same
// break to the next size class at the first unschedulable candidate, the
// same winner. A probe is pure (its result depends only on the candidate,
// never on other probes), so speculation changes what is computed when,
// not what is decided.
//
// Two counters deliberately diverge from the sequential path in an
// observable-but-benign way: EvalStats reports all work actually
// performed, including probes whose results the replay discards, and its
// Invalidations stays 0 because every probe gets a fresh engine instead
// of rebinding one. Result.ArchsExplored and Result.Evaluations count
// replay-consumed work only and match runSequential exactly.
func runParallel(ctx context.Context, app *appmodel.Application, pl *platform.Platform, opts Options) (*Result, error) {
	start := time.Now()
	span := opts.runSpan(app)
	defer span.End()
	enum := platform.NewEnumerator(pl)
	res := &Result{}
	var agg evalengine.Stats
	// The per-node-type SFP analyses are keyed on the platform node, not
	// the candidate architecture, so one cache serves every engine of the
	// run — the same reuse the sequential shared engine gets.
	sfpc := evalengine.NewSFPCache()
	bestCost := opts.MaxCost
	if bestCost <= 0 {
		bestCost = 1e308
	}
	// Progress ticks come from the deterministic replay, not the
	// speculative probes, so the published trajectory matches the
	// sequential path's counts exactly.
	archPh := opts.Progress.Phase("core.archs")

	// finalize closes out the run on every exit path — complete or
	// canceled — so a partial Result carries fully accounted stats.
	finalize := func() {
		res.EvalStats = agg
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

	for n := 1; n <= enum.MaxNodes(); n++ {
		// Between-size-class cancellation boundary (probes below check the
		// context between tabu iterations and trials themselves).
		if cerr := runctl.Err(ctx); cerr != nil {
			return canceled(cerr)
		}
		var cands []*platform.Architecture
		for idx := 0; ; idx++ {
			ar := enum.Arch(n, idx)
			if ar == nil {
				break
			}
			cands = append(cands, ar)
		}
		floors := make([]float64, len(cands))
		for i, ar := range cands {
			// Fig. 5 line 6 floor; for MAX the fixed levels determine it.
			if opts.Strategy == MAX {
				ar.SetMaxHardening()
				floors[i] = ar.Cost()
			} else {
				floors[i] = ar.MinCost()
			}
		}
		results := make([]probeResult, len(cands))

		// Launch a probe for every candidate the replay could possibly
		// consume: bestCost only shrinks, so a candidate at or above the
		// class-entry bound is pruned by the replay with certainty.
		var launch []int
		for i := range cands {
			if floors[i] < bestCost {
				launch = append(launch, i)
			}
		}
		if len(launch) > 1 {
			inFlight := opts.Workers
			if inFlight > len(launch) {
				inFlight = len(launch)
			}
			innerW := opts.Workers / inFlight
			if innerW < 1 {
				innerW = 1
			}
			// The first unschedulable candidate ends the size class, so
			// probes beyond a known-unschedulable index are abandoned
			// speculation; the replay recomputes one on the rare path
			// where it turns out to be needed after all.
			var minInfeasible atomic.Int64
			minInfeasible.Store(int64(len(cands)))
			sem := make(chan struct{}, inFlight)
			var wg sync.WaitGroup
			for _, i := range launch {
				sem <- struct{}{}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					defer func() { <-sem }()
					if int64(i) > minInfeasible.Load() {
						return
					}
					results[i] = probeArch(ctx, app, pl, cands[i], opts, innerW, sfpc, span, i, true)
					r := &results[i]
					if r.err == nil && !r.sl.Solution.Feasible() {
						for {
							m := minInfeasible.Load()
							if int64(i) >= m || minInfeasible.CompareAndSwap(m, int64(i)) {
								break
							}
						}
					}
				}(i)
			}
			wg.Wait()
		} else if len(launch) == 1 {
			// A lone launchable candidate gets the full worker budget.
			results[launch[0]] = probeArch(ctx, app, pl, cands[launch[0]], opts, opts.Workers, sfpc, span, launch[0], false)
		}

		// Replay the class in enumeration order, consuming probe results
		// where runSequential would have evaluated.
		for i := range cands {
			res.ArchsExplored++
			archPh.Add(1)
			if floors[i] >= bestCost {
				continue
			}
			r := &results[i]
			if !r.done {
				// Not launched or abandoned, yet reached by the replay:
				// compute it now (nothing else is running).
				*r = probeArch(ctx, app, pl, cands[i], opts, opts.Workers, sfpc, span, i, false)
			}
			if r.err != nil {
				if errors.Is(r.err, runctl.ErrCanceled) {
					// Fold in the work the class's finished probes did
					// before handing back the best complete solution.
					for k := range results {
						if results[k].done {
							agg.Add(results[k].stats)
						}
					}
					return canceled(r.err)
				}
				return nil, r.err
			}
			res.Evaluations += r.sl.Evaluations
			if !r.sl.Solution.Feasible() {
				break // grow the architecture (Fig. 5 line 15)
			}
			res.Evaluations += r.co.Evaluations
			cand := r.co
			if !cand.Solution.Feasible() {
				cand = r.sl // defensive: keep the feasible schedule-length result
			}
			if cand.Solution.Feasible() && cand.Solution.Cost < bestCost {
				bestCost = cand.Solution.Cost
				final := cands[i].Clone()
				copy(final.Levels, cand.Solution.Levels)
				res.Feasible = true
				res.Arch = final
				res.Mapping = cand.Mapping
				// Copied out of the probe engine's slabs, as in runSequential.
				res.Ks = slices.Clone(cand.Solution.Ks)
				res.Schedule = cand.Solution.Schedule.Clone()
				res.Cost = cand.Solution.Cost
				archPh.Best(bestCost)
				opts.Log.Debug("new best architecture",
					"strategy", opts.Strategy.String(),
					"nodes", n, "index", i, "cost", bestCost, "span", span.ID())
			}
		}
		for i := range results {
			if results[i].done {
				agg.Add(results[i].stats)
			}
		}
	}
	finalize()
	return res, nil
}

// probeResult is one candidate architecture's speculative evaluation.
type probeResult struct {
	done  bool
	sl    *mapping.Result // best mapping for schedule length
	co    *mapping.Result // cost re-optimization (nil when sl infeasible)
	stats evalengine.Stats
	err   error
}

// probeArch runs the two mapping optimizations of Fig. 5 lines 7–9 for
// one candidate on a fresh concurrent engine with the given worker count.
// runSpan/idx/speculative feed the candidate's arch span; concurrent
// probes become concurrent sibling spans under the run. A panic anywhere
// in the probe — probes run on speculative goroutines, where an escaped
// panic would kill the process — is recovered into r.err as a
// *runctl.PanicError.
func probeArch(ctx context.Context, app *appmodel.Application, pl *platform.Platform, ar *platform.Architecture, opts Options, workers int, sfpc *evalengine.SFPCache, runSpan *obs.Span, idx int, speculative bool) (r probeResult) {
	r.done = true
	defer runctl.Recover(fmt.Sprintf("core probe (size %d, index %d)", len(ar.Nodes), idx), &r.err)
	span := runSpan.Child("arch",
		obs.Int("nodes", len(ar.Nodes)),
		obs.Int("index", idx),
		obs.Int("workers", workers),
		obs.Bool("speculative", speculative))
	defer span.End()
	ce := evalengine.NewConcurrentWith(problem(app, pl, ar, opts), workers, sfpc)
	ce.SetMetrics(opts.Metrics)
	// The probe's engine dies with the probe: retire its live gauges so
	// the run's registry does not pin it (runSequential does the same in
	// finalize for its one engine).
	defer ce.RetireMetrics()
	ce.SetProgress(opts.Progress)
	ce.SetPersistent(opts.EvalCache)
	ce.Worker(0).SetTraceSpan(span)
	r.sl, r.err = mapping.OptimizeConcurrentContext(ctx, ce, nil, mapping.ScheduleLength, opts.MappingParams)
	if r.err == nil && r.sl.Solution.Feasible() {
		r.co, r.err = mapping.OptimizeConcurrentContext(ctx, ce, r.sl.Mapping, mapping.ArchitectureCost, opts.MappingParams)
	}
	if r.err == nil {
		span.SetAttr(obs.Bool("feasible", r.sl.Solution.Feasible()))
	}
	r.stats = ce.Stats()
	// Flush the probe's memoized work — its engine is about to be
	// discarded, and the next process (or a rerun of a canceled sweep)
	// can warm-start from it.
	ce.FlushPersistent()
	return r
}
