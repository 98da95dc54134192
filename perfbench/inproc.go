package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/evalengine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/taskgen"
)

// strategies is one operation of cc-design: the three designs of the
// paper's cruise-controller figure.
var strategies = [3]core.Strategy{core.MIN, core.MAX, core.OPT}

// ccLimit is the latency limit for within_limit_frac on cc-design, far
// above its p95 on a 2-vCPU box: a miss means a stall.
const ccLimit = 2 * time.Second

// strata hands out deadline factors spread evenly over [lo, hi]: every n
// draws cover n equal-width strata once each, in a seeded order, drawing
// uniformly inside the stratum. The marginal distribution stays
// uniform over [lo, hi], but the share of tight deadlines — which decides
// most of an app's cost — no longer varies from seed to seed.
type strata struct {
	rng    *rand.Rand
	lo, hi float64
	n      int
	order  []int
}

func newStrata(rng *rand.Rand, lo, hi float64, n int) *strata {
	return &strata{rng: rng, lo: lo, hi: hi, n: n}
}

func (s *strata) next() float64 {
	if len(s.order) == 0 {
		s.order = s.rng.Perm(s.n)
	}
	k := s.order[0]
	s.order = s.order[1:]
	return s.lo + (s.hi-s.lo)*(float64(k)+s.rng.Float64())/float64(s.n)
}

// op is one measured operation: the three designs of one problem.
type op struct {
	idx     int
	lat     time.Duration
	res     [3]*core.Result
	err     error
	objects uint64 // heap objects allocated
	bytes   uint64
	iters   int64 // traced only: mapping.iterations
	moves   int64 // traced only: mapping.moves
	tracer  *obs.Tracer
}

// design runs the three strategies on p. A traced operation records the
// program's spans under a benchmark span and counts into a registry.
func design(idx int, p problem, traced bool) op {
	o := op{idx: idx}
	var reg *obs.Registry
	var root *obs.Span
	if traced {
		reg = obs.NewRegistry()
		o.tracer = obs.NewTracer()
		root = o.tracer.Start("perfbench.design", obs.Int("index", idx))
	}
	obj0, b0 := allocs()
	start := time.Now()
	for k, s := range strategies {
		opts := p.options(s)
		if traced {
			opts.Metrics = reg
			opts.ParentSpan = root
		}
		o.res[k], o.err = core.Run(p.app, p.pl, opts)
		if o.err != nil {
			break
		}
		if sc := o.res[k].Schedule; sc != nil {
			// A schedule shares its workspace's slab; keeping only its
			// length keeps the run's garbage out of the live heap.
			o.res[k].Schedule = &sched.Schedule{Length: sc.Length}
		}
	}
	o.lat = time.Since(start)
	obj1, b1 := allocs()
	o.objects, o.bytes = obj1-obj0, b1-b0
	if traced {
		root.End()
		o.iters = reg.Counter("mapping.iterations").Value()
		o.moves = reg.Counter("mapping.moves").Value()
	}
	return o
}

// phase is one closed-loop measurement.
type phase struct {
	ops      []op // in index order
	wall     time.Duration
	gc0, gc1 gcSample
}

// closedLoop is one client that starts its next operation only after the
// previous one finished, until dur has passed or maxOps operations ran.
func closedLoop(dur time.Duration, maxOps int, get func(int) problem, traced bool) phase {
	var ph phase
	ph.gc0 = readGC()
	start := time.Now()
	for i := 0; i < maxOps && time.Since(start) < dur; i++ {
		ph.ops = append(ph.ops, design(i, get(i), traced))
	}
	ph.wall = time.Since(start)
	ph.gc1 = readGC()
	return ph
}

func (ph phase) latencies() []float64 {
	xs := make([]float64, len(ph.ops))
	for i, o := range ph.ops {
		xs[i] = ms(o.lat)
	}
	return xs
}

// inproc describes one in-process workload.
type inproc struct {
	limit  time.Duration
	maxOps int
	get    func(int) problem
	verify func(op) error
	setupS float64
	// replayFrom picks the design the layer replays run on.
	replayFrom func([]op) (problem, *core.Result)
}

func runCC(c config) (*run, error) {
	var inst *taskgen.Instance
	setup := medianTime(201, func() {
		var err error
		if inst, err = cc.Instance(); err != nil {
			fatal(err)
		}
	})
	p := problem{app: inst.App, pl: inst.Platform, goal: inst.Goal}
	w := inproc{
		limit:  ccLimit,
		maxOps: 1 << 30,
		get:    func(int) problem { return p },
		setupS: setup.Seconds(),
		verify: func(o op) error {
			for k, s := range strategies {
				r := o.res[k]
				length := 0.0
				if r.Feasible {
					length = r.Schedule.Length
				}
				if err := ccAnswers[s].check("cc "+s.String(), r.Feasible, r.Cost, length); err != nil {
					return err
				}
				if err := checkDesign(p, s, r); err != nil {
					return fmt.Errorf("cc: %w", err)
				}
			}
			return nil
		},
		replayFrom: func(ops []op) (problem, *core.Result) { return p, ops[len(ops)-1].res[2] },
	}
	r := w.measure(c)
	r.note("clients", 1)
	r.note("latency_limit_ms", ms(ccLimit))
	return r, nil
}

// measure runs the workload's measured phase — or, with tracing, an
// untraced half and a traced half over the same operations — checks
// every answer and fills in the metrics.
func (w inproc) measure(c config) *run {
	r := &run{}
	dur := c.duration()
	if c.trace {
		dur /= 2
	}
	rss := sampleRSS("self")
	ph := closedLoop(dur, w.maxOps, w.get, false)
	rssMB, hwm := rss.finish()
	r.note("vm_hwm_mb", hwm)
	if len(ph.ops) >= w.maxOps {
		r.note("warning", "input corpus exhausted before the measured phase ended")
	}

	r.Attempted = len(ph.ops)
	within := 0
	var errs []string
	for _, o := range ph.ops {
		err := o.err
		if err == nil {
			err = w.verify(o)
		}
		if err != nil {
			r.Failed++
			if len(errs) < 5 {
				errs = append(errs, err.Error())
			}
			continue
		}
		if o.lat <= w.limit {
			within++
		}
	}
	r.Correct = r.Failed == 0
	if len(errs) > 0 {
		r.note("errors", errs)
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "perfbench:", e)
		}
	}
	lat := ph.latencies()
	r.note("samples", len(lat))
	r.note("samples_beyond_p95", beyond(lat, 0.95))

	if !c.trace {
		n := float64(len(ph.ops))
		r.set("setup_s", w.setupS, "s")
		r.set("design_p50_ms", median(lat), "ms")
		r.set("design_p95_ms", quantile(lat, 0.95), "ms")
		r.set("designs_per_s", n/ph.wall.Seconds(), "1/s")
		r.set("within_limit_frac", float64(within)/float64(r.Attempted), "ratio")
		// Every operation is the same work, so the median per-operation
		// count repeats to within a few objects (map hash seeds differ per
		// process).
		objs, bytes := make([]float64, len(ph.ops)), make([]float64, len(ph.ops))
		for i, o := range ph.ops {
			objs[i], bytes[i] = float64(o.objects), float64(o.bytes)
		}
		r.set("allocs_per_design", median(objs), "count")
		r.note("allocs_per_design_min_max", []float64{quantile(objs, 0), quantile(objs, 1)})
		r.set("alloc_mb_per_design", median(bytes)/1e6, "MB")
		r.set("peak_rss_mb", rssMB, "MB")
		return r
	}

	// Traced half: the same operations again, with the program's spans
	// and registry switched on.
	traced := closedLoop(24*time.Hour, len(ph.ops), w.get, true)
	r.Attempted += len(traced.ops)
	for _, o := range traced.ops {
		err := o.err
		if err == nil {
			err = w.verify(o)
		}
		if err != nil {
			r.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: traced:", err)
		}
	}
	r.Correct = r.Failed == 0
	w.layers(c, r, ph, traced)
	return r
}

// layers fills the per-layer metrics: program counters from the untraced
// half (registry counters from the traced half), layer replays on a
// design from the run, and the budget reconciliation.
func (w inproc) layers(c config, r *run, ph, traced phase) {
	n := float64(len(ph.ops))
	var st evalengine.Stats
	var archs, evals int
	var other time.Duration
	for _, o := range ph.ops {
		var opSt evalengine.Stats
		for _, res := range o.res {
			if res == nil {
				continue
			}
			opSt.Add(res.EvalStats)
			archs += res.ArchsExplored
			evals += res.Evaluations
		}
		st.Add(opSt)
		other += o.lat - opSt.SchedTime - opSt.ReExecTime
	}
	var iters, moves int64
	for _, o := range traced.ops {
		iters += o.iters
		moves += o.moves
	}
	nt := float64(len(traced.ops))
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.set("core.archs_per_design", float64(archs)/n, "count")
	r.set("core.evaluations_per_design", float64(evals)/n, "count")
	r.set("core.other_ms_per_design", ms(other)/n, "ms")
	r.set("mapping.iterations_per_design", float64(iters)/nt, "count")
	r.set("mapping.moves_per_design", float64(moves)/nt, "count")
	r.set("evalengine.evaluations_per_design", float64(st.Evaluations)/n, "count")
	r.set("evalengine.hit_ratio", st.HitRate(), "ratio")
	r.set("evalengine.opt_hit_ratio", st.OptHitRate(), "ratio")
	r.set("evalengine.sfp_hit_ratio", ratio(st.SFPHits, st.SFPHits+st.SFPBuilds), "ratio")
	r.set("evalengine.evictions", float64(st.Evictions)/n, "count")
	r.set("sched.builds_per_design", float64(st.ScheduleBuilds)/n, "count")
	r.set("sched.busy_ms_per_design", ms(st.SchedTime)/n, "ms")
	r.set("sfp.builds_per_design", float64(st.SFPBuilds)/n, "count")
	r.set("redundancy.busy_ms_per_design", ms(st.ReExecTime)/n, "ms")
	r.set("gc.cpu_frac", ph.gc1.cpuFrac(ph.gc0), "ratio")
	r.set("gc.cycles_per_design", float64(ph.gc1.cycles-ph.gc0.cycles)/n, "count")
	r.set("trace.overhead_frac", median(traced.latencies())/median(ph.latencies())-1, "ratio")
	r.note("ratio_bases", map[string]int64{
		"evalengine.hit_ratio":     st.Evaluations,
		"evalengine.opt_hit_ratio": st.OptRuns,
		"evalengine.sfp_hit_ratio": st.SFPHits + st.SFPBuilds,
		"designs_untraced":         int64(n),
		"designs_traced":           int64(nt),
	})

	p, res := w.replayFrom(ph.ops)
	rep, err := replayLayers(p, res)
	if err != nil {
		r.Failed++
		r.Correct = false
		r.note("replay_error", err.Error())
	}
	for _, name := range replayMetrics {
		r.set(name.name, rep[name.name], name.unit)
	}
	if res == nil {
		r.note("replay", "no feasible OPT design in the run; replay rows are 0")
	}

	// Budget reconciliation: per-design busy rows against wall time, and
	// the replay estimate of each busy row against the program's clock.
	wall := 0.0
	for _, o := range ph.ops {
		wall += ms(o.lat)
	}
	wall /= n
	schedMs, reexecMs := ms(st.SchedTime)/n, ms(st.ReExecTime)/n
	estSched := float64(st.ScheduleBuilds) / n * rep["sched.incremental_us"] / 1e3
	estSFP := float64(st.SFPBuilds) / n * rep["sfp.node_us"] / 1e3
	budget := []map[string]any{
		{"row": "operation wall (sum of design latencies / designs)", "ms_per_design": wall},
		{"row": "sched (SchedTime)", "ms_per_design": schedMs},
		{"row": "redundancy+sfp (ReExecTime)", "ms_per_design": reexecMs},
		{"row": "core.other (wall - SchedTime - ReExecTime)", "ms_per_design": ms(other) / n},
	}
	r.note("budget", budget)
	r.note("replay_vs_program", map[string]any{
		"sched": map[string]any{
			"estimate_ms_per_design": estSched, "program_ms_per_design": schedMs,
			"ratio": estSched / schedMs, "base": "schedule_builds x sched.incremental_us",
		},
		"sfp": map[string]any{
			"estimate_ms_per_design": estSFP, "program_ms_per_design": reexecMs,
			"ratio": estSFP / reexecMs, "base": "sfp_builds x sfp.node_us against all of ReExecTime",
		},
	})
	for _, b := range budget {
		fmt.Printf("budget %-48s %10.3f ms/design\n", b["row"], b["ms_per_design"])
	}
	fmt.Printf("budget %-48s %10.3f (estimate %.3f ms / program %.3f ms)\n", "replay/program ratio sched", estSched/schedMs, estSched, schedMs)
	fmt.Printf("budget %-48s %10.3f (estimate %.3f ms / program %.3f ms)\n", "replay/program ratio sfp node builds", estSFP/reexecMs, estSFP, reexecMs)

	// Keep the spans of the last traced design for inspection.
	if last := traced.ops[len(traced.ops)-1].tracer; last != nil {
		writeTrace(c, last)
	}
}

// writeTrace saves one design's Chrome trace under the work directory.
func writeTrace(c config, t *obs.Tracer) {
	if err := os.MkdirAll(c.work(), 0o755); err != nil {
		return
	}
	f, err := os.Create(filepath.Join(c.work(), c.workload+"-"+strconv.FormatInt(c.seed, 10)+".trace.json"))
	if err != nil {
		return
	}
	defer f.Close()
	_ = t.WriteChromeTrace(f)
}
