package main

import (
	"time"

	"repro/internal/appmodel"
	"repro/internal/core"
	"repro/internal/evalengine"
	"repro/internal/mapping"
	"repro/internal/prob"
	"repro/internal/redundancy"
	"repro/internal/sched"
	"repro/internal/sfp"
)

type named struct{ name, unit string }

// perLayer lists every per-layer metric in BENCHMARK.json. A workload
// whose path does not run a layer reports that layer's rows as 0 and
// names them under "not_run" in its record.
var perLayer = []named{
	{"core.archs_per_design", "count"},
	{"core.evaluations_per_design", "count"},
	{"core.other_ms_per_design", "ms"},
	{"mapping.iterations_per_design", "count"},
	{"mapping.moves_per_design", "count"},
	{"mapping.optimize_ms", "ms"},
	{"evalengine.evaluations_per_design", "count"},
	{"evalengine.hit_ratio", "ratio"},
	{"evalengine.opt_hit_ratio", "ratio"},
	{"evalengine.sfp_hit_ratio", "ratio"},
	{"evalengine.evictions", "count"},
	{"evalengine.evaluate_hit_us", "us"},
	{"evalengine.evaluate_miss_us", "us"},
	{"sched.builds_per_design", "count"},
	{"sched.busy_ms_per_design", "ms"},
	{"sched.build_us", "us"},
	{"sched.incremental_us", "us"},
	{"sfp.builds_per_design", "count"},
	{"redundancy.busy_ms_per_design", "ms"},
	{"sfp.node_us", "us"},
	{"prob.ch_us", "us"},
	{"redundancy.opt_us", "us"},
	{"gc.cpu_frac", "ratio"},
	{"gc.cycles_per_design", "count"},
	{"taskgen.generate_ms", "ms"},
	{"jobs.submit_ms_p50", "ms"},
	{"jobs.submit_ms_p95", "ms"},
	{"jobs.queue_wait_ms_p50", "ms"},
	{"jobs.queue_wait_ms_p95", "ms"},
	{"jobs.run_ms_p50", "ms"},
	{"jobs.delivery_ms_p50", "ms"},
	{"jobs.dedup_ratio", "ratio"},
	{"jobs.state_bytes_per_job", "B"},
	{"obs.events_dropped", "count"},
	{"evalcache.warm_schedule_builds", "count"},
	{"evalcache.dir_bytes", "B"},
	{"ftesd.generator_late_ms_p95", "ms"},
	{"ftesd.backlog_end", "count"},
	{"trace.overhead_frac", "ratio"},
	{"error_rate", "ratio"},
}

// replayMetrics are the rows replayLayers measures.
var replayMetrics = []named{
	{"mapping.optimize_ms", "ms"},
	{"evalengine.evaluate_hit_us", "us"},
	{"evalengine.evaluate_miss_us", "us"},
	{"sched.build_us", "us"},
	{"sched.incremental_us", "us"},
	{"sfp.node_us", "us"},
	{"prob.ch_us", "us"},
	{"redundancy.opt_us", "us"},
}

// fillNotRun reports every per-layer metric the workload did not set as
// 0 and lists them in the record.
func fillNotRun(r *run) {
	var missing []string
	for _, m := range perLayer {
		if _, ok := r.Metrics[m.name]; !ok {
			r.set(m.name, 0, m.unit)
			missing = append(missing, m.name)
		}
	}
	if len(missing) > 0 {
		r.note("not_run", missing)
	}
}

// replayLayers times each layer's public entry point on the final OPT
// design of the run just measured, outside the measured phase, and
// returns the median per call. A nil design replays nothing.
func replayLayers(p problem, res *core.Result) (map[string]float64, error) {
	out := map[string]float64{}
	if res == nil || !res.Feasible {
		return out, nil
	}
	ar := res.Arch.Clone()
	rp := redundancy.Problem{App: p.app, Arch: ar, Goal: p.goal, Bus: p.bus(len(ar.Nodes))}
	in := sched.Input{App: p.app, Arch: ar, Mapping: res.Mapping, Ks: res.Ks, Bus: rp.Bus}
	// Every replayed call must succeed once before it is timed.
	if _, err := sched.Build(in); err != nil {
		return out, err
	}
	if _, err := redundancy.RedundancyOpt(withMapping(rp, res.Mapping)); err != nil {
		return out, err
	}

	// Evaluator: a miss on a fresh evaluator (cold SFP cache), then a hit.
	var hit, miss []float64
	for i := 0; i < 50; i++ {
		ev := evalengine.New(rp)
		t := time.Now()
		ev.Evaluate(res.Mapping, ar.Levels)
		miss = append(miss, us(time.Since(t)))
		t = time.Now()
		ev.Evaluate(res.Mapping, ar.Levels)
		hit = append(hit, us(time.Since(t)))
	}
	out["evalengine.evaluate_miss_us"] = median(miss)
	out["evalengine.evaluate_hit_us"] = median(hit)

	// Scheduler: a full build into a reused workspace, and an incremental
	// rebuild after one process moved to another node.
	var ws sched.Workspace
	out["sched.build_us"] = us(medianTime(200, func() { sched.BuildInto(in, &ws) }))
	moved := append([]int(nil), res.Mapping...)
	pid := len(moved) / 2
	moved[pid] = (moved[pid] + 1) % len(ar.Nodes)
	alt := in
	alt.Mapping = moved
	var incs []float64
	for i := 0; i < 200; i++ {
		cur := in
		if i%2 == 1 {
			cur = alt
		}
		t := time.Now()
		sched.BuildIncremental(cur, &ws, appmodel.ProcID(pid))
		incs = append(incs, us(time.Since(t)))
	}
	out["sched.incremental_us"] = median(incs)

	// SFP: one node analysis for the most loaded node, and the
	// complete-homogeneous DP behind it at the default re-execution cap.
	var probs []float64
	counts := make([]int, len(ar.Nodes))
	for _, j := range res.Mapping {
		counts[j]++
	}
	busiest := 0
	for j := range counts {
		if counts[j] > counts[busiest] {
			busiest = j
		}
	}
	v := ar.Nodes[busiest].Version(ar.Levels[busiest])
	for pid, j := range res.Mapping {
		if j == busiest {
			probs = append(probs, v.FailProb[pid])
		}
	}
	out["sfp.node_us"] = us(medianTime(200, func() { sfp.NewNode(probs, sfp.DefaultMaxK) }))
	out["prob.ch_us"] = us(medianTime(200, func() { prob.CompleteHomogeneous(probs, sfp.DefaultMaxK) }))

	// Hardening search on the uncached path.
	opt := withMapping(rp, res.Mapping)
	out["redundancy.opt_us"] = us(medianTime(20, func() { redundancy.RedundancyOpt(opt) }))

	// Mapping: both tabu searches core.Run makes per architecture, on a
	// fresh evaluator.
	out["mapping.optimize_ms"] = ms(medianTime(3, func() {
		ev := evalengine.New(rp)
		sl, err := mapping.Optimize(ev, nil, mapping.ScheduleLength, mapping.Params{})
		if err == nil {
			mapping.Optimize(ev, sl.Mapping, mapping.ArchitectureCost, mapping.Params{})
		}
	}))
	return out, nil
}

func withMapping(p redundancy.Problem, m []int) redundancy.Problem {
	p.Mapping = m
	return p
}
