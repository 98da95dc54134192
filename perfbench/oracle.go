package main

import (
	"fmt"
	"math"

	"repro/internal/appmodel"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sfp"
	"repro/internal/ttp"
)

// problem is one design input: what core.Run receives.
type problem struct {
	app     *appmodel.Application
	pl      *platform.Platform
	goal    sfp.Goal
	maxCost float64 // ArC; 0 = unbounded
}

func (p problem) options(s core.Strategy) core.Options {
	return core.Options{Goal: p.goal, Strategy: s, MaxCost: p.maxCost}
}

// bus is the bus core.Run builds for an architecture of n nodes.
func (p problem) bus(n int) sched.Bus {
	if p.pl.Bus.SlotLen > 0 {
		return ttp.NewBus(n, p.pl.Bus.SlotLen)
	}
	return nil
}

// checkDesign re-derives a feasible design on the fresh, uncached path —
// sched.Build for the schedule and sfp.NewAnalysis for the reliability —
// and checks that it meets every deadline, reaches the reliability goal,
// costs what the run reported and stays within ArC. MIN and MAX designs
// must also sit at the minimum and maximum hardening levels.
func checkDesign(p problem, s core.Strategy, res *core.Result) error {
	if !res.Feasible {
		return nil
	}
	ar := res.Arch
	if ar == nil || len(res.Mapping) != p.app.NumProcesses() || len(res.Ks) != len(ar.Nodes) || len(ar.Levels) != len(ar.Nodes) {
		return fmt.Errorf("%s: malformed feasible design", s)
	}
	for j, nd := range ar.Nodes {
		switch {
		case s == core.MIN && ar.Levels[j] != nd.MinLevel():
			return fmt.Errorf("MIN: node %d at level %d, want %d", j, ar.Levels[j], nd.MinLevel())
		case s == core.MAX && ar.Levels[j] != nd.MaxLevel():
			return fmt.Errorf("MAX: node %d at level %d, want %d", j, ar.Levels[j], nd.MaxLevel())
		}
	}
	sc, err := sched.Build(sched.Input{App: p.app, Arch: ar, Mapping: res.Mapping, Ks: res.Ks, Bus: p.bus(len(ar.Nodes))})
	if err != nil {
		return fmt.Errorf("%s: fresh schedule: %w", s, err)
	}
	if !sc.Schedulable(p.app) {
		return fmt.Errorf("%s: fresh schedule misses a deadline (length %.3f ms)", s, sc.Length)
	}
	if sc.Length != res.Schedule.Length {
		return fmt.Errorf("%s: fresh schedule length %v, run reported %v", s, sc.Length, res.Schedule.Length)
	}
	probs := make([][]float64, len(ar.Nodes))
	for pid, j := range res.Mapping {
		probs[j] = append(probs[j], ar.Nodes[j].Version(ar.Levels[j]).FailProb[pid])
	}
	a, err := sfp.NewAnalysis(probs, p.app.EffectivePeriod(), sfp.DefaultMaxK)
	if err != nil {
		return fmt.Errorf("%s: fresh SFP analysis: %w", s, err)
	}
	if rel := a.SystemReliability(res.Ks, p.goal.Tau); rel < p.goal.Rho() {
		return fmt.Errorf("%s: reliability %.12f below goal %.12f", s, rel, p.goal.Rho())
	}
	if c := ar.Cost(); c != res.Cost {
		return fmt.Errorf("%s: architecture costs %v, run reported %v", s, c, res.Cost)
	}
	if p.maxCost > 0 && res.Cost > p.maxCost {
		return fmt.Errorf("%s: cost %v above ArC %v", s, res.Cost, p.maxCost)
	}
	return nil
}

// knownAnswer pins a result the paper's examples fix (EXPERIMENTS.md).
type knownAnswer struct {
	feasible bool
	cost     float64
	length   float64 // worst-case schedule length in ms; 0 = not pinned
}

// check compares a result with the known answer; lengths are pinned to
// the 0.1 ms the paper and EXPERIMENTS.md print.
func (k knownAnswer) check(name string, feasible bool, cost, length float64) error {
	if feasible != k.feasible {
		return fmt.Errorf("%s: feasible=%v, want %v", name, feasible, k.feasible)
	}
	if !k.feasible {
		return nil
	}
	if cost != k.cost {
		return fmt.Errorf("%s: cost %v, want %v", name, cost, k.cost)
	}
	if k.length > 0 && math.Abs(length-k.length) > 0.05 {
		return fmt.Errorf("%s: schedule length %.3f ms, want %.1f", name, length, k.length)
	}
	return nil
}

// The cruise-controller figure (paper Section 7, EXPERIMENTS.md).
var ccAnswers = map[core.Strategy]knownAnswer{
	core.MIN: {feasible: false},
	core.MAX: {feasible: true, cost: 180, length: 237.5},
	core.OPT: {feasible: true, cost: 56, length: 284.4},
}

// The motivational examples, run as OPT without a cost bound.
var (
	fig1Answer = knownAnswer{feasible: true, cost: 52, length: 355}
	fig3Answer = knownAnswer{feasible: true, cost: 20}
)
