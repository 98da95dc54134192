package core

import (
	"testing"

	"repro/internal/appmodel"
	"repro/internal/paper"
	"repro/internal/platform"
	"repro/internal/sfp"
	"repro/internal/taskgen"
)

func fig1Opts(s Strategy) Options {
	return Options{
		Goal:     sfp.Goal{Gamma: paper.Fig1Gamma, Tau: paper.Hour},
		Strategy: s,
	}
}

func fig3Opts(s Strategy) Options {
	return Options{
		Goal:     sfp.Goal{Gamma: paper.Fig3Gamma, Tau: paper.Hour},
		Strategy: s,
	}
}

// TestFig3Strategies reproduces the first motivational example across all
// three strategies: MIN (no hardening, k = 6) misses the deadline; MAX
// (maximum hardening) is feasible but costs 40; OPT selects the middle
// h-version at cost 20 — half of MAX, as the paper argues.
func TestFig3Strategies(t *testing.T) {
	app := paper.Fig3Application()
	pl := paper.Fig3Platform()

	min, err := Run(app, pl, fig3Opts(MIN))
	if err != nil {
		t.Fatal(err)
	}
	if min.Feasible {
		t.Error("MIN should be infeasible on Fig. 3 (680 ms > 360 ms)")
	}

	max, err := Run(app, pl, fig3Opts(MAX))
	if err != nil {
		t.Fatal(err)
	}
	if !max.Feasible || max.Cost != 40 {
		t.Errorf("MAX: feasible=%v cost=%v, want feasible at 40", max.Feasible, max.Cost)
	}

	opt, err := Run(app, pl, fig3Opts(OPT))
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Feasible || opt.Cost != 20 {
		t.Errorf("OPT: feasible=%v cost=%v, want feasible at 20", opt.Feasible, opt.Cost)
	}
	if opt.Arch.Levels[0] != 2 || opt.Ks[0] != 2 {
		t.Errorf("OPT chose level %d k=%d, want level 2 with k=2", opt.Arch.Levels[0], opt.Ks[0])
	}
}

// TestFig1Strategies runs the full design strategies on the Fig. 1
// application. OPT must beat MAX on cost (the paper's headline claim) and
// come in at or below the paper's hand-derived 72.
func TestFig1Strategies(t *testing.T) {
	app := paper.Fig1Application()
	pl := paper.Fig1Platform()

	opt, err := Run(app, pl, fig1Opts(OPT))
	if err != nil {
		t.Fatal(err)
	}
	if !opt.Feasible {
		t.Fatal("OPT should find a feasible implementation of Fig. 1")
	}
	if opt.Cost > 72 {
		t.Errorf("OPT cost = %v, want ≤ 72", opt.Cost)
	}
	if !opt.Schedule.Schedulable(app) {
		t.Error("final OPT schedule violates deadlines")
	}

	max, err := Run(app, pl, fig1Opts(MAX))
	if err != nil {
		t.Fatal(err)
	}
	if !max.Feasible {
		t.Fatal("MAX should be feasible on Fig. 1 (e.g. N2^3 monoprocessor)")
	}
	if opt.Cost >= max.Cost {
		t.Errorf("OPT (%v) should be cheaper than MAX (%v)", opt.Cost, max.Cost)
	}

	min, err := Run(app, pl, fig1Opts(MIN))
	if err != nil {
		t.Fatal(err)
	}
	// With p ≈ 1e-3 the unhardened nodes need k ≈ 3 re-executions each,
	// whose recovery slack blows every deadline: software-only fault
	// tolerance cannot implement Fig. 1.
	if min.Feasible {
		t.Errorf("MIN unexpectedly feasible at cost %v", min.Cost)
	}
}

// TestMaxCostPruning: a budget at or below the unbounded optimum must
// leave the run infeasible, and any budget above it must find the same
// optimum. Fig. 1 is probed at the paper's ArC-style round budgets too,
// and a synthetic application exercises the evolving best-cost prune
// across several size classes.
func TestMaxCostPruning(t *testing.T) {
	inst, err := taskgen.Generate(taskgen.DefaultConfig(300, 10, 1e-11, 25))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		label   string
		app     *appmodel.Application
		pl      *platform.Platform
		opts    Options
		budgets []float64
	}{
		{"fig1", paper.Fig1Application(), paper.Fig1Platform(), fig1Opts(OPT), []float64{20, 72, 200}},
		{"synthetic-10", inst.App, inst.Platform, Options{Goal: inst.Goal}, nil},
	}
	for _, c := range cases {
		unbounded, err := Run(c.app, c.pl, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if !unbounded.Feasible {
			t.Fatalf("%s: unbounded OPT infeasible", c.label)
		}
		opt := unbounded.Cost
		for _, budget := range append([]float64{opt - 1, opt, opt + 1}, c.budgets...) {
			opts := c.opts
			opts.MaxCost = budget
			res, err := Run(c.app, c.pl, opts)
			if err != nil {
				t.Fatal(err)
			}
			if budget <= opt {
				if res.Feasible {
					t.Errorf("%s: budget %v ≤ optimum %v found cost %v", c.label, budget, opt, res.Cost)
				}
			} else if !res.Feasible || res.Cost != opt {
				t.Errorf("%s: budget %v: feasible=%v cost=%v, want optimum %v", c.label, budget, res.Feasible, res.Cost, opt)
			}
		}
	}
}

// TestRunValidatesInputs covers the input validation paths.
func TestRunValidatesInputs(t *testing.T) {
	app := paper.Fig1Application()
	pl := paper.Fig1Platform()
	good := fig1Opts(OPT)

	bad := *app
	bad.Procs = nil
	if _, err := Run(&bad, pl, good); err == nil {
		t.Error("want error for invalid application")
	}

	badPl := *pl
	badPl.Nodes = nil
	if _, err := Run(app, &badPl, good); err == nil {
		t.Error("want error for invalid platform")
	}

	badOpts := good
	badOpts.Goal = sfp.Goal{}
	if _, err := Run(app, pl, badOpts); err == nil {
		t.Error("want error for invalid goal")
	}
}

// TestResultBookkeeping: exploration counters are populated.
func TestResultBookkeeping(t *testing.T) {
	app := paper.Fig1Application()
	pl := paper.Fig1Platform()
	res, err := Run(app, pl, fig1Opts(OPT))
	if err != nil {
		t.Fatal(err)
	}
	if res.ArchsExplored == 0 || res.Evaluations == 0 {
		t.Errorf("counters not populated: %+v", res)
	}
	if len(res.Mapping) != app.NumProcesses() {
		t.Errorf("mapping covers %d of %d", len(res.Mapping), app.NumProcesses())
	}
	if len(res.Ks) != len(res.Arch.Nodes) {
		t.Errorf("ks cover %d of %d nodes", len(res.Ks), len(res.Arch.Nodes))
	}
}

func TestStrategyString(t *testing.T) {
	if OPT.String() != "OPT" || MIN.String() != "MIN" || MAX.String() != "MAX" {
		t.Error("strategy names changed")
	}
	if Strategy(7).String() != "Strategy(7)" {
		t.Error("unknown strategy formatting")
	}
}

// TestOptNeverWorseThanBaselines is the structural dominance property the
// whole paper rests on: OPT explores a superset of both MIN's and MAX's
// configuration spaces, so whenever a baseline is feasible OPT must be
// feasible with at most that cost.
func TestOptNeverWorseThanBaselines(t *testing.T) {
	for _, fixture := range []struct {
		name string
		run  func(Strategy) (*Result, error)
	}{
		{"fig1", func(s Strategy) (*Result, error) {
			return Run(paper.Fig1Application(), paper.Fig1Platform(), fig1Opts(s))
		}},
		{"fig3", func(s Strategy) (*Result, error) {
			return Run(paper.Fig3Application(), paper.Fig3Platform(), fig3Opts(s))
		}},
	} {
		opt, err := fixture.run(OPT)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range []Strategy{MIN, MAX} {
			res, err := fixture.run(base)
			if err != nil {
				t.Fatal(err)
			}
			if res.Feasible {
				if !opt.Feasible {
					t.Errorf("%s: %v feasible but OPT infeasible", fixture.name, base)
				} else if opt.Cost > res.Cost {
					t.Errorf("%s: OPT cost %v exceeds %v cost %v", fixture.name, opt.Cost, base, res.Cost)
				}
			}
		}
	}
}

// TestRunDeterministic: identical inputs yield identical results — the
// whole pipeline is deterministic by construction.
func TestRunDeterministic(t *testing.T) {
	app := paper.Fig1Application()
	pl := paper.Fig1Platform()
	a, err := Run(app, pl, fig1Opts(OPT))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(app, pl, fig1Opts(OPT))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || a.Feasible != b.Feasible || a.ArchsExplored != b.ArchsExplored {
		t.Errorf("nondeterministic results: %+v vs %+v", a, b)
	}
	for i := range a.Mapping {
		if a.Mapping[i] != b.Mapping[i] {
			t.Fatalf("mappings differ at %d", i)
		}
	}
}

// TestRunInfeasibleEverywhere: a platform that can never meet the goal
// reports infeasible without error.
func TestRunInfeasibleEverywhere(t *testing.T) {
	app := paper.Fig3Application()
	pl := paper.Fig3Platform()
	opts := fig3Opts(OPT)
	opts.Goal.Gamma = 1e-300 // unreachable
	res, err := Run(app, pl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Error("unreachable goal reported feasible")
	}
	if res.Arch != nil {
		t.Error("infeasible result should carry no architecture")
	}
}
