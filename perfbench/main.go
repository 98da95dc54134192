// Command perfbench is the repository's benchmark: one command that runs
// one of two workloads, checks every answer it gets, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output.
//
// Workloads:
//
//	cc-design     closed loop, 1 client: the cruise-controller figure
//	              (core.Run MIN, MAX and OPT on cc.Instance()) per operation
//	ftesd-design  open loop at a fixed rate against a freshly started ftesd:
//	              seeded design jobs, variants, duplicates and known-answer
//	              probes, completion detected on the /events stream
//
// Run it through run.sh, which builds this package and the ftesd binary
// from the checkout first:
//
//	bash perfbench/run.sh --workload cc-design --seed 1 --seconds 50 --trace 0
//
// Every result record carries a machine fingerprint; numbers from
// different machines must not be compared.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is what a workload hands back: the result line plus the details
// that go into the record line printed before it.
type run struct {
	result
	record map[string]any
}

func (r *run) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) note(key string, v any) {
	if r.record == nil {
		r.record = map[string]any{}
	}
	r.record[key] = v
}

// config is the parsed command line plus the paths the workloads use.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root
	ftesd    string // built daemon binary
}

func (c config) duration() time.Duration { return time.Duration(c.seconds) * time.Second }

// work is the scratch directory for daemon state and traces.
func (c config) work() string { return filepath.Join(c.root, ".bench_build", "work") }

var workloads = map[string]func(config) (*run, error){
	"cc-design":    runCC,
	"ftesd-design": runFtesd,
}

func main() {
	var c config
	var trace int
	flag.StringVar(&c.workload, "workload", "", "cc-design or ftesd-design")
	flag.Int64Var(&c.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&c.seconds, "seconds", 50, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = per-layer run (untraced and traced halves, layer replays)")
	flag.StringVar(&c.ftesd, "ftesd", "", "path of the built ftesd binary (ftesd-design only)")
	flag.Parse()
	c.trace = trace == 1
	fn, ok := workloads[c.workload]
	if !ok || c.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload cc-design|ftesd-design --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	c.root = wd

	r, err := fn(c)
	if err != nil {
		fatal(err)
	}
	if r.Attempted < 1 {
		fatal(fmt.Errorf("%s: no operation attempted", c.workload))
	}
	errRate := float64(r.Failed) / float64(r.Attempted)
	r.note("error_rate", errRate)
	if c.trace {
		r.set("error_rate", errRate, "ratio")
		fillNotRun(r)
	}
	r.note("workload", c.workload)
	r.note("seed", c.seed)
	r.note("seconds", c.seconds)
	r.note("trace", trace)
	r.note("machine", fingerprint(c.root))
	rec, err := json.Marshal(map[string]any{"record": r.record})
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(r.result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(rec))
	fmt.Println(string(line))
	if !r.Correct || r.Failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed or were wrong\n", c.workload, r.Failed, r.Attempted)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
