// Package ftes (fault-tolerant embedded systems) is the public API of the
// library: a design-optimization framework for hard real-time embedded
// systems that tolerates transient faults by combining selective hardware
// hardening with software process re-execution, reproducing
//
//	V. Izosimov, I. Polian, P. Pop, P. Eles, Z. Peng.
//	"Analysis and Optimization of Fault-Tolerant Embedded Systems with
//	Hardened Processors", DATE 2009.
//
// # Overview
//
// An application is a set of acyclic task graphs (build one with
// NewBuilder). It runs on a bus-based platform whose computation nodes are
// each available in several hardened versions (h-versions) trading cost
// and speed for reliability. Given a reliability goal ρ = 1 − γ per hour
// and hard deadlines, Run selects the architecture, hardening levels,
// process mapping, per-node re-execution counts and static schedule with
// the lowest total cost:
//
//	app := ... // ftes.NewBuilder
//	pl  := ... // ftes.Platform with nodes and h-versions
//	res, err := ftes.Run(app, pl, ftes.Options{
//		Goal: ftes.Goal{Gamma: 1e-5, Tau: ftes.Hour},
//	})
//
// The underlying pieces are exported too: the system failure probability
// analysis of the paper's Appendix A (NewReliabilityAnalysis), the static
// scheduler with shared recovery slack (BuildSchedule), the
// hardening/re-execution trade-off (RedundancyOpt), the tabu-search
// mapping optimizer (OptimizeMapping), the synthetic workload generator
// of the experimental evaluation (Generate), and a Monte-Carlo
// fault-injection campaign to cross-validate the analysis (Campaign).
package ftes

import (
	"context"
	"io"
	"log/slog"
	"time"

	"repro/internal/appmodel"
	"repro/internal/core"
	"repro/internal/evalcache"
	"repro/internal/evalengine"
	"repro/internal/faultsim"
	"repro/internal/mapping"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/platform"
	"repro/internal/redundancy"
	"repro/internal/runctl"
	"repro/internal/runstate"
	"repro/internal/sched"
	"repro/internal/sfp"
	"repro/internal/taskgen"
	"repro/internal/ttp"
)

// Hour is one hour in milliseconds — the reliability-goal time unit τ used
// throughout the paper.
const Hour = 3.6e6

// Application model.
type (
	// Application is a set of acyclic task graphs with a period.
	Application = appmodel.Application
	// Process is one non-preemptable node of a task graph.
	Process = appmodel.Process
	// Edge is a data dependency carrying a message.
	Edge = appmodel.Edge
	// Graph is one task graph with a hard deadline.
	Graph = appmodel.Graph
	// ProcID identifies a process.
	ProcID = appmodel.ProcID
	// EdgeID identifies an edge.
	EdgeID = appmodel.EdgeID
	// Builder incrementally constructs a valid Application.
	Builder = appmodel.Builder
)

// NewBuilder returns a Builder for an application with the given name.
func NewBuilder(name string) *Builder { return appmodel.NewBuilder(name) }

// Platform model.
type (
	// Platform is the set of available computation nodes plus the bus.
	Platform = platform.Platform
	// Node is a computation node type with its h-versions.
	Node = platform.Node
	// HVersion is one hardened version of a node.
	HVersion = platform.HVersion
	// BusSpec characterizes the TDMA bus.
	BusSpec = platform.BusSpec
	// Architecture is a selected node set with hardening levels.
	Architecture = platform.Architecture
	// NodeID identifies a node type.
	NodeID = platform.NodeID
)

// NewArchitecture returns an architecture over the given nodes at minimum
// hardening.
func NewArchitecture(nodes []*Node) *Architecture { return platform.NewArchitecture(nodes) }

// Reliability analysis (the paper's Appendix A).
type (
	// Goal is the reliability goal ρ = 1 − γ per time unit τ.
	Goal = sfp.Goal
	// ReliabilityAnalysis evaluates the system failure probability of a
	// deployment for varying re-execution counts.
	ReliabilityAnalysis = sfp.Analysis
	// ReliabilityNode is the per-node part of the analysis.
	ReliabilityNode = sfp.Node
)

// DefaultMaxK caps the re-executions the analysis considers per node.
const DefaultMaxK = sfp.DefaultMaxK

// NewReliabilityAnalysis builds the SFP analysis from per-node process
// failure probability sets (nodeProbs[j] lists p_ijh for the processes
// mapped on node j).
func NewReliabilityAnalysis(nodeProbs [][]float64, period float64, maxK int) (*ReliabilityAnalysis, error) {
	return sfp.NewAnalysis(nodeProbs, period, maxK)
}

// NewReliabilityNode builds the analysis for a single node.
func NewReliabilityNode(probs []float64, maxK int) (*ReliabilityNode, error) {
	return sfp.NewNode(probs, maxK)
}

// SystemFailureProb combines per-node failure probabilities into the
// system failure probability per application iteration (formula 5).
func SystemFailureProb(nodeFail []float64) float64 { return sfp.SystemFailureProb(nodeFail) }

// Reliability raises the per-iteration survival probability to the τ/T
// iterations of the time unit (formula 6).
func Reliability(sysFail, period, tau float64) float64 { return sfp.Reliability(sysFail, period, tau) }

// Scheduling.
type (
	// Schedule is a static schedule with worst-case completion times.
	Schedule = sched.Schedule
	// ScheduleInput bundles the scheduler inputs.
	ScheduleInput = sched.Input
	// SlackModel selects the recovery-slack accounting.
	SlackModel = sched.SlackModel
	// Bus abstracts the message medium for the scheduler.
	Bus = sched.Bus
	// TDMABus is the TTP-like time-triggered bus.
	TDMABus = ttp.Bus
	// InstantBus delivers messages with zero latency.
	InstantBus = ttp.InstantBus
)

// Slack models.
const (
	// SlackShared is the paper's shared recovery slack.
	SlackShared = sched.SlackShared
	// SlackPerProcess is the non-shared, more pessimistic baseline.
	SlackPerProcess = sched.SlackPerProcess
)

// BuildSchedule runs the list scheduler with recovery slack.
func BuildSchedule(in ScheduleInput) (*Schedule, error) { return sched.Build(in) }

// NewTDMABus returns a TDMA bus with one slot per node per round.
func NewTDMABus(numNodes int, slotLen float64) *TDMABus { return ttp.NewBus(numNodes, slotLen) }

// Redundancy optimization (Section 6.3).
type (
	// RedundancyProblem bundles the inputs of the hardening/re-execution
	// trade-off.
	RedundancyProblem = redundancy.Problem
	// RedundancySolution is one evaluated configuration.
	RedundancySolution = redundancy.Solution
)

// RedundancyOpt runs the hardening/re-execution trade-off for a fixed
// mapping.
func RedundancyOpt(p RedundancyProblem) (*RedundancySolution, error) {
	return redundancy.RedundancyOpt(p)
}

// ReExecutionOpt assigns per-node re-execution counts for fixed hardening
// levels, greedily guided by the largest reliability increase.
func ReExecutionOpt(app *Application, ar *Architecture, procMapping []int, levels []int, goal Goal, maxK int) ([]int, bool, error) {
	return redundancy.ReExecutionOpt(app, ar, procMapping, levels, goal, maxK)
}

// Mapping optimization (Section 6.2).
type (
	// MappingParams tunes the tabu search.
	MappingParams = mapping.Params
	// MappingResult is the best mapping found with its solution.
	MappingResult = mapping.Result
	// MappingCostFunction selects the mapping objective.
	MappingCostFunction = mapping.CostFunction
)

// Mapping cost functions.
const (
	// MinimizeScheduleLength optimizes the worst-case schedule length.
	MinimizeScheduleLength = mapping.ScheduleLength
	// MinimizeArchitectureCost optimizes the architecture cost.
	MinimizeArchitectureCost = mapping.ArchitectureCost
)

// Evaluation engine.
type (
	// Evaluator is the stateful, memoizing evaluation engine shared by the
	// mapping and design-strategy layers. One Evaluator serves one
	// goroutine.
	Evaluator = evalengine.Evaluator
	// EvaluatorStats are the engine's instrumentation counters.
	EvaluatorStats = evalengine.Stats
)

// NewEvaluator returns an evaluation engine bound to the given problem
// (the problem's Mapping field is ignored; mappings are supplied per
// call).
func NewEvaluator(p RedundancyProblem) *Evaluator { return evalengine.New(p) }

// OptimizeMapping runs the tabu-search mapping optimization through a
// fresh evaluation engine. To reuse caches across calls, construct an
// Evaluator with NewEvaluator and call mapping.Optimize via OptimizeMappingWith.
func OptimizeMapping(p RedundancyProblem, initial []int, cf MappingCostFunction, params MappingParams) (*MappingResult, error) {
	return mapping.Optimize(evalengine.New(p), initial, cf, params)
}

// OptimizeMappingWith runs the tabu-search mapping optimization through
// the given evaluation engine, reusing whatever its caches already hold.
func OptimizeMappingWith(ev *Evaluator, initial []int, cf MappingCostFunction, params MappingParams) (*MappingResult, error) {
	return mapping.Optimize(ev, initial, cf, params)
}

// OptimizeMappingContext is OptimizeMappingWith under a context: the
// search consults ctx between tabu iterations and, once it is done,
// returns the best mapping found so far together with an error wrapping
// ErrCanceled. The partial result is deterministic for a given
// cancellation point.
func OptimizeMappingContext(ctx context.Context, ev *Evaluator, initial []int, cf MappingCostFunction, params MappingParams) (*MappingResult, error) {
	return mapping.OptimizeContext(ctx, ev, initial, cf, params)
}

// Design strategy (Fig. 5).
type (
	// Options configures a design run.
	Options = core.Options
	// Result is the outcome of a design run.
	Result = core.Result
	// Strategy selects OPT, MIN or MAX.
	Strategy = core.Strategy
	// EvalCache is the disk-backed, content-addressed store of memoized
	// evaluation work. Install one via Options.EvalCache (or
	// JobSchedulerOptions.EvalCache) to warm-start runs across
	// processes; it can only short-cut to values the engine would
	// recompute identically, never change a result.
	EvalCache = evalcache.Cache
)

// OpenEvalCache opens (creating if needed) the evaluation-cache
// directory. A cache survives crashes and concurrent writers: entries
// are verified by digest on load and any damage degrades to a cold
// start.
func OpenEvalCache(dir string) (*EvalCache, error) { return evalcache.Open(dir) }

// Strategies.
const (
	// OPT is the paper's full design optimization.
	OPT = core.OPT
	// MIN uses minimum hardening with software-only fault tolerance.
	MIN = core.MIN
	// MAX uses maximum hardening everywhere.
	MAX = core.MAX
)

// Run executes a design strategy and returns the cheapest feasible
// implementation.
func Run(app *Application, pl *Platform, opts Options) (*Result, error) {
	return core.Run(app, pl, opts)
}

// RunContext is Run under a context. Cancellation is cooperative: the
// run consults ctx between candidate architectures (never inside the
// bit-identical evaluation arithmetic) and, once ctx is done, returns
// the best complete solution found so far together with an error
// wrapping ErrCanceled; the interrupted candidate is discarded whole.
func RunContext(ctx context.Context, app *Application, pl *Platform, opts Options) (*Result, error) {
	return core.RunContext(ctx, app, pl, opts)
}

// Run control: cancellation and crash-safe resumable state.
type (
	// PanicError is a panic recovered from a worker goroutine, carrying
	// the panic value and stack.
	PanicError = runctl.PanicError
	// Journal is the crash-safe append-only record of completed
	// experiment rows that drives paperbench -resume.
	Journal = runstate.Journal
)

// ErrCanceled is wrapped by every error a canceled run returns; test
// with errors.Is. The underlying context error (context.Canceled or
// context.DeadlineExceeded) is wrapped too.
var ErrCanceled = runctl.ErrCanceled

// OpenJournal opens (and with resume, replays) a crash-safe journal at
// path. fingerprint pins the workload identity — build one with
// JournalFingerprint; resuming with a different fingerprint fails
// rather than mixing incompatible rows.
func OpenJournal(path, fingerprint string, resume bool) (*Journal, error) {
	return runstate.Open(path, fingerprint, resume)
}

// JournalFingerprint derives a stable hex fingerprint from any
// JSON-marshalable description of the workload configuration.
func JournalFingerprint(v any) (string, error) { return runstate.Fingerprint(v) }

// Observability (internal/obs): hierarchical spans exportable as Chrome
// trace_event JSON, a registry of counters, gauges and duration
// histograms, a live-progress publisher, and a structured logger.
// Install a Tracer via Options.Tracer (or a parent span via
// Options.ParentSpan), a Metrics registry via Options.Metrics, a
// Progress publisher via Options.Progress and a Logger via Options.Log;
// nil disables each at no cost. The span taxonomy and live-introspection
// endpoints are documented in DESIGN.md.
type (
	// Tracer records hierarchical spans; export with WriteChromeTrace.
	Tracer = obs.Tracer
	// Span is one timed region of a trace.
	Span = obs.Span
	// Metrics is a registry of named counters, gauges and duration
	// histograms.
	Metrics = obs.Registry
	// Progress is the concurrency-safe live-progress publisher: named
	// phases with current/total counters, best cost and a moving-rate ETA.
	Progress = obs.Progress
	// ProgressStatus is a point-in-time snapshot of every phase.
	ProgressStatus = obs.ProgressStatus
	// Logger is the nil-safe structured logger (log/slog-backed).
	Logger = obs.Logger
	// IntrospectionServer serves live state over HTTP; see
	// ServeIntrospection.
	IntrospectionServer = obshttp.Server
	// EventLog is the durable, append-only fleet lifecycle event journal;
	// obshttp streams it over /events as server-sent events.
	EventLog = obs.EventLog
	// EventScope is an EventLog view bound to one job id.
	EventScope = obs.EventScope
	// LogEvent is one recorded lifecycle event.
	LogEvent = obs.LogEvent
	// Sampler periodically snapshots a Metrics registry into a ring
	// buffer; obshttp serves the series over /timeseries.
	Sampler = obs.Sampler
	// TimeSeries is a Sampler's exported sample window.
	TimeSeries = obs.TimeSeries
	// TraceData is one process's parsed trace — the unit MergeTraces
	// stitches across processes.
	TraceData = obs.TraceData
)

// NewTracer returns an enabled tracer whose clock starts now.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetrics returns an empty, enabled metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// NewProgress returns an enabled, empty live-progress publisher.
func NewProgress() *Progress { return obs.NewProgress() }

// NewTextLogger returns a Logger emitting human-readable key=value lines
// at or above level to w.
func NewTextLogger(w io.Writer, level slog.Leveler) *Logger { return obs.NewTextLogger(w, level) }

// NewJSONLogger returns a Logger emitting one JSON object per record at
// or above level to w.
func NewJSONLogger(w io.Writer, level slog.Leveler) *Logger { return obs.NewJSONLogger(w, level) }

// NewEventLog returns an enabled in-memory event log (nothing persisted).
func NewEventLog() *EventLog { return obs.NewEventLog() }

// OpenEventLog opens (creating if needed) the durable event journal at
// path, replaying any events an earlier process recorded there.
func OpenEventLog(path string) (*EventLog, error) { return obs.OpenEventLog(path) }

// NewSampler returns a sampler snapshotting reg every interval into a
// ring of capacity samples (0 picks the defaults: 1s, 720 samples).
// Call Start to begin sampling and Stop when done.
func NewSampler(reg *Metrics, interval time.Duration, capacity int) *Sampler {
	return obs.NewSampler(reg, interval, capacity)
}

// ReadTraceFile parses one Chrome trace_event JSON file written by
// Tracer.WriteChromeTrace (or a worker's shard snapshot) for merging.
func ReadTraceFile(path string) (TraceData, error) { return obs.ReadTraceFile(path) }

// MergeTraces stitches per-process traces into one Chrome trace on w:
// each input gets its own process lane, span ids are renumbered globally,
// cross-process parent references resolve to real parent links, and
// timestamps align on the processes' wall clocks.
func MergeTraces(w io.Writer, traces ...TraceData) error { return obs.MergeTraces(w, traces...) }

// ServeIntrospection starts an HTTP server on addr (e.g. ":8080", or
// "127.0.0.1:0" for an ephemeral port) exposing the given instruments
// live: /metrics (Prometheus text exposition), /progress (JSON),
// /trace (Chrome trace_event JSON), /healthz, /debug/vars (expvar) and
// /debug/pprof. Any instrument may be nil. Close the returned server
// when done. For the event stream (/events) and metrics time series
// (/timeseries), use ServeFleetIntrospection.
func ServeIntrospection(addr string, tracer *Tracer, metrics *Metrics, progress *Progress) (*IntrospectionServer, error) {
	return obshttp.Serve(addr, obshttp.Options{Registry: metrics, Progress: progress, Tracer: tracer})
}

// ServeFleetIntrospection is ServeIntrospection plus the fleet surfaces:
// /events streams the event log live over server-sent events and
// /timeseries serves the sampler's metric history. events and sampler
// may each be nil, which disables the corresponding endpoint's data
// (the route still responds).
func ServeFleetIntrospection(addr string, tracer *Tracer, metrics *Metrics, progress *Progress, events *EventLog, sampler *Sampler) (*IntrospectionServer, error) {
	return obshttp.Serve(addr, obshttp.Options{
		Registry: metrics, Progress: progress, Tracer: tracer,
		Events: events, Sampler: sampler,
	})
}

// Synthetic workloads (Section 7).
type (
	// GenConfig parameterizes the synthetic generator.
	GenConfig = taskgen.Config
	// Instance is a generated application/platform/goal triple.
	Instance = taskgen.Instance
)

// DefaultGenConfig returns the paper's experimental parameterization.
func DefaultGenConfig(seed int64, n int, ser, hpdPercent float64) GenConfig {
	return taskgen.DefaultConfig(seed, n, ser, hpdPercent)
}

// Generate builds one reproducible synthetic instance.
func Generate(cfg GenConfig) (*Instance, error) { return taskgen.Generate(cfg) }

// Fault injection substrate.
type (
	// Campaign is a Monte-Carlo fault-injection campaign.
	Campaign = faultsim.Campaign
	// CampaignResult summarizes a campaign.
	CampaignResult = faultsim.Result
)

// DeriveFailProb computes a process failure probability from the raw SER
// per clock cycle, the process length and the hardening level.
func DeriveFailProb(wcetMs, cyclesPerMs, serPerCycle float64, level int, reductionPerLevel float64) float64 {
	return faultsim.DeriveFailProb(wcetMs, cyclesPerMs, serPerCycle, level, reductionPerLevel)
}
