package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/paper"
	"repro/internal/specio"
	"repro/internal/taskgen"
)

// The ftesd-design traffic: an open loop at ftesdRate submissions per
// second against a daemon running ftesdWorkers jobs at a time. On a
// 2-vCPU Xeon box the daemon keeps up with about 120 submissions/s of
// this mix before the one request connection saturates (the generator
// starts running late). Half that, 60/s, put so many fsyncs in the
// disk queue that duplicates (one journaled event each) waited behind
// fresh jobs, and p50 moved by half from run to run with the host's disk
// latency; at a quarter it stays within a fifth. ftesdLimit is the
// latency limit within_limit_frac counts against; p95 is about 40 ms.
const (
	ftesdRate    = 30.0
	ftesdLimit   = time.Second
	ftesdWorkers = 2
	// Fresh problems sit at the paper's Fig. 6a point: SER 1e-11, HPD 25%,
	// ArC 20.
	freshSER   = 1e-11
	freshHPD   = 25
	fresh20ArC = 20
	// freshDeadlineFactorMin keeps fresh problems in the loose half of
	// taskgen's deadline range (1.0-1.45 instead of 0.55-1.45, stratified).
	// Tight deadlines make a few problems cost 100x the rest, and then
	// which seed drew them decides every latency; loose ones keep the job
	// path (HTTP, dedup, queue, journals, evalcache I/O) on the critical
	// path. The optimizer's own cost is what cc-design measures.
	freshDeadlineFactorMin = 1.0
)

// jsonResult mirrors the result.json artifact of a design job.
type jsonResult struct {
	Application   string  `json:"application"`
	Strategy      string  `json:"strategy"`
	Feasible      bool    `json:"feasible"`
	Cost          float64 `json:"cost,omitempty"`
	ScheduleLenMs float64 `json:"schedule_length_ms,omitempty"`
	ArchsExplored int     `json:"archs_explored"`
	Evaluations   int     `json:"evaluations"`
}

// job is one distinct design job of the plan.
type job struct {
	spec    []byte // specio document
	maxCost float64
	answer  *knownAnswer // set on the paper-example probes
	want    jsonResult
	err     error
}

// submission is one POST of the plan.
type submission struct {
	kind string // fresh, variant, duplicate, probe
	job  *job
	body []byte
}

// envelope is the ftesd job envelope of a design job.
type envelope struct {
	Kind     string          `json:"kind"`
	Spec     json.RawMessage `json:"spec"`
	Strategy string          `json:"strategy"`
	MaxCost  float64         `json:"max_cost,omitempty"`
}

// makePlan draws n submissions from the seed, in blocks of ten: one
// Fig. 1 or Fig. 3 known-answer probe (alternating), two fresh seeded
// 20-process problems at ArC 20, two variants (an earlier problem at
// another ArC from {15, 20, 25}: a new job on a warm evaluation cache)
// and five duplicates (an exact resubmission of an earlier submission,
// answered by dedup). The seed fixes the problems and the order inside
// each block; the proportions are the same for every seed.
func makePlan(seed int64, n int) (subs []submission, jobs []*job, genMs []float64, err error) {
	rng := rand.New(rand.NewSource(seed))
	type base struct {
		spec []byte
		arcs map[float64]bool
	}
	var bases []*base
	var probes [2]*job
	deadlines := newStrata(rng, freshDeadlineFactorMin, 1.45, 8)
	newJob := func(spec []byte, maxCost float64, ans *knownAnswer) (*job, []byte, error) {
		j := &job{spec: spec, maxCost: maxCost, answer: ans}
		body, err := json.Marshal(envelope{Kind: "design", Spec: spec, Strategy: "OPT", MaxCost: maxCost})
		jobs = append(jobs, j)
		return j, body, err
	}
	block := []string{"fresh", "fresh", "variant", "variant", "duplicate", "duplicate", "duplicate", "duplicate", "duplicate"}
	var order []string
	for i := 0; i < n; i++ {
		if i%10 == 0 {
			// The first block opens with a fresh problem so that variants
			// and duplicates always have an earlier submission to draw on.
			order = append([]string(nil), block...)
			rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
			if i == 0 {
				k := slices.Index(order, "fresh")
				order[0], order[k] = order[k], order[0]
			}
		}
		var s submission
		kind := "probe"
		if i%10 != 5 {
			kind, order = order[0], order[1:]
		}
		switch kind {
		case "probe":
			k := (i / 10) % 2
			if probes[k] == nil {
				spec, ans := paperSpec(k)
				if probes[k], s.body, err = newJob(spec, 0, ans); err != nil {
					return
				}
			} else {
				s.body, _ = json.Marshal(envelope{Kind: "design", Spec: probes[k].spec, Strategy: "OPT"})
			}
			s.kind, s.job = "probe", probes[k]
		case "duplicate":
			d := subs[rng.Intn(len(subs))]
			s = submission{kind: "duplicate", job: d.job, body: d.body}
		case "variant":
			b := bases[rng.Intn(len(bases))]
			var free []float64
			for _, a := range []float64{15, 20, 25} {
				if !b.arcs[a] {
					free = append(free, a)
				}
			}
			if len(free) > 0 {
				arc := free[rng.Intn(len(free))]
				b.arcs[arc] = true
				s.kind = "variant"
				if s.job, s.body, err = newJob(b.spec, arc, nil); err != nil {
					return
				}
				break
			}
			fallthrough
		default:
			t := time.Now()
			cfg := taskgen.DefaultConfig(seed<<20|int64(len(bases)), 20, freshSER, freshHPD)
			cfg.DeadlineFactorMin = deadlines.next()
			cfg.DeadlineFactorMax = cfg.DeadlineFactorMin
			inst, gerr := taskgen.Generate(cfg)
			if gerr != nil {
				return nil, nil, nil, gerr
			}
			var buf bytes.Buffer
			if err = specio.Write(&buf, &specio.Spec{Application: inst.App, Platform: inst.Platform,
				Gamma: inst.Goal.Gamma, TauMs: inst.Goal.Tau}); err != nil {
				return
			}
			genMs = append(genMs, ms(time.Since(t)))
			bases = append(bases, &base{spec: buf.Bytes(), arcs: map[float64]bool{fresh20ArC: true}})
			s.kind = "fresh"
			if s.job, s.body, err = newJob(buf.Bytes(), fresh20ArC, nil); err != nil {
				return
			}
		}
		subs = append(subs, s)
	}
	return subs, jobs, genMs, nil
}

// paperSpec returns the Fig. 1 (k = 0) or Fig. 3 (k = 1) problem.
func paperSpec(k int) ([]byte, *knownAnswer) {
	s, ans := &specio.Spec{Application: paper.Fig1Application(), Platform: paper.Fig1Platform(), Gamma: paper.Fig1Gamma}, fig1Answer
	if k == 1 {
		s, ans = &specio.Spec{Application: paper.Fig3Application(), Platform: paper.Fig3Platform(), Gamma: paper.Fig3Gamma}, fig3Answer
	}
	var buf bytes.Buffer
	if err := specio.Write(&buf, s); err != nil {
		fatal(err)
	}
	return buf.Bytes(), &ans
}

// expect computes every job's result in process, as the daemon's design
// runner does, and checks it with the design oracle and, on the probes,
// the known answers. Two goroutines share the work.
func expect(jobs []*job) {
	var wg sync.WaitGroup
	next := make(chan *job)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				j.want, j.err = runJob(j)
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
}

func runJob(j *job) (jsonResult, error) {
	doc, err := specio.Read(bytes.NewReader(j.spec))
	if err != nil {
		return jsonResult{}, err
	}
	p := problem{app: doc.Application, pl: doc.Platform, goal: doc.Goal(), maxCost: j.maxCost}
	res, err := core.Run(p.app, p.pl, p.options(core.OPT))
	if err != nil {
		return jsonResult{}, err
	}
	if err := checkDesign(p, core.OPT, res); err != nil {
		return jsonResult{}, err
	}
	want := jsonResult{Application: doc.Application.Name, Strategy: "OPT", Feasible: res.Feasible,
		ArchsExplored: res.ArchsExplored, Evaluations: res.Evaluations}
	if res.Feasible {
		want.Cost, want.ScheduleLenMs = res.Cost, res.Schedule.Length
	}
	if j.answer != nil {
		if err := j.answer.check(doc.Application.Name, want.Feasible, want.Cost, want.ScheduleLenMs); err != nil {
			return want, err
		}
	}
	return want, nil
}

// daemon is one running ftesd on fresh state and cache directories.
type daemon struct {
	cmd    *exec.Cmd
	dir    string
	base   string // http://host:port
	exited chan struct{}
}

// startDaemon starts ftesd in dir and waits until /healthz answers 200.
// Its standard error is kept in dir/ftesd.stderr.
func startDaemon(bin, dir string) (*daemon, time.Duration, error) {
	for _, sub := range []string{"state", "evalcache"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, 0, err
		}
	}
	logPath := filepath.Join(dir, "ftesd.stderr")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	start := time.Now()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(ftesdWorkers),
		"-state", filepath.Join(dir, "state"), "-eval-cache", filepath.Join(dir, "evalcache"))
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark even if the benchmark crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, dir: dir, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for d.base == "" || !healthy(d.base) {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("ftesd exited during start-up: %s", tail(logPath))
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("ftesd not healthy after 30s: %s", tail(logPath))
		}
		if d.base == "" {
			if b, _ := os.ReadFile(logPath); bytes.Contains(b, []byte("serving on ")) {
				line := string(b[bytes.Index(b, []byte("serving on "))+len("serving on "):])
				d.base, _, _ = strings.Cut(line, "\n")
			}
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(start), nil
}

func healthy(base string) bool {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop sends SIGTERM and waits for the daemon to exit (SIGKILL after 15s).
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// memVars reads the daemon's Go memory statistics from /debug/vars.
type memVars struct {
	Mallocs       uint64
	TotalAlloc    uint64
	NumGC         uint32
	GCCPUFraction float64
}

func readMemVars(c *http.Client, base string) (memVars, error) {
	var v struct{ Memstats memVars }
	resp, err := c.Get(base + "/debug/vars")
	if err != nil {
		return memVars{}, err
	}
	defer resp.Body.Close()
	return v.Memstats, json.NewDecoder(resp.Body).Decode(&v)
}

// outcome is what became of one submission.
type outcome struct {
	due, verified time.Time
	doneSeen      time.Time // job.done receipt (zero when already done at submit)
	id            string
	err           error
	settled       bool
}

// jobEvents is what /events told about one job id.
type jobEvents struct {
	submittedMs, startedMs int64
	runMs                  float64
	done                   bool
	doneAt                 time.Time
	failed                 string
	waiters                []int
}

// session drives one daemon through the plan's submissions.
type session struct {
	base  string
	req   *http.Client // the one request connection
	subs  []submission
	start time.Time

	mu       sync.Mutex
	out      []outcome
	events   map[string]*jobEvents
	lastSeq  int64
	dropped  int64
	pending  int
	allDone  chan struct{}
	fetchQ   chan int
	late     []float64
	submitMs []float64
}

type sessionResult struct {
	lat, delivery, queueWait, runMs []float64
	verified, within, failed        int
	dedups, accepted                int
	backlogEnd                      int
	wall                            time.Duration
	ids                             map[string]string // job id -> submission kind that created it
	errs                            []string
}

// drive runs the open loop: submissions at their due times, completion
// from the job.done events, each result fetched and compared with the
// in-process answer. Submissions refused, failed, wrong or unfinished
// ftesdLimit after the last due time count as failures.
func (s *session) drive(scrape bool) (*sessionResult, error) {
	n := len(s.subs)
	s.out = make([]outcome, n)
	s.events = map[string]*jobEvents{}
	s.allDone = make(chan struct{})
	s.pending = n
	// One entry per submission at most, so the SSE reader never blocks.
	s.fetchQ = make(chan int, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Event stream on its own connection, established before the first
	// submission.
	sseReq, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/events?since=now&progress_ms=0", nil)
	sseClient := &http.Client{Transport: &http.Transport{}}
	resp, err := sseClient.Do(sseReq)
	if err != nil {
		return nil, fmt.Errorf("open /events: %w", err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer resp.Body.Close()
		s.readEvents(resp.Body)
	}()
	go func() {
		defer wg.Done()
		s.fetchLoop(ctx)
	}()
	if scrape {
		// Traced half: scrape the daemon's /metrics at 4 Hz on a third
		// connection, as a dashboard would.
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &http.Client{Transport: &http.Transport{}}
			t := time.NewTicker(250 * time.Millisecond)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if r, err := c.Get(s.base + "/metrics"); err == nil {
						io.Copy(io.Discard, r.Body)
						r.Body.Close()
					}
				}
			}
		}()
	}

	s.start = time.Now()
	s.late = make([]float64, n)
	s.submitMs = make([]float64, n)
	res := &sessionResult{ids: map[string]string{}}
	for i, sub := range s.subs {
		due := s.start.Add(time.Duration(float64(i) / ftesdRate * float64(time.Second)))
		time.Sleep(time.Until(due))
		sent := time.Now()
		s.late[i] = ms(sent.Sub(due))
		s.mu.Lock()
		s.out[i].due = due
		s.mu.Unlock()
		id, state, dedup, err := s.post(sub.body)
		s.submitMs[i] = ms(time.Since(sent))
		if err != nil {
			s.settle(i, err)
			continue
		}
		res.accepted++
		if dedup {
			res.dedups++
		} else if _, ok := res.ids[id]; !ok {
			res.ids[id] = sub.kind
		}
		s.register(i, sent, id, state)
	}
	s.mu.Lock()
	res.backlogEnd = s.pending
	s.mu.Unlock()
	lastDue := s.start.Add(time.Duration(float64(n-1) / ftesdRate * float64(time.Second)))
	select {
	case <-s.allDone:
	case <-time.After(time.Until(lastDue.Add(ftesdLimit))):
	}
	cancel()
	wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	var last time.Time
	for i := range s.out {
		o := &s.out[i]
		switch {
		case !o.settled:
			res.failed++
			res.errs = append(res.errs, fmt.Sprintf("submission %d (%s): unfinished %v after the last due time", i, s.subs[i].kind, ftesdLimit))
		case o.err != nil:
			res.failed++
			res.errs = append(res.errs, fmt.Sprintf("submission %d (%s): %v", i, s.subs[i].kind, o.err))
		default:
			res.verified++
			l := o.verified.Sub(o.due)
			res.lat = append(res.lat, ms(l))
			if l <= ftesdLimit {
				res.within++
			}
			if !o.doneSeen.IsZero() {
				res.delivery = append(res.delivery, ms(o.verified.Sub(o.doneSeen)))
			}
			if o.verified.After(last) {
				last = o.verified
			}
		}
	}
	for _, je := range s.events {
		if je.startedMs > 0 && je.submittedMs > 0 {
			res.queueWait = append(res.queueWait, float64(je.startedMs-je.submittedMs))
		}
		if je.done {
			res.runMs = append(res.runMs, je.runMs)
		}
	}
	res.wall = last.Sub(s.start)
	return res, nil
}

func (s *session) post(body []byte) (id, state string, dedup bool, err error) {
	resp, err := s.req.Post(s.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", "", false, err
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			return "", "", false, fmt.Errorf("refused: %d, Retry-After %s", resp.StatusCode, ra)
		}
		return "", "", false, fmt.Errorf("POST /jobs: %d %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var ack struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Dedup bool   `json:"dedup"`
	}
	if err := json.Unmarshal(b, &ack); err != nil {
		return "", "", false, fmt.Errorf("POST /jobs: %w", err)
	}
	return ack.ID, ack.State, ack.Dedup, nil
}

// register ties submission i to its job id: fetch now if the job already
// finished (an event seen before the POST returned, or a duplicate of a
// finished job), otherwise wait for its terminal event. Only a job.done
// seen after the POST was sent counts toward delivery time.
func (s *session) register(i int, sent time.Time, id, state string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.out[i].id = id
	je := s.job(id)
	switch {
	case je.failed != "":
		s.settleLocked(i, errors.New(je.failed))
	case je.done:
		if je.doneAt.After(sent) {
			s.out[i].doneSeen = je.doneAt
		}
		s.fetchQ <- i
	case state == "done":
		s.fetchQ <- i
	default:
		je.waiters = append(je.waiters, i)
	}
}

func (s *session) job(id string) *jobEvents {
	je, ok := s.events[id]
	if !ok {
		je = &jobEvents{}
		s.events[id] = je
	}
	return je
}

func (s *session) settle(i int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.settleLocked(i, err)
}

func (s *session) settleLocked(i int, err error) {
	if s.out[i].settled {
		return
	}
	s.out[i].settled, s.out[i].err = true, err
	if err == nil {
		s.out[i].verified = time.Now()
	}
	s.pending--
	if s.pending == 0 {
		close(s.allDone)
	}
}

// readEvents follows the SSE stream until it closes, recording lifecycle
// times, counting events the stream skipped, and queueing fetches.
func (s *session) readEvents(r io.Reader) {
	br := bufio.NewReader(r)
	var typ, data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "" && typ != "":
			s.onEvent(typ, data)
			typ, data = "", ""
		}
	}
}

func (s *session) onEvent(typ, data string) {
	now := time.Now()
	var ev struct {
		Seq    int64          `json:"seq"`
		TimeMS int64          `json:"t_ms"`
		Job    string         `json:"job"`
		Fields map[string]any `json:"fields"`
		// gap frames
		Missing int64 `json:"missing"`
	}
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if typ == "gap" {
		s.dropped += ev.Missing
		return
	}
	if s.lastSeq > 0 && ev.Seq > s.lastSeq+1 {
		s.dropped += ev.Seq - s.lastSeq - 1
	}
	if ev.Seq > s.lastSeq {
		s.lastSeq = ev.Seq
	}
	if ev.Job == "" {
		return
	}
	je := s.job(ev.Job)
	switch typ {
	case "job.submitted":
		je.submittedMs = ev.TimeMS
	case "job.started":
		je.startedMs = ev.TimeMS
	case "job.done":
		je.done, je.doneAt = true, now
		if v, ok := ev.Fields["elapsed_ms"].(float64); ok {
			je.runMs = v
		}
		for _, i := range je.waiters {
			s.out[i].doneSeen = now
			s.fetchQ <- i
		}
		je.waiters = nil
	case "job.failed", "job.canceled", "job.interrupted", "job.quarantined":
		je.failed = typ
		if e, ok := ev.Fields["error"].(string); ok {
			je.failed += ": " + e
		}
		for _, i := range je.waiters {
			s.settleLocked(i, errors.New(je.failed))
		}
		je.waiters = nil
	}
}

// fetchLoop fetches and verifies finished results over the request
// connection, one at a time.
func (s *session) fetchLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case i := <-s.fetchQ:
			s.mu.Lock()
			id := s.out[i].id
			s.mu.Unlock()
			s.settle(i, s.fetch(id, s.subs[i].job))
		}
	}
}

func (s *session) fetch(id string, j *job) error {
	resp, err := s.req.Get(s.base + "/jobs/" + id + "/artifacts/result.json")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET result.json: %d %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var got jsonResult
	if err := json.Unmarshal(b, &got); err != nil {
		return fmt.Errorf("result.json: %w", err)
	}
	if got != j.want {
		return fmt.Errorf("result.json %+v, in-process run gives %+v", got, j.want)
	}
	return nil
}

// jobCounter reads one counter from a job's /jobs/{id}/metrics.
func jobCounter(c *http.Client, base, id, name string) (float64, error) {
	resp, err := c.Get(base + "/jobs/" + id + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("job %s: no %s", id, name)
}

func runFtesd(c config) (*run, error) {
	if c.ftesd == "" {
		return nil, errors.New("ftesd-design needs --ftesd (run.sh builds it)")
	}
	dur := c.duration()
	if c.trace {
		dur /= 2
	}
	n := int(ftesdRate * dur.Seconds())
	subs, jobs, genMs, err := makePlan(c.seed, n)
	if err != nil {
		return nil, err
	}
	// Answers first, outside the measured phase, so each result can be
	// verified the moment it is fetched.
	expect(jobs)
	r := &run{}
	for _, j := range jobs {
		if j.err != nil {
			return nil, fmt.Errorf("in-process answer: %w", j.err)
		}
	}
	kinds := map[string]int{}
	for _, s := range subs {
		kinds[s.kind]++
	}
	r.note("mix", kinds)
	r.note("rate_per_s", ftesdRate)
	r.note("latency_limit_ms", ms(ftesdLimit))
	r.note("daemon_workers", ftesdWorkers)

	if err := os.MkdirAll(c.work(), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(c.work(), "ftesd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	// Set-up, three times: daemon start on fresh directories until
	// /healthz answers. The third daemon serves the (first) measured phase.
	var setups []float64
	var d *daemon
	for k := 0; k < 3; k++ {
		var took time.Duration
		d, took, err = startDaemon(c.ftesd, filepath.Join(tmp, "setup-"+strconv.Itoa(k)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if k < 2 {
			d.stop()
		}
	}

	untraced, err := measureDaemon(d, subs, false)
	d.stop()
	if err != nil {
		return nil, err
	}
	if !c.trace {
		r.fill(untraced, subs)
		r.set("setup_s", median(setups), "s")
		r.set("design_p50_ms", median(untraced.lat), "ms")
		r.set("design_p95_ms", quantile(untraced.lat, 0.95), "ms")
		r.set("designs_per_s", float64(untraced.verified)/untraced.wall.Seconds(), "1/s")
		r.set("within_limit_frac", float64(untraced.within)/float64(len(subs)), "ratio")
		r.set("allocs_per_design", untraced.allocs, "count")
		r.set("alloc_mb_per_design", untraced.allocMB, "MB")
		r.set("peak_rss_mb", untraced.rssMB, "MB")
		return r, nil
	}

	// Traced half: a fresh daemon, the same submissions, /metrics scraped
	// while it runs, per-job metrics read afterwards.
	d2, _, err := startDaemon(c.ftesd, filepath.Join(tmp, "traced"))
	if err != nil {
		return nil, err
	}
	traced, err := measureDaemon(d2, subs, true)
	d2.stop()
	if err != nil {
		return nil, err
	}
	r.fill(untraced, subs)
	r.fill(traced, subs)
	r.set("jobs.submit_ms_p50", median(traced.submitMs), "ms")
	r.set("jobs.submit_ms_p95", quantile(traced.submitMs, 0.95), "ms")
	r.set("jobs.queue_wait_ms_p50", median(traced.queueWait), "ms")
	r.set("jobs.queue_wait_ms_p95", quantile(traced.queueWait, 0.95), "ms")
	r.set("jobs.run_ms_p50", median(traced.runMs), "ms")
	r.set("jobs.delivery_ms_p50", median(traced.delivery), "ms")
	r.set("jobs.dedup_ratio", float64(traced.dedups)/float64(max(traced.accepted, 1)), "ratio")
	r.set("jobs.state_bytes_per_job", float64(traced.stateBytes)/float64(max(len(traced.ids), 1)), "B")
	r.set("obs.events_dropped", float64(traced.dropped), "count")
	r.set("evalcache.warm_schedule_builds", traced.warmBuilds, "count")
	r.set("evalcache.dir_bytes", float64(traced.cacheBytes), "B")
	r.set("ftesd.generator_late_ms_p95", quantile(traced.late, 0.95), "ms")
	r.set("ftesd.backlog_end", float64(traced.backlogEnd), "count")
	r.set("gc.cpu_frac", traced.gcFrac, "ratio")
	r.set("gc.cycles_per_design", traced.gcCycles, "count")
	r.set("taskgen.generate_ms", median(genMs), "ms")
	r.set("trace.overhead_frac", median(traced.lat)/median(untraced.lat)-1, "ratio")
	r.note("ratio_bases", map[string]any{
		"jobs.dedup_ratio":               traced.accepted,
		"evalcache.warm_schedule_builds": traced.warmBase,
		"fresh_schedule_builds_mean":     traced.freshBuilds,
		"jobs.queue_wait_samples":        len(traced.queueWait),
	})
	return r, nil
}

// daemonRun is one measured phase against one daemon.
type daemonRun struct {
	*sessionResult
	submitMs, late          []float64
	dropped                 int64
	allocs, allocMB, rssMB  float64
	hwmMB                   float64
	gcFrac, gcCycles        float64
	stateBytes, cacheBytes  int64
	warmBuilds, freshBuilds float64
	warmBase                int
}

// measureDaemon drives one phase and reads the daemon's counters before
// it stops. Per-job metrics are read only on the traced half.
func measureDaemon(d *daemon, subs []submission, traced bool) (*daemonRun, error) {
	req := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	before, err := readMemVars(req, d.base)
	if err != nil {
		return nil, fmt.Errorf("read /debug/vars: %w", err)
	}
	s := &session{base: d.base, req: req, subs: subs}
	pid := strconv.Itoa(d.cmd.Process.Pid)
	rss := sampleRSS(pid)
	res, err := s.drive(traced)
	rssMB, hwm := rss.finish()
	if err != nil {
		return nil, err
	}
	after, err := readMemVars(req, d.base)
	if err != nil {
		return nil, fmt.Errorf("read /debug/vars: %w", err)
	}
	n := float64(len(subs))
	out := &daemonRun{sessionResult: res, submitMs: s.submitMs, late: s.late, dropped: s.dropped,
		allocs:     float64(after.Mallocs-before.Mallocs) / n,
		allocMB:    float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / n,
		rssMB:      rssMB,
		hwmMB:      hwm,
		gcFrac:     after.GCCPUFraction,
		gcCycles:   float64(after.NumGC-before.NumGC) / n,
		stateBytes: dirBytes(filepath.Join(d.dir, "state")),
		cacheBytes: dirBytes(filepath.Join(d.dir, "evalcache")),
	}
	if traced {
		var warm, fresh []float64
		for id, kind := range res.ids {
			if kind != "variant" && kind != "fresh" {
				continue
			}
			v, err := jobCounter(req, d.base, id, "evalengine_schedule_builds_total")
			if err != nil {
				return nil, err
			}
			if kind == "variant" {
				warm = append(warm, v)
			} else {
				fresh = append(fresh, v)
			}
		}
		out.warmBuilds, out.freshBuilds, out.warmBase = mean(warm), mean(fresh), len(warm)
	}
	req.CloseIdleConnections()
	if len(res.errs) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: ftesd stderr tail:\n%s\n", tail(filepath.Join(d.dir, "ftesd.stderr")))
	}
	return out, nil
}

// fill records the outcome counts and samples of one phase.
func (r *run) fill(dr *daemonRun, subs []submission) {
	r.Attempted += len(subs)
	r.Failed += dr.failed
	r.Correct = r.Failed == 0
	r.note("samples", len(dr.lat))
	r.note("samples_beyond_p95", beyond(dr.lat, 0.95))
	r.note("backlog_end", dr.backlogEnd)
	r.note("vm_hwm_mb", dr.hwmMB)
	// Share of the phase the workers spent running jobs.
	busy := 0.0
	for _, x := range dr.runMs {
		busy += x
	}
	r.note("worker_utilization", busy/1e3/dr.wall.Seconds()/ftesdWorkers)
	r.note("generator_late_ms_p95", quantile(dr.late, 0.95))

	if len(dr.errs) > 0 {
		errs := dr.errs
		if len(errs) > 5 {
			errs = errs[:5]
		}
		r.note("errors", errs)
		for _, e := range errs {
			fmt.Fprintln(os.Stderr, "perfbench:", e)
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
