package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by nearest rank (the smallest
// sample with at least q of the samples at or below it), so exactly
// n - ceil(q*n) samples lie beyond it. xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the middle sample (mean of the two middle ones for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// beyond counts the samples strictly above the q-quantile.
func beyond(xs []float64, q float64) int {
	v, n := quantile(xs, q), 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianTime runs f reps times and returns the median duration.
func medianTime(reps int, f func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		t := time.Now()
		f()
		ds[i] = float64(time.Since(t))
	}
	return time.Duration(median(ds))
}

// gcSample reads the runtime/metrics counters the gc layer rows use.
type gcSample struct {
	cycles  uint64
	gcCPU   float64 // seconds of CPU spent in the GC
	userCPU float64 // seconds of CPU spent running Go code
}

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/user:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSample{
		cycles:  s[0].Value.Uint64(),
		gcCPU:   s[1].Value.Float64(),
		userCPU: s[2].Value.Float64(),
	}
}

// cpuFrac is the GC's share of the CPU the process used between a and b.
func (b gcSample) cpuFrac(a gcSample) float64 {
	gc, user := b.gcCPU-a.gcCPU, b.userCPU-a.userCPU
	if gc+user <= 0 {
		return 0
	}
	return gc / (gc + user)
}

// allocs reads the exact heap allocation totals (runtime.ReadMemStats
// flushes every P's cache, so the counts are exact, as in testing's
// allocs/op).
func allocs() (objects, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// statusMB reads one kB-valued field (VmRSS, VmHWM) of a process's
// /proc status, in MB.
func statusMB(pid, field string) float64 {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// rssSampler reads a process's resident set every 50 ms while a phase
// runs. peak_rss_mb is the 95th percentile of its samples: the single
// highest reading (VmHWM, kept in the record) depends on which heavy
// problems happened to overlap with a GC cycle, and moves by a quarter
// from run to run.
type rssSampler struct {
	pid     string
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func sampleRSS(pid string) *rssSampler {
	s := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			s.samples = append(s.samples, statusMB(pid, "VmRSS"))
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the 95th-percentile sample and the
// process's VmHWM.
func (s *rssSampler) finish() (p95, hwm float64) {
	close(s.stop)
	<-s.done
	return quantile(s.samples, 0.95), statusMB(s.pid, "VmHWM")
}

// fingerprint identifies the machine and the code a record was measured
// on. The checkout is not always a git repository, so the code is also
// identified by a hash over its Go sources and module files.
func fingerprint(root string) map[string]any {
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"cpu_model":      cpuModel(),
		"go_version":     runtime.Version(),
		"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":         gitCommit(root),
		"source_sha256":  sourceHash(root),
		"measured_at_ns": time.Now().UnixNano(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from a .git directory when the checkout has one.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "none"
}

// sourceHash hashes every .go, go.mod and go.sum file under root (paths
// and contents, in lexical order), skipping dot directories.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		n := d.Name()
		if !strings.HasSuffix(n, ".go") && n != "go.mod" && n != "go.sum" {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, rel+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
