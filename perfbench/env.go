package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// environmentStamp describes the machine and the code a result came
// from, so two results can be told apart by hardware as well as by
// revision.
func environmentStamp(workload string, seed int64, cfg runConfig) map[string]any {
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"held_out_seed": heldOutSeed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_rev":       gitRev(),
		"source_sha256": sourceHash("."),
		"time":          time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitRev is the checked-out revision, or "none" outside a git work tree
// (the source hash identifies the code there).
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes the program's Go sources and go.mod under root,
// skipping the benchmark's own directory and build outputs.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			switch d.Name() {
			case "perfbench", ".bench_build", ".git", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f) // a short read only changes the hash
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// runtimeSample is a reading of the Go runtime's cumulative allocation
// and CPU counters.
type runtimeSample struct {
	allocBytes    uint64
	gcCPU, allCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	var r runtimeSample
	if ss[0].Value.Kind() == metrics.KindUint64 {
		r.allocBytes = ss[0].Value.Uint64()
	}
	if ss[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = ss[1].Value.Float64()
	}
	if ss[2].Value.Kind() == metrics.KindFloat64 {
		r.allCPU = ss[2].Value.Float64()
	}
	return r
}

// runtimeDelta turns two readings around a phase of ops operations into
// MB allocated per operation and the share of CPU time spent in GC.
func runtimeDelta(a, b runtimeSample, ops int) (allocMBPerOp, gcFraction float64) {
	if ops > 0 {
		allocMBPerOp = float64(b.allocBytes-a.allocBytes) / float64(ops) / (1 << 20)
	}
	if cpu := b.allCPU - a.allCPU; cpu > 0 {
		gcFraction = (b.gcCPU - a.gcCPU) / cpu
	}
	return allocMBPerOp, gcFraction
}

// tracer keeps the benchmark's own spans in memory: one per call it
// makes into a layer, by layer name. A nil tracer records nothing, so
// untraced runs pay only a nil check.
type tracer struct {
	mu    sync.Mutex
	spans map[string][]time.Duration
}

func newTracer() *tracer { return &tracer{spans: map[string][]time.Duration{}} }

// span times f under name.
func (t *tracer) span(name string, f func() error) error {
	if t == nil {
		return f()
	}
	d, err := timed(f)
	t.add(name, d)
	return err
}

func (t *tracer) add(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[name] = append(t.spans[name], d)
	t.mu.Unlock()
}

// msOf returns the durations recorded under name in milliseconds.
func (t *tracer) msOf(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]float64, len(t.spans[name]))
	for i, d := range t.spans[name] {
		out[i] = ms(d)
	}
	return out
}
