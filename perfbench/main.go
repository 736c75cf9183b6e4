// Command perfbench is the repository's benchmark: four seeded
// workloads that drive LACE through its public entry points — the
// resolution server over loopback HTTP and the core, db, blocking,
// audit, encode and workload packages as library calls — and print one
// JSON result line.
//
//	perfbench --workload serve_read --seed 1 --seconds 16 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer split instead, measured by the
// benchmark's own spans around the calls it makes and by the counters
// the program already records. NOTES.md says what each workload and
// metric means and why.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// heldOutSeed is the seed no end-to-end tuning run used; a later claim
// of a gain must also hold on it.
const heldOutSeed = 9001

// runConfig is one run's settings, shared by every workload.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// mini shrinks a workload to a few seconds; the traced run of
	// another workload uses it to measure the layers it does not touch.
	mini bool
	// work is the scratch directory for files the run writes (the
	// audit log, the write-ahead log).
	work string
	// conns bounds client connections and is the GOMAXPROCS the
	// program runs with.
	conns int
	// transport, when set, carries the serving workloads' HTTP requests
	// in place of a plain loopback transport; tests use it to corrupt
	// responses.
	transport http.RoundTripper
}

// outcome is what a workload run reports before rendering.
type outcome struct {
	attempted, failed int
	// checkErr is the first output mismatch; nil when every check held.
	checkErr error
	e2e      map[string]float64
	layers   map[string]float64
	notes    map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, notes: map[string]any{}}
}

// fail records a check failure, keeping the first.
func (o *outcome) fail(err error) {
	if o.checkErr == nil {
		o.checkErr = err
	}
}

type workloadFunc func(cfg runConfig, tr *tracer) (*outcome, error)

var workloads = map[string]workloadFunc{
	"serve_read":     runServeRead,
	"serve_durable":  runServeDurable,
	"stream_resolve": runStreamResolve,
	"asp_maximal":    runASPMaximal,
}

// e2eMetrics are the end-to-end metrics every workload reports, with
// their units; NOTES.md maps each to the operation it times per
// workload.
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"side_p50_ms", "ms"},
	{"bulk_s", "s"},
	{"rate_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "serve_read, serve_durable, stream_resolve or asp_maximal")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 15, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "scratch directory for logs the run writes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wf, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown --workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	conns := runtime.NumCPU()
	runtime.GOMAXPROCS(conns)
	dir, err := os.MkdirTemp(mustMkdir(*work), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, work: dir, conns: conns}

	stamp := environmentStamp(*name, *seed, cfg)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	out, err := wf(cfg, tr)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if cfg.trace {
		if err := fillLayers(*name, cfg, out); err != nil {
			return err
		}
	}
	out.e2e["peak_rss_mb"] = peakRSSMB()
	if raw, err := json.Marshal(map[string]any{"stamp": stamp, "notes": out.notes}); err == nil {
		fmt.Fprintln(stdout, string(raw))
	}
	res := resultJSON{
		Correct:   out.checkErr == nil,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricJSON{},
	}
	if cfg.trace {
		for _, m := range layerMetrics {
			v, ok := out.layers[m.name]
			if !ok {
				return fmt.Errorf("traced run produced no %s", m.name)
			}
			res.Metrics[m.name] = metricJSON{v, m.unit}
		}
	} else {
		for _, m := range e2eMetrics {
			v, ok := out.e2e[m.name]
			if !ok {
				return fmt.Errorf("run produced no %s", m.name)
			}
			res.Metrics[m.name] = metricJSON{v, m.unit}
		}
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(raw))
	if out.checkErr != nil {
		return fmt.Errorf("output check failed: %w", out.checkErr)
	}
	return nil
}

func mustMkdir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

// timed runs f and returns its wall time.
func timed(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
