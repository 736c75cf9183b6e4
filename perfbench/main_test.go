package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/serve"
)

// A stalled request delays the ones queued behind it, and their
// latency, timed from when each was due, includes that wait.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 150 * time.Millisecond
	reqs := []request{
		{due: 0, key: 0},
		{due: 10 * time.Millisecond, key: 1},
		{due: 20 * time.Millisecond, key: 2},
	}
	ss, lag := openLoop(context.Background(), reqs, 1, func(_ context.Context, r request) error {
		if r.key == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	for i, s := range ss {
		if want := stall - reqs[i].due; s.latency() < want {
			t.Errorf("request %d: latency %v, want at least %v (the stall it queued behind)", i, s.latency(), want)
		}
		if i > 0 && s.sent < stall {
			t.Errorf("request %d sent at %v, before the stalled request finished", i, s.sent)
		}
		if lag[i] > stall/2 {
			t.Errorf("request %d dispatched %v late; the dispatcher must not wait for busy connections", i, lag[i])
		}
	}
}

func TestTailLevelLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		max  float64
		want float64
	}{
		{1000, 0.99, 0.99},
		{999, 0.99, 0.95},
		{200, 0.99, 0.95},
		{199, 0.99, 0.90},
		{100, 0.99, 0.90},
		{40, 0.99, 0.75},
		{20, 0.99, 0.50},
		{10, 0.99, 0},
		{5000, 0.90, 0.90},
	} {
		got := tailLevel(c.n, c.max)
		if got != c.want {
			t.Errorf("tailLevel(%d, %v) = %v, want %v", c.n, c.max, got, c.want)
		}
		if got > 0 && c.n-rank(c.n, got) < 10 {
			t.Errorf("tailLevel(%d) = %v leaves %d samples beyond it", c.n, got, c.n-rank(c.n, got))
		}
	}
}

// flatRung is a rung of n requests spread over one second, each taking
// lat milliseconds, the last nErr of them failing.
func flatRung(n int, lat float64, nErr int) rung {
	r := rung{elapsed: time.Second}
	for i := 0; i < n; i++ {
		due := time.Duration(i) * time.Second / time.Duration(n)
		s := sample{due: due, done: due + time.Duration(lat*float64(time.Millisecond))}
		if i >= n-nErr {
			s.err = errors.New("status 500")
		}
		r.samples = append(r.samples, s)
	}
	return r
}

func TestRateAtSLOLadderRule(t *testing.T) {
	const slo = 100
	pass1, pass2 := flatRung(1000, 10, 0), flatRung(1000, 20, 0)
	pass2.elapsed = 2 * time.Second
	slow := flatRung(1000, 150, 0)
	if got, want := rateAtSLO([]rung{pass1, pass2, slow}, slo), pass2.achieved(); got != want {
		t.Errorf("highest passing rung: got %v, want %v", got, want)
	}
	// A rung that passes above a failing one does not count.
	if got := rateAtSLO([]rung{slow, pass1}, slo); got != 0 {
		t.Errorf("failing lowest rung: got %v, want 0", got)
	}
	// A growing backlog fails the rung even with its tail in the limit:
	// the last tenth waits 90 ms where the first waited 5 ms.
	growing := flatRung(1000, 5, 0)
	for i := 900; i < 1000; i++ {
		growing.samples[i].done = growing.samples[i].due + 90*time.Millisecond
	}
	if growing.meets(slo) {
		t.Error("a rung with a growing backlog met the limit")
	}
}

func TestFailuresMissTheLimit(t *testing.T) {
	r := flatRung(1000, 1, 20)
	lat := latenciesMS(r.samples, nil)
	if got := summarize(lat, 0.99).pTl; !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", got)
	}
	if r.meets(1000) {
		t.Error("a rung whose failures exceed the tail met the limit")
	}
	if got, want := r.achieved(), 980.0; got != want {
		t.Errorf("achieved = %v, want %v (successes only)", got, want)
	}
}

// A workload that reports a wrong answer fails the run: the result line
// says correct=false and the command exits with an error.
func TestWrongAnswerFailsRun(t *testing.T) {
	workloads["wrong"] = func(cfg runConfig, tr *tracer) (*outcome, error) {
		o := newOutcome()
		o.attempted, o.failed = 1, 1
		for _, m := range e2eMetrics {
			o.e2e[m.name] = 1
		}
		o.fail(errors.New("answer differs"))
		return o, nil
	}
	defer delete(workloads, "wrong")
	var stdout bytes.Buffer
	err := run([]string{"--workload", "wrong", "--seconds", "1", "--work", t.TempDir()}, &stdout)
	if err == nil {
		t.Fatal("run succeeded on a wrong answer")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res resultJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Error("result line says correct=true")
	}
}

// corrupting falsifies the first explain or answers response: a merge
// status or an answer count the server did not give.
type corrupting struct {
	base http.RoundTripper
	mu   sync.Mutex
	done bool
}

func (c *corrupting) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil || !(strings.HasSuffix(req.URL.Path, "/explain") || strings.HasSuffix(req.URL.Path, "/answers")) {
		return resp, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return resp, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	c.done = true
	body = bytes.Replace(body, []byte(`"count":`), []byte(`"count":1`), 1)
	body = bytes.Replace(body, []byte(`"status":"`), []byte(`"status":"not `), 1)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	return resp, nil
}

// The serve_read check catches a server answer that differs from core:
// here the first miss response is corrupted on the wire.
func TestServeReadCatchesWrongAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a server")
	}
	tr := &corrupting{base: http.DefaultTransport}
	cfg := runConfig{seed: 1, seconds: 1, mini: true, work: t.TempDir(), conns: 1, transport: tr}
	out, err := runServeRead(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if !tr.done {
		t.Fatal("no explain or answers response passed through the client")
	}
	if out.checkErr == nil {
		t.Fatal("a corrupted response passed the check")
	}
}

// The serve_durable check rejects a write-ahead log whose chain was
// edited and a replay that does not end at the last acknowledged write.
func TestWALCheck(t *testing.T) {
	ds, err := durableInstance()
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMutableSharded(ds.DB, ds.Spec, ds.Sims, core.Options{}, core.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	log, _, err := audit.Open(path, audit.Options{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	f := toggleFacts(ds, 2)
	var last serve.FactsResponse
	for _, b := range []core.Batch{{Retract: f[:1]}, {Retract: f[1:2]}, {Insert: f[:1]}} {
		res, _, err := m.Apply(b)
		if err != nil {
			t.Fatal(err)
		}
		rec := audit.Record{Op: audit.OpMutate, Epoch: res.Epoch, DBFingerprint: res.Fingerprint}
		for _, x := range b.Insert {
			rec.Insert = append(rec.Insert, append([]string{x.Rel}, x.Args...))
		}
		for _, x := range b.Retract {
			rec.Retract = append(rec.Retract, append([]string{x.Rel}, x.Args...))
		}
		if err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
		last = serve.FactsResponse{Epoch: res.Epoch, Fingerprint: res.Fingerprint}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := checkWAL(ctx, path, last, 3, nil, nil); err != nil {
		t.Fatalf("intact log: %v", err)
	}
	wrong := last
	wrong.Fingerprint = "0000"
	if err := checkWAL(ctx, path, wrong, 3, nil, nil); err == nil {
		t.Error("replay accepted against a wrong last acknowledged fingerprint")
	}
	if err := checkWAL(ctx, path, last, 4, nil, nil); err == nil {
		t.Error("an acknowledged write missing from the log passed")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.Replace(raw, []byte(`"epoch":2`), []byte(`"epoch":7`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkWAL(ctx, path, last, 3, nil, nil); err == nil {
		t.Error("an edited log passed the chain check")
	}
}

// The stream check rejects a final epoch that is not the instance it
// must restore.
func TestStreamCheckRejectsDivergedEpoch(t *testing.T) {
	ds, err := streamInstance(200)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.NewMutableSharded(ds.DB, ds.Spec, ds.Sims, core.Options{}, core.ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := checkStream(ctx, ds, m.Snapshot()); err != nil {
		t.Fatalf("untouched epoch: %v", err)
	}
	if _, _, err := m.Apply(core.Batch{Retract: toggleFacts(ds, 1)}); err != nil {
		t.Fatal(err)
	}
	if err := checkStream(ctx, ds, m.Snapshot()); err == nil {
		t.Error("a diverged epoch passed")
	}
}

func TestSameSolutions(t *testing.T) {
	a, b := eqrel.New(4), eqrel.New(4)
	b.Union(db.Const(1), db.Const(2))
	if err := sameSolutions([]*eqrel.Partition{a}, []*eqrel.Partition{a.Clone()}); err != nil {
		t.Errorf("equal lists: %v", err)
	}
	if err := sameSolutions([]*eqrel.Partition{a}, []*eqrel.Partition{b}); err == nil {
		t.Error("different solutions compared equal")
	}
	if err := sameSolutions([]*eqrel.Partition{a}, nil); err == nil {
		t.Error("different counts compared equal")
	}
}

// BENCHMARK.json names exactly the metrics the benchmark emits.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if len(b.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end-to-end metrics, want %d", len(b.EndToEnd), len(e2eMetrics))
	}
	for i, m := range e2eMetrics {
		if b.EndToEnd[i].Name != m.name || b.EndToEnd[i].Unit != m.unit {
			t.Errorf("end_to_end[%d] = %v, want %s %s", i, b.EndToEnd[i], m.name, m.unit)
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics, want %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %v, want %s %s", i, b.PerLayer[i], m.name, m.unit)
		}
	}
}

// Parallel solve spans count once where they overlap, and the rest of
// the enclosing plan spans is the planner's own time.
func TestPlanSelfAndSolve(t *testing.T) {
	trace := []byte(`{"span":"core.shard.plan","id":1,"start_ms":0,"dur_ms":100}
{"span":"core.shard.solve","id":2,"parent":1,"start_ms":10,"dur_ms":30}
{"span":"core.shard.solve","id":3,"parent":1,"start_ms":20,"dur_ms":30}
{"span":"core.shard.solve","id":4,"parent":1,"start_ms":70,"dur_ms":10}
{"span":"core.search","id":5,"parent":4,"start_ms":71,"dur_ms":5}
`)
	plan, solve, err := planSelfAndSolve(trace)
	if err != nil {
		t.Fatal(err)
	}
	if plan != 50 || solve != 50 {
		t.Errorf("plan self %v, solve %v; want 50 and 50", plan, solve)
	}
}
