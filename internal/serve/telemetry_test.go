package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/obs"
)

// syncBuffer is a goroutine-safe bytes.Buffer for telemetry sinks:
// handler goroutines write while the test goroutine reads.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func (s *syncBuffer) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Len()
}

// fixServer pins the server's clock and ID generator so telemetry
// output is deterministic. Call before issuing requests.
func fixServer(s *Server) {
	t0 := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	s.now = func() time.Time { return t0 }
	n := 0
	s.nextID = func() string {
		n++
		return fmt.Sprintf("req-%06d", n)
	}
}

func TestMetricsPrometheusConformance(t *testing.T) {
	in := loadFig1(t)
	_, ts := newTestServer(t, in, nil)
	// Exercise enough of the server that every metric kind has data:
	// a miss, a hit, two endpoints, a health check.
	post(t, ts, "/v1/merges/certain", nil, nil)
	post(t, ts, "/v1/merges/certain", nil, nil)
	post(t, ts, "/v1/merges/possible", nil, nil)
	post(t, ts, "/healthz", nil, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	res := obs.LintProm(resp.Body)
	if err := res.Err(); err != nil {
		t.Fatalf("conformance: %v", err)
	}
	missing := res.CheckFamilies(
		"lace_serve_requests_total",
		"lace_serve_cache_hits_total",
		"lace_serve_cache_hit_ratio",
		"lace_serve_pool_in_use",
		"lace_serve_inflight",
		"lace_serve_cache_size",
		"lace_serve_runtime_goroutines",
		"lace_serve_runtime_heap_bytes",
		"lace_serve_request_seconds",
		"lace_serve_pool_wait_seconds",
	)
	if len(missing) > 0 {
		t.Fatalf("missing families: %v", missing)
	}
}

func TestAccessLogGolden(t *testing.T) {
	in := loadFig1(t)
	var buf syncBuffer
	s, ts := newTestServer(t, in, func(c *Config) { c.AccessLog = &buf })
	fixServer(s)

	_, raw1 := post(t, ts, "/v1/merges/certain", nil, nil) // miss
	_, raw2 := post(t, ts, "/v1/merges/certain", nil, nil) // hit
	_, raw3 := post(t, ts, "/healthz", nil, nil)
	code, raw4 := post(t, ts, "/v1/explain", ExplainRequest{A: "a1", B: "a1"}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("reflexive explain status = %d", code)
	}
	_ = s

	// With the clock pinned, every line is fully deterministic given
	// the response sizes — a golden test of the JSONL schema itself.
	want := []string{
		`{"ts":"2026-01-02T03:04:05Z","request_id":"req-000001","method":"POST","path":"/v1/merges/certain","endpoint":"merges/certain","status":200,"dur_ms":0,"bytes":` + fmt.Sprint(len(raw1)) + `,"cache":"miss","outcome":"ok"}`,
		`{"ts":"2026-01-02T03:04:05Z","request_id":"req-000002","method":"POST","path":"/v1/merges/certain","endpoint":"merges/certain","status":200,"dur_ms":0,"bytes":` + fmt.Sprint(len(raw2)) + `,"cache":"hit","outcome":"ok"}`,
		`{"ts":"2026-01-02T03:04:05Z","request_id":"req-000003","method":"POST","path":"/healthz","status":200,"dur_ms":0,"bytes":` + fmt.Sprint(len(raw3)) + `,"outcome":"ok"}`,
		`{"ts":"2026-01-02T03:04:05Z","request_id":"req-000004","method":"POST","path":"/v1/explain","status":400,"dur_ms":0,"bytes":` + fmt.Sprint(len(raw4)) + `,"outcome":"bad_request"}`,
	}
	got := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(got) != len(want) {
		t.Fatalf("access log has %d lines, want %d:\n%s", len(got), len(want), buf.String())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("access log line %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

func TestRequestIDPropagation(t *testing.T) {
	in := loadFig1(t)
	var buf syncBuffer
	s, ts := newTestServer(t, in, func(c *Config) { c.AccessLog = &buf })
	fixServer(s)

	req, _ := http.NewRequest("POST", ts.URL+"/v1/merges/certain", nil)
	req.Header.Set(RequestIDHeader, "upstream-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "upstream-7" {
		t.Errorf("response %s = %q, want the client-supplied ID", RequestIDHeader, got)
	}
	if !strings.Contains(buf.String(), `"request_id":"upstream-7"`) {
		t.Errorf("access log missing upstream request ID: %s", buf.String())
	}

	// An oversized ID is replaced with a minted one.
	req, _ = http.NewRequest("POST", ts.URL+"/healthz", nil)
	req.Header.Set(RequestIDHeader, strings.Repeat("x", maxRequestIDLen+1))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "req-000001" {
		t.Errorf("minted ID = %q, want req-000001", got)
	}
}

func TestTraceCarriesRequestID(t *testing.T) {
	in := loadFig1(t)
	reg := obs.NewRegistry()
	var trace syncBuffer
	reg.TraceTo(&trace)
	s, ts := newTestServer(t, in, func(c *Config) { c.Recorder = reg })
	fixServer(s)
	post(t, ts, "/v1/merges/possible", nil, nil)

	var reqSpan struct {
		Span  string         `json:"span"`
		ID    int64          `json:"id"`
		Attrs map[string]any `json:"attrs"`
	}
	found := false
	for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
		if !strings.Contains(line, `"span":"serve.request"`) {
			continue
		}
		if err := json.Unmarshal([]byte(line), &reqSpan); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		found = true
	}
	if !found {
		t.Fatalf("no serve.request span in trace:\n%s", trace.String())
	}
	if reqSpan.Attrs["request_id"] != "req-000001" {
		t.Errorf("span attrs = %v, want request_id req-000001", reqSpan.Attrs)
	}
	if reqSpan.Attrs["endpoint"] != "merges/possible" {
		t.Errorf("span attrs = %v, want endpoint merges/possible", reqSpan.Attrs)
	}
}

func TestAuditLogRecordsAndVerifies(t *testing.T) {
	in := loadFig1(t)
	var logBuf syncBuffer
	al := audit.New(&logBuf)
	s, ts := newTestServer(t, in, func(c *Config) { c.Audit = al })
	fixServer(s)

	post(t, ts, "/v1/merges/certain", nil, nil)
	post(t, ts, "/v1/merges/possible", nil, nil)
	post(t, ts, "/v1/explain", ExplainRequest{A: "a1", B: "a2"}, nil)

	n, err := audit.Verify(strings.NewReader(logBuf.String()))
	if err != nil {
		t.Fatalf("audit verify: %v\n%s", err, logBuf.String())
	}
	if n == 0 {
		t.Fatal("audit log is empty after merge queries")
	}
	if got := s.Stats().Counter(obs.ServeAuditRecords); got != int64(n) {
		t.Errorf("serve.audit.records = %d, verifier counted %d", got, n)
	}

	// Schema spot checks: records carry the pair, decision, request ID,
	// endpoint, and for justified decisions a rule + Definition-4 steps.
	var justified, withRule int
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec audit.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Decision != audit.DecisionCertain && rec.Decision != audit.DecisionPossible {
			t.Errorf("bad decision %q", rec.Decision)
		}
		if rec.A == "" || rec.B == "" || rec.RequestID == "" || rec.Endpoint == "" {
			t.Errorf("incomplete record: %s", line)
		}
		if len(rec.Justification) > 0 {
			justified++
		}
		if rec.Rule != "" {
			withRule++
		}
	}
	if justified == 0 || withRule == 0 {
		t.Errorf("no justified records (justified=%d, with rule=%d):\n%s",
			justified, withRule, logBuf.String())
	}

	// Tampering with any line breaks the chain.
	tampered := strings.Replace(logBuf.String(), `"decision":"certain"`, `"decision":"possible"`, 1)
	if tampered == logBuf.String() {
		t.Fatal("expected at least one certain decision to tamper with")
	}
	if _, err := audit.Verify(strings.NewReader(tampered)); err == nil {
		t.Error("verifier accepted a tampered audit log")
	}
}

// TestTelemetryDifferential pins the acceptance criterion that turning
// every telemetry feature on (access log, audit log, tracing, strict
// names) leaves endpoint response bodies byte-identical to a bare
// server.
func TestTelemetryDifferential(t *testing.T) {
	t.Run("figure1", func(t *testing.T) {
		telemetryDifferential(t, loadFig1(t), loadFig1(t), "a1", "a2")
	})
	// The workload instance's closure is consistent, so its merges
	// audit justifies against the closure instead of enumerating.
	t.Run("workload", func(t *testing.T) {
		telemetryDifferential(t, loadWorkload(t), loadWorkload(t), "a0", "a0_d")
	})
}

// telemetryDifferential runs the byte-identity check over two parses of
// one instance; a and b name a pair of references to explain.
func telemetryDifferential(t *testing.T, in1, in2 instance, a, b string) {
	_, bare := newTestServer(t, in1, nil)

	reg := obs.NewRegistry()
	reg.SetStrict(true)
	var traceBuf, accessBuf, auditBuf syncBuffer
	reg.TraceTo(&traceBuf)
	_, full := newTestServer(t, in2, func(c *Config) {
		c.Recorder = reg
		c.AccessLog = &accessBuf
		c.Audit = audit.New(&auditBuf)
	})

	requests := []struct {
		path string
		body any
	}{
		{"/v1/merges/certain", nil},
		{"/v1/merges/possible", nil},
		{"/v1/solutions/maximal", nil},
		{"/v1/merges/certain", nil}, // cache hit on both
		{"/v1/explain", ExplainRequest{A: a, B: b}},
		{"/v1/explain", ExplainRequest{A: a, B: "zzz"}}, // 400 on both
		{"/healthz", nil},
	}
	for _, rq := range requests {
		code1, body1 := post(t, bare, rq.path, rq.body, nil)
		code2, body2 := post(t, full, rq.path, rq.body, nil)
		if code1 != code2 || !bytes.Equal(body1, body2) {
			t.Errorf("%s: telemetry changed the response:\nbare %d %s\nfull %d %s",
				rq.path, code1, body1, code2, body2)
		}
	}
	if accessBuf.Len() == 0 || auditBuf.Len() == 0 || traceBuf.Len() == 0 {
		t.Errorf("telemetry sinks empty: access=%d audit=%d trace=%d",
			accessBuf.Len(), auditBuf.Len(), traceBuf.Len())
	}
}
