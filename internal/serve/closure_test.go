package serve

// closure_test.go: the server side of the closure bound — the merges
// audit justifies possible pairs against a consistent all-rules closure
// without a second enumeration, and /metrics tells the two
// maximal-solution paths apart.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/obs"
	gen "repro/internal/workload"
)

// loadWorkload generates the synthetic bib instance the serve_read
// benchmark serves (seed 13, 6 authors, 9 papers, 3 conferences). Its
// all-rules closure is consistent, so every maximal-solution query is
// answered from the closure.
func loadWorkload(t testing.TB) instance {
	t.Helper()
	cfg := gen.DefaultConfig(13)
	cfg.Authors, cfg.Papers, cfg.Conferences = 6, 9, 3
	ds, err := gen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return instance{db: ds.DB, spec: ds.Spec, sims: ds.Sims}
}

// TestAuditPossibleMergesFromClosure: on a consistent closure every
// possible-merge record carries a Definition-4 justification, the chain
// verifies, and neither the response nor its audit searched.
func TestAuditPossibleMergesFromClosure(t *testing.T) {
	in := loadWorkload(t)
	reg := obs.NewRegistry()
	reg.SetStrict(true)
	var logBuf syncBuffer
	s, ts := newTestServer(t, in, func(c *Config) {
		c.Recorder = reg
		c.Audit = audit.New(&logBuf)
	})
	fixServer(s)

	var resp MergesResponse
	if code, raw := post(t, ts, "/v1/merges/possible", nil, &resp); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp.Count == 0 {
		t.Fatal("no possible merges on the workload instance")
	}
	recs, err := audit.VerifyRecords(strings.NewReader(logBuf.String()))
	if err != nil {
		t.Fatalf("audit verify: %v\n%s", err, logBuf.String())
	}
	if len(recs) != resp.Count {
		t.Fatalf("%d audit records for %d possible merges", len(recs), resp.Count)
	}
	for _, rec := range recs {
		if rec.Decision != audit.DecisionPossible || rec.Rule == "" || len(rec.Justification) == 0 {
			line, _ := json.Marshal(rec)
			t.Errorf("possible-merge record without a justification: %s", line)
		}
	}
	snap := s.Stats()
	if n := snap.Counter(obs.CoreMaxSolClosure); n == 0 {
		t.Error("possible merges were not answered by the closure bound")
	}
	if n := snap.Counter(obs.CoreSearchStates); n != 0 {
		t.Errorf("response or audit searched %d states on a consistent closure", n)
	}
}

// TestMetricsMaxSolPaths: a sharded server on Figure 1 answers some
// shards from their closures and enumerates the conflicting ones, so
// both path counters reach /metrics, which must stay conformant.
func TestMetricsMaxSolPaths(t *testing.T) {
	in := loadFig1(t)
	reg := obs.NewRegistry()
	reg.SetStrict(true)
	_, ts := newTestServer(t, in, func(c *Config) {
		c.Recorder = reg
		c.Sharded = true
	})
	if code, raw := post(t, ts, "/v1/solutions/maximal", nil, nil); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	res := obs.LintProm(resp.Body)
	if err := res.Err(); err != nil {
		t.Fatalf("conformance: %v", err)
	}
	if missing := res.CheckFamilies(
		"lace_core_maxsol_closure_total",
		"lace_core_maxsol_enumerated_total",
	); len(missing) > 0 {
		t.Fatalf("missing families: %v", missing)
	}
}
