package core

// closure_test.go is the differential wall of the closure bound
// (closure.go): on random instances, Figure 1 and the workload bib
// instances, every maximal-solution query answered on the default path
// must equal the same query answered by full enumeration, sequentially
// and in parallel. Path counters pin which path answered.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cq"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/fixtures"
	"repro/internal/limits"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/workload"
)

// forceEnumeration makes every maximal-solution query of e's session
// enumerate the solution space, ignoring the closure bound. Call it
// before the engine is used.
func forceEnumeration(e *Engine) *Engine {
	e.sess.enumerateOnly = true
	return e
}

// probe is what a differential run asks beyond the key-less queries:
// the per-pair deciders run on every pair of consts, the per-tuple
// deciders on every tuple over consts of each query's arity.
type probe struct {
	consts  []db.Const
	queries []*cq.CQ
}

// pathCounts reports how many maximal-solution queries the closure
// bound answered and how many fell back to enumeration.
func pathCounts(reg *obs.Registry) (closure, enumerated int64) {
	s := reg.Snapshot()
	return s.Counter(obs.CoreMaxSolClosure), s.Counter(obs.CoreMaxSolEnumerated)
}

// maxSolPath builds a fresh engine and reports which path answered its
// MaximalSolutions: "closure" or "search".
func maxSolPath(t *testing.T, d *db.Database, spec *rules.Spec, reg *sim.Registry) string {
	t.Helper()
	rec := obs.NewRegistry()
	rec.SetStrict(true)
	e, err := New(d, spec, reg, Options{Parallelism: 1, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.MaximalSolutions(); err != nil {
		t.Fatal(err)
	}
	switch c, n := pathCounts(rec); {
	case c == 1 && n == 0:
		return "closure"
	case c == 0 && n == 1:
		return "search"
	default:
		t.Fatalf("one MaximalSolutions call counted closure=%d enumerated=%d", c, n)
		return ""
	}
}

// assertPathsAgree compares every maximal-solution query of a
// default-path engine against a forced-enumeration engine over the same
// inputs, at Parallelism 1 and 4.
func assertPathsAgree(t *testing.T, label string, d *db.Database, spec *rules.Spec, reg *sim.Registry, pr probe) {
	t.Helper()
	in := d.Interner()
	for _, par := range []int{1, 4} {
		l := fmt.Sprintf("%s/par=%d", label, par)
		rec := obs.NewRegistry()
		rec.SetStrict(true)
		bnd, err := New(d, spec, reg, Options{Parallelism: par, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		enum, err := New(d, spec, reg, Options{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		forceEnumeration(enum)

		bm, err := bnd.MaximalSolutions()
		if err != nil {
			t.Fatalf("%s: maximal: %v", l, err)
		}
		em, err := enum.MaximalSolutions()
		if err != nil {
			t.Fatalf("%s: enumerated maximal: %v", l, err)
		}
		if got, want := partitionKeys(bm), partitionKeys(em); got != want {
			t.Fatalf("%s: maximal solutions differ:\nclosure %v\nsearch  %v", l, bm, em)
		}
		for _, f := range []struct {
			name string
			run  func(*Engine) ([]eqrel.Pair, error)
		}{
			{"certain merges", (*Engine).CertainMerges},
			{"possible merges", (*Engine).PossibleMerges},
		} {
			got, err := f.run(bnd)
			if err != nil {
				t.Fatal(err)
			}
			want, err := f.run(enum)
			if err != nil {
				t.Fatal(err)
			}
			if !samePairs(got, want) {
				t.Fatalf("%s: %s differ: closure %v, search %v", l, f.name, got, want)
			}
		}

		for i, a := range pr.consts {
			for _, b := range pr.consts[i+1:] {
				for _, f := range []struct {
					name string
					run  func(*Engine, db.Const, db.Const) (bool, error)
				}{
					{"IsPossibleMerge", (*Engine).IsPossibleMerge},
					{"IsCertainMerge", (*Engine).IsCertainMerge},
				} {
					got, err := f.run(bnd, a, b)
					if err != nil {
						t.Fatal(err)
					}
					want, err := f.run(enum, a, b)
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Fatalf("%s: %s(%s,%s) = %v, enumeration says %v",
							l, f.name, in.Name(a), in.Name(b), got, want)
					}
				}
				gx, err := bnd.ExplainMerge(a, b)
				if err != nil {
					t.Fatal(err)
				}
				wx, err := enum.ExplainMerge(a, b)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := gx.Format(in), wx.Format(in); got != want {
					t.Fatalf("%s: explanations differ:\nclosure %s\nsearch  %s", l, got, want)
				}
			}
		}

		for _, q := range pr.queries {
			for _, f := range []struct {
				name string
				run  func(*Engine, *cq.CQ) ([][]db.Const, error)
			}{
				{"certain answers", (*Engine).CertainAnswers},
				{"possible answers", (*Engine).PossibleAnswers},
			} {
				got, err := f.run(bnd, q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := f.run(enum, q)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: %s of %v differ: closure %v, search %v", l, f.name, q.Head, got, want)
				}
			}
			for _, tuple := range tuplesOver(pr.consts, len(q.Head)) {
				got, err := bnd.IsPossibleAnswer(q, tuple)
				if err != nil {
					t.Fatal(err)
				}
				want, err := enum.IsPossibleAnswer(q, tuple)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s: IsPossibleAnswer(%v) = %v, enumeration says %v", l, tuple, got, want)
				}
			}
		}

		// MaxRec on the maximal solutions, the closure itself, the
		// identity and up to 16 enumerated solutions.
		U, _, err := enum.ClosureBound(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		cands := append([]*eqrel.Partition{U, enum.Identity()}, em...)
		if err := enum.Solutions(func(E *eqrel.Partition) bool {
			cands = append(cands, E.Clone())
			return len(cands) >= len(em)+18
		}); err != nil {
			t.Fatal(err)
		}
		for _, E := range cands {
			got, err := bnd.IsMaximalSolution(E)
			if err != nil {
				t.Fatal(err)
			}
			want, err := enum.IsMaximalSolution(E)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s: IsMaximalSolution(%v) = %v, enumeration says %v", l, E, got, want)
			}
		}
		if c, _ := pathCounts(rec); c == 0 && len(bm) == 1 && bm[0].Equal(U) {
			t.Errorf("%s: unique maximal solution equals the closure, yet no query used the bound", l)
		}
	}
}

func partitionKeys(ps []*eqrel.Partition) string {
	var s string
	for _, p := range ps {
		s += fmt.Sprintf("%q;", p.Key())
	}
	return s
}

// tuplesOver lists every k-tuple over consts.
func tuplesOver(consts []db.Const, k int) [][]db.Const {
	out := [][]db.Const{nil}
	for i := 0; i < k; i++ {
		var next [][]db.Const
		for _, t := range out {
			for _, c := range consts {
				next = append(next, append(append([]db.Const(nil), t...), c))
			}
		}
		out = next
	}
	return out
}

func mustQueries(t *testing.T, d *db.Database, reg *sim.Registry, texts ...string) []*cq.CQ {
	t.Helper()
	out := make([]*cq.CQ, len(texts))
	for i, src := range texts {
		q, err := rules.ParseQuery(src, d.Schema(), d.Interner(), reg)
		if err != nil {
			t.Fatalf("query %q: %v", src, err)
		}
		out[i] = q
	}
	return out
}

func constsNamed(d *db.Database, names ...string) []db.Const {
	var out []db.Const
	for _, n := range names {
		if c, ok := d.Interner().Lookup(n); ok {
			out = append(out, c)
		}
	}
	return out
}

// inconsistentInstance draws random instances until one has an
// inconsistent closure, where maximal-solution queries must search.
func inconsistentInstance(t *testing.T, rng *rand.Rand) (*db.Database, *rules.Spec, *sim.Registry) {
	t.Helper()
	for try := 0; try < 1000; try++ {
		d, spec, reg := randomInstance(t, rng)
		e, err := New(d, spec, reg, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := e.ClosureBound(context.Background()); err != nil {
			t.Fatal(err)
		} else if !ok {
			return d, spec, reg
		}
	}
	t.Fatal("no random instance with an inconsistent closure")
	return nil, nil, nil
}

// TestClosureDifferentialRandom runs the wall over random instances of
// the property-test family, which mixes consistent and inconsistent
// closures; both paths must be exercised.
func TestClosureDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1213))
	paths := map[string]int{}
	for trial := 0; trial < 30; trial++ {
		d, spec, reg := randomInstance(t, rng)
		paths[maxSolPath(t, d, spec, reg)]++
		assertPathsAgree(t, fmt.Sprintf("trial %d", trial), d, spec, reg, probe{
			consts: constsNamed(d, "c0", "c1", "c2", "c3", "c4"),
			queries: mustQueries(t, d, reg,
				`(x, y) : R(x, y)`,
				`(x) : S(x, v), R(v, w)`,
				`(x, y) : N(x, n), N(y, m), approx(n, m)`),
		})
	}
	if paths["closure"] == 0 || paths["search"] == 0 {
		t.Fatalf("random family exercised only one path: %v", paths)
	}
}

// TestClosureDifferentialFigure1: the running example has conflicting
// merges (two maximal solutions), so its closure is inconsistent and
// maximal solutions come from enumeration.
func TestClosureDifferentialFigure1(t *testing.T) {
	f := fixtures.New()
	if got := maxSolPath(t, f.DB, f.Spec, f.Sims); got != "search" {
		t.Fatalf("Figure 1 answered by %s, want search", got)
	}
	assertPathsAgree(t, "figure1", f.DB, f.Spec, f.Sims, probe{
		consts:  constsNamed(f.DB, "a1", "a4", "a5", "c2", "p2"),
		queries: append(bibQueries(t, f.DB.Schema()), mustQueries(t, f.DB, f.Sims, `(x) : Wrote(p, x, z)`)...),
	})
}

// workloadInstance generates a bib instance of the synthetic workload.
func workloadInstance(t *testing.T, seed int64, authors, papers, confs int) *workload.Dataset {
	t.Helper()
	cfg := workload.DefaultConfig(seed)
	cfg.Authors, cfg.Papers, cfg.Conferences = authors, papers, confs
	ds, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// firstIDs returns the first n reference ids of relation rel.
func firstIDs(d *db.Database, rel string, n int) []db.Const {
	var out []db.Const
	for _, tp := range d.Tuples(rel) {
		if len(out) == n {
			break
		}
		out = append(out, tp[0])
	}
	return out
}

// TestClosureDifferentialWorkload runs the wall on the workload bib
// instances of the benchmark: the serve_read instance (seed 13, 6/9/3),
// whose unique maximal solution is its closure, with every per-pair and
// per-tuple decider; and the rest of the ASP suite on the key-less
// queries, which keeps the forced enumerations affordable under -race.
func TestClosureDifferentialWorkload(t *testing.T) {
	suite := []struct {
		seed                   int64
		authors, papers, confs int
	}{{13, 6, 9, 3}, {1, 8, 12, 4}, {2, 10, 14, 4}, {3, 12, 16, 4}}
	if testing.Short() {
		suite = suite[:1]
	}
	for i, s := range suite {
		ds := workloadInstance(t, s.seed, s.authors, s.papers, s.confs)
		pr := probe{queries: bibQueries(t, ds.Schema)}
		if i == 0 {
			if got := maxSolPath(t, ds.DB, ds.Spec, ds.Sims); got != "closure" {
				t.Fatalf("serve_read instance answered by %s, want closure", got)
			}
			pr.consts = append(firstIDs(ds.DB, "Author", 2), firstIDs(ds.DB, "Paper", 1)...)
			pr.queries = append(pr.queries, mustQueries(t, ds.DB, ds.Sims, `(x) : Wrote(p, x, z)`)...)
		}
		assertPathsAgree(t, fmt.Sprintf("seed %d", s.seed), ds.DB, ds.Spec, ds.Sims, pr)
	}
}

// TestClosureCanceled: an expired context stops the closure with a
// typed cancellation error and caches nothing; the next call computes
// and caches the bound.
func TestClosureCanceled(t *testing.T) {
	ds := workloadInstance(t, 13, 6, 9, 3)
	e, err := New(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := e.MaximalSolutionsCtx(ctx); !errors.Is(err, limits.ErrCanceled) {
		t.Fatalf("expired context: err = %v, want limits.ErrCanceled", err)
	}
	if e.sess.bound.Load() != nil {
		t.Fatal("a cancelled closure was cached")
	}
	U := e.Identity()
	if err := e.allClose(ctx, U); !errors.Is(err, limits.ErrCanceled) {
		t.Fatalf("closure on an expired context: err = %v, want limits.ErrCanceled", err)
	}
	if err := e.hardClose(ctx, e.Identity()); !errors.Is(err, limits.ErrCanceled) {
		t.Fatalf("hard closure on an expired context: err = %v, want limits.ErrCanceled", err)
	}
	ms, err := e.MaximalSolutionsCtx(context.Background())
	if err != nil || len(ms) != 1 {
		t.Fatalf("live context: %d solutions, err %v", len(ms), err)
	}
	if b := e.sess.bound.Load(); b == nil || !b.consistent || !b.U.Equal(ms[0]) {
		t.Fatal("the completed closure was not cached as the unique maximal solution")
	}
}

// TestClosureSharedByForks: concurrent forks share one read-only bound
// (run under -race), and each gets its own copy of the answer.
func TestClosureSharedByForks(t *testing.T) {
	ds := workloadInstance(t, 13, 6, 9, 3)
	e, err := New(ds.DB, ds.Spec, ds.Sims, Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Fork().MaximalSolutions()
	if err != nil {
		t.Fatal(err)
	}
	shared := e.sess.bound.Load()
	q := bibQueries(t, ds.Schema)[0]
	authors := firstIDs(ds.DB, "Author", 3)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := e.Fork()
			ms, err := f.MaximalSolutions()
			if err != nil || len(ms) != 1 || !ms[0].Equal(want[0]) {
				errs <- fmt.Errorf("fork maximal solutions %v, err %v", ms, err)
				return
			}
			ms[0].Union(authors[0], authors[1]) // a private copy
			if _, err := f.PossibleAnswers(q); err != nil {
				errs <- err
				return
			}
			if _, err := f.IsPossibleAnswer(q, authors[:2]); err != nil {
				errs <- err
				return
			}
			if _, err := f.ExplainMerge(authors[1], authors[2]); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if e.sess.bound.Load() != shared {
		t.Error("forks recomputed the session's closure bound")
	}
	if !shared.U.Equal(want[0]) {
		t.Error("a caller mutated the shared closure")
	}
}

// TestMaxSolSpanPath: the core.maxsol span names the path that answered.
func TestMaxSolSpanPath(t *testing.T) {
	ds := workloadInstance(t, 13, 6, 9, 3)
	f := fixtures.New()
	for _, c := range []struct {
		d    *db.Database
		spec *rules.Spec
		reg  *sim.Registry
		want string
	}{
		{ds.DB, ds.Spec, ds.Sims, "closure"},
		{f.DB, f.Spec, f.Sims, "search"},
	} {
		rec := obs.NewRegistry()
		var trace bytes.Buffer
		rec.TraceTo(&trace)
		e, err := New(c.d, c.spec, c.reg, Options{Parallelism: 1, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.MaximalSolutions(); err != nil {
			t.Fatal(err)
		}
		var span struct {
			Span  string         `json:"span"`
			Attrs map[string]any `json:"attrs"`
		}
		found := false
		for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
			if err := json.Unmarshal([]byte(line), &span); err != nil {
				t.Fatalf("bad trace line %q: %v", line, err)
			}
			if span.Span == obs.SpanCoreMaxSol {
				found = true
				if span.Attrs["path"] != c.want {
					t.Errorf("core.maxsol attrs = %v, want path=%s", span.Attrs, c.want)
				}
			}
		}
		if !found {
			t.Errorf("no core.maxsol span in trace:\n%s", trace.String())
		}
	}
}
