package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/workload"
)

// serve_read: a read-only monolithic server with laced defaults and a
// non-durable audit log, over the small bib instance whose cache misses
// each cost one full enumeration. Reads repeat a hot set warmed before
// timing, except a fixed share that asks never-seen keys.
const (
	readInstanceSeed = 13
	readAuthors      = 6
	readPapers       = 9
	readConfs        = 3
	// readSLOms is the latency limit the ladder holds the read tail to:
	// a few times the cold-miss service time.
	readSLOms = 250
	// readMissShare is the fixed share of reads that ask a fresh key.
	readMissShare = 0.10
	// readHotKeys keyed reads form the hot set, next to the three
	// endpoints without a key.
	readHotKeys = 24
	// readSetups is how many times a run builds the server to time
	// set-up; the last one serves the load. The last readWarmups of them
	// warm the hot set.
	readSetups  = 15
	readWarmups = 3
	// readIdleKeys fresh keys are read one at a time after the ladder:
	// the side operation, and the miss split in a traced run.
	readIdleKeys = 40
)

// readLadder is the fixed-rate ladder; the first rung is the nominal
// rate that p50_ms and tail_ms report. span is the rung's share of the
// run's seconds. Each rung holds enough reads that its p95 falls inside
// the misses, not on the boundary between hits and misses, and the
// rates sit well below and well above the miss capacity of two CPUs.
var readLadder = []struct{ rate, span float64 }{
	{40, 0.7},
	{90, 0.15},
	{360, 0.15},
}

// readKey is one cacheable read: an endpoint and its request body.
type readKey struct {
	path string
	body []byte
	// Exactly one of the following describes the key for the direct
	// core check; the key-less endpoints have neither.
	explain *serve.ExplainRequest
	answers *serve.AnswersRequest
}

func readInstance() (*workload.Dataset, error) {
	cfg := workload.DefaultConfig(readInstanceSeed)
	cfg.Authors, cfg.Papers, cfg.Conferences = readAuthors, readPapers, readConfs
	return workload.Generate(cfg)
}

// readKeyUniverse lists every keyed read of the instance: explain for
// every pair of same-type references, and certain and possible answers
// to conjunctive queries that bind one reference constant.
func readKeyUniverse(ds *workload.Dataset) []readKey {
	in := ds.DB.Interner()
	ids := func(rel string) []string {
		var out []string
		for _, t := range ds.DB.Tuples(rel) {
			out = append(out, in.Name(t[0]))
		}
		return out
	}
	authors, papers, confs := ids("Author"), ids("Paper"), ids("Conference")
	var keys []readKey
	for _, group := range [][]string{authors, papers, confs} {
		for i := range group {
			for j := i + 1; j < len(group); j++ {
				req := serve.ExplainRequest{A: group[i], B: group[j]}
				keys = append(keys, readKey{path: "/v1/explain", body: mustJSON(req), explain: &req})
			}
		}
	}
	templates := []struct {
		text string
		over []string
	}{
		{`(x) : Wrote("%s", x, z)`, papers},
		{`(y) : Wrote(y, "%s", z)`, authors},
		{`(x) : CorrAuth("%s", x)`, papers},
		{`(x) : Chair("%s", x)`, confs},
		{`(x) : Paper(x, t, "%s")`, confs},
		{`(y) : Wrote("%s", x, z), Wrote(y, x, z2)`, papers},
		{`(x) : Paper(p, t, "%s"), Wrote(p, x, z)`, confs},
		{`(x, z) : Wrote("%s", x, z)`, papers},
		{`(y) : CorrAuth(y, "%s")`, authors},
		{`(x) : Chair(c, "%s"), Paper(x, t, c)`, authors},
		{`(y) : Wrote(p, "%s", z), Wrote(p, y, z2)`, authors},
	}
	for _, tpl := range templates {
		for _, c := range tpl.over {
			for _, sem := range []string{"certain", "possible"} {
				req := serve.AnswersRequest{Query: fmt.Sprintf(tpl.text, c), Semantics: sem}
				keys = append(keys, readKey{path: "/v1/answers", body: mustJSON(req), answers: &req})
			}
		}
	}
	return keys
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only fixed request structs are marshalled
	}
	return raw
}

// readHotAndFresh splits the key universe into the fixed hot set (the
// three key-less endpoints and readHotKeys keyed reads) and the fresh
// keys in the seed's order.
func readHotAndFresh(ds *workload.Dataset, seed int64) (hot, fresh []readKey) {
	universe := readKeyUniverse(ds)
	shuffle := func(rng *rand.Rand, ks []readKey) {
		rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	}
	shuffle(rand.New(rand.NewSource(readInstanceSeed)), universe)
	hot = []readKey{
		{path: "/v1/merges/certain", body: []byte(`{}`)},
		{path: "/v1/merges/possible", body: []byte(`{}`)},
		{path: "/v1/solutions/maximal", body: []byte(`{}`)},
	}
	hot = append(hot, universe[:readHotKeys]...)
	fresh = universe[readHotKeys:]
	shuffle(rand.New(rand.NewSource(seed)), fresh)
	return hot, fresh
}

func runServeRead(cfg runConfig, tr *tracer) (*outcome, error) {
	out := newOutcome()
	client := newClient(cfg)
	defer client.CloseIdleConnections()

	// Set-up: instance generation plus server construction until
	// /healthz answers, several times; the last server serves. The last
	// few servers each warm the hot set — every hot key computed once,
	// cold — and the median warm-up is bulk_s. The hot set is the same in
	// every run, so bulk_s times the same work; the seed orders the fresh
	// keys and draws the schedule.
	var ls *liveServer
	var hot, fresh []readKey
	var warm [][]byte
	var ds *workload.Dataset
	var setups, warmups []float64
	nSetups, nWarmups := readSetups, readWarmups
	if cfg.mini {
		nSetups, nWarmups = 1, 1
	}
	ctx := context.Background()
	for i := 0; i < nSetups; i++ {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return nil, err
			}
		}
		d, err := timed(func() error {
			var err error
			if ds, err = readInstance(); err != nil {
				return err
			}
			alog, _, err := audit.Open(filepath.Join(cfg.work, fmt.Sprintf("read-audit-%d.jsonl", i)), audit.Options{})
			if err != nil {
				return err
			}
			ls, err = startServer(serve.Config{
				DB: ds.DB, Spec: ds.Spec, Sims: ds.Sims,
				DefaultTimeout: lacedReqTimeout,
				MaxTimeout:     lacedMaxTimeout,
				Audit:          alog,
			}, client)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if hot == nil {
			hot, fresh = readHotAndFresh(ds, cfg.seed)
		}
		if i < nSetups-nWarmups {
			continue
		}
		warm = make([][]byte, len(hot))
		d, err = timed(func() error {
			for i, k := range hot {
				body, err := post(ctx, client, ls.url+k.path, k.body)
				if err != nil {
					return err
				}
				warm[i] = body
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("warming the hot set: %w", err)
		}
		warmups = append(warmups, d.Seconds())
	}
	defer ls.stop()
	out.e2e["setup_s"] = median(setups)
	out.e2e["bulk_s"] = median(warmups)
	rng := rand.New(rand.NewSource(cfg.seed + 1))

	// The ladder. Each request is a hit on a uniformly drawn hot key or
	// the next never-seen key.
	const (
		kindHit = iota
		kindMiss
	)
	var mu sync.Mutex
	missBody := map[int][]byte{}
	var hitMismatch error
	ladder := readLadder
	if cfg.mini {
		ladder = ladder[:1]
	}
	before := ls.srv.Stats()
	rt0 := readRuntime()
	var rungs []rung
	var lags []float64
	nextFresh := 0
	for ri, rs := range ladder {
		span := time.Duration(rs.span * cfg.seconds * float64(time.Second))
		if cfg.mini {
			span = 2 * time.Second
		}
		n := int(rs.rate * span.Seconds())
		times := poissonTimes(rng, n, span)
		// Exactly readMissShare of the rung's requests are misses, at
		// seeded positions, so every run has the same miss count.
		isMiss := map[int]bool{}
		for _, i := range rng.Perm(n)[:int(readMissShare*float64(n))] {
			isMiss[i] = true
		}
		reqs := make([]request, n)
		for i, t := range times {
			reqs[i] = request{due: t, kind: kindHit, key: rng.Intn(len(hot))}
			if isMiss[i] {
				if nextFresh == len(fresh) {
					return nil, fmt.Errorf("rung %d: %d fresh keys exhausted", ri, len(fresh))
				}
				reqs[i] = request{due: t, kind: kindMiss, key: nextFresh}
				nextFresh++
			}
		}
		// Misses get a connection of their own; see splitLoop.
		isMissReq := func(r request) bool { return r.kind == kindMiss }
		ss, lag := splitLoop(ctx, reqs, cfg.conns, isMissReq, func(ctx context.Context, r request) error {
			var k readKey
			if r.kind == kindMiss {
				k = fresh[r.key]
			} else {
				k = hot[r.key]
			}
			body, err := post(ctx, client, ls.url+k.path, k.body)
			if err != nil {
				return err
			}
			mu.Lock()
			defer mu.Unlock()
			if r.kind == kindMiss {
				missBody[r.key] = body
			} else if !bytes.Equal(body, warm[r.key]) && hitMismatch == nil {
				hitMismatch = fmt.Errorf("%s %s: cached response differs from the warm-up response", k.path, k.body)
			}
			return nil
		})
		rungs = append(rungs, rung{samples: ss, elapsed: lastDone(ss)})
		for _, l := range lag {
			lags = append(lags, ms(l))
		}
		for _, s := range ss {
			out.attempted++
			if s.err != nil {
				out.failed++
				out.notes["first_error"] = s.err.Error()
			}
		}
	}
	rt1 := readRuntime()
	after := ls.srv.Stats()
	ladderReads := out.attempted

	nominal := rungs[0].samples
	all := summarize(latenciesMS(nominal, nil), 0.99)
	miss := summarize(latenciesMS(nominal, func(s sample) bool { return s.kind == kindMiss }), 0.99)
	out.e2e["p50_ms"], out.e2e["tail_ms"] = all.p50, all.pTl
	out.e2e["rate_per_s"] = rateAtSLO(rungs, readSLOms)
	out.notes["tail_level"] = all.level
	out.notes["nominal_reads"] = all.n
	out.notes["nominal_misses"] = miss.n
	out.notes["nominal_miss_p50_ms"] = miss.p50
	var meets []bool
	for _, r := range rungs {
		meets = append(meets, r.meets(readSLOms))
	}
	out.notes["rungs_meeting_slo"] = meets

	// The side operation: never-seen keys read one at a time on the idle
	// server after the ladder, the cold-miss service time. A traced run
	// also makes the core call the server makes for each key (a fresh
	// fork plus the endpoint's *Ctx call) next to it, for the miss split.
	oracle, err := newReadOracle()
	if err != nil {
		return nil, err
	}
	ladderMisses := nextFresh
	var idleMS, coreMS, selfMS []float64
	for i := nextFresh; i < nextFresh+readIdleKeys; i++ {
		if i == len(fresh) {
			return nil, fmt.Errorf("%d fresh keys exhausted", len(fresh))
		}
		// The core call goes first for even keys and second for odd
		// ones, so neither side of the split gains from running after
		// the other.
		var d time.Duration
		coreCall := func() error {
			var err error
			_, d, err = oracle.expect(ctx, fresh[i], true)
			return err
		}
		if tr != nil && i%2 == 0 {
			if err := coreCall(); err != nil {
				return nil, err
			}
		}
		out.attempted++
		t0 := time.Now()
		body, err := post(ctx, client, ls.url+fresh[i].path, fresh[i].body)
		if err != nil {
			out.failed++
			out.notes["first_error"] = err.Error()
			idleMS = append(idleMS, math.Inf(1))
			continue
		}
		service := time.Since(t0)
		if tr != nil && i%2 == 1 {
			if err := coreCall(); err != nil {
				return nil, err
			}
		}
		missBody[i] = body
		idleMS = append(idleMS, ms(service))
		if tr != nil {
			coreMS = append(coreMS, ms(d))
			selfMS = append(selfMS, ms(service-d))
		}
	}
	nextFresh += readIdleKeys
	idle := summarize(idleMS, 0.90)
	out.e2e["side_p50_ms"], out.notes["side_tail_ms"], out.notes["side_tail_level"] = idle.p50, idle.pTl, idle.level

	// Output check, outside the timed region: every miss response must
	// equal the direct core result for its key, byte for byte.
	if hitMismatch != nil {
		out.fail(hitMismatch)
	}
	for i := 0; i < nextFresh; i++ {
		body, ok := missBody[i]
		if !ok {
			continue // the request failed; already counted
		}
		want, _, err := oracle.expect(ctx, fresh[i], false)
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(body, want) {
			out.failed++
			out.fail(fmt.Errorf("%s %s: server answered %s, core answers %s", fresh[i].path, fresh[i].body, bytes.TrimSpace(body), bytes.TrimSpace(want)))
		}
	}

	if tr != nil {
		hitSS := latenciesMS(nominal, func(s sample) bool { return s.kind == kindHit })
		L := out.layers
		L["serve.hit_ms"] = median(hitSS)
		L["serve.self_ms"] = median(selfMS)
		L["core.miss_p50_ms"] = quantile(append([]float64(nil), coreMS...), 0.5)
		L["core.miss_tail_ms"] = quantile(append([]float64(nil), coreMS...), tailOr(len(coreMS), 0.99))
		serveCounters(L, before, after, ladderMisses)
		L["serve.pool_wait_p99_ms"] = ms(time.Duration(after.Histogram(obs.ServePoolWait).P99))
		L["loadgen.lag_tail_ms"] = quantile(lags, tailOr(len(lags), 0.99))
		L["go.alloc_mb_per_op"], L["go.gc_cpu_fraction"] = runtimeDelta(rt0, rt1, ladderReads)
		L["trace.p50_ms"], L["trace.tail_ms"] = all.p50, all.pTl
		if err := kernelSpans(ctx, ds, tr, L); err != nil {
			return nil, err
		}
		if err := justifySpans(ctx, ds, L); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tailOr is tailLevel with the highest level as a fallback for short
// series, where the maximum is the only tail there is.
func tailOr(n int, max float64) float64 {
	if q := tailLevel(n, max); q > 0 {
		return q
	}
	return 1
}

// serveCounters fills the per-layer ratios read from the server's
// registry over the measured phase.
func serveCounters(L map[string]float64, before, after obs.Snapshot, misses int) {
	delta := func(name string) float64 { return float64(after.Counter(name) - before.Counter(name)) }
	L["serve.cache_hit_ratio"] = ratio(delta(obs.ServeCacheHits), delta(obs.ServeCacheHits)+delta(obs.ServeCacheMisses))
	L["core.states_per_miss"] = ratio(delta(obs.CoreSearchStates), float64(misses))
	L["core.induced_cache_hit_ratio"] = ratio(delta(obs.CoreCacheHits), delta(obs.CoreCacheHits)+delta(obs.CoreCacheMisses))
	L["cq.evals_per_miss"] = ratio(delta(obs.CQEvalCalls), float64(misses))
	L["cq.matches_per_eval"] = ratio(delta(obs.CQEvalMatches), delta(obs.CQEvalCalls))
	L["db.induced_incremental_ratio"] = ratio(delta(obs.DBInducedIncremental), delta(obs.CoreCacheMisses))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// readOracle answers read keys by calling core directly on an
// independently generated copy of the instance.
type readOracle struct {
	ds  *workload.Dataset
	eng *core.Engine
}

func newReadOracle() (*readOracle, error) {
	ds, err := readInstance()
	if err != nil {
		return nil, err
	}
	eng, err := core.New(ds.DB, ds.Spec, ds.Sims, core.Options{})
	if err != nil {
		return nil, err
	}
	return &readOracle{ds: ds, eng: eng}, nil
}

// expect renders the response the server must give for k, and the time
// of the core call (Engine.Fork plus the endpoint's *Ctx call). cold
// forks a fresh engine per key, as the server does; otherwise the
// oracle reuses one engine, whose caches make the check fast.
func (o *readOracle) expect(ctx context.Context, k readKey, cold bool) ([]byte, time.Duration, error) {
	in := o.ds.DB.Interner()
	var resp any
	t0 := time.Now()
	eng := o.eng
	if cold {
		eng = o.eng.Fork()
	}
	switch {
	case k.explain != nil:
		a, _ := in.Lookup(k.explain.A)
		b, _ := in.Lookup(k.explain.B)
		x, err := eng.ExplainMergeCtx(ctx, a, b)
		if err != nil {
			return nil, 0, err
		}
		resp = serve.ExplainResponse{Pair: serve.MergePair{A: k.explain.A, B: k.explain.B},
			Status: x.Status.String(), Text: x.Format(in)}
	case k.answers != nil:
		q, err := rules.ParseQuery(k.answers.Query, o.ds.DB.Schema(), in.Clone(), o.ds.Sims)
		if err != nil {
			return nil, 0, err
		}
		var tuples [][]db.Const
		if k.answers.Semantics == "possible" {
			tuples, err = eng.PossibleAnswersCtx(ctx, q)
		} else {
			tuples, err = eng.CertainAnswersCtx(ctx, q)
		}
		if err != nil {
			return nil, 0, err
		}
		r := serve.AnswersResponse{Semantics: k.answers.Semantics, Query: k.answers.Query}
		r.Answers = make([][]string, len(tuples))
		for i, t := range tuples {
			r.Answers[i] = make([]string, len(t))
			for j, c := range t {
				r.Answers[i][j] = in.Name(c)
			}
		}
		r.Count = len(r.Answers)
		resp = r
	default:
		return nil, 0, fmt.Errorf("%s has no direct check", k.path)
	}
	d := time.Since(t0)
	raw, err := json.Marshal(resp)
	if err != nil {
		return nil, 0, err
	}
	return append(raw, '\n'), d, nil
}
