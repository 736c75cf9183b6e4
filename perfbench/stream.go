package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/blocking"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// stream_resolve: the library path at the E20/E21 scale. Each set-up
// generates the instance afresh and pays one cold sharded resolve, as a
// batch user does; then one-fact batches stream in, each followed by a
// re-resolve of the new epoch.
const (
	streamInstanceSeed = 20
	streamEntities     = 2000
	streamSetups       = 5
	// streamWriteFacts is how many distinct facts the batches toggle.
	streamWriteFacts = 16
	// streamMinF1 is the E20 certain-merge F1 (1.00 to two digits); the
	// final epoch must score at least this against the ground truth.
	streamMinF1 = 0.995
)

func streamInstance(entities int) (*workload.Dataset, error) {
	return workload.GenerateScale(workload.DefaultScaleConfig(streamInstanceSeed, entities))
}

func runStreamResolve(cfg runConfig, tr *tracer) (*outcome, error) {
	out := newOutcome()
	ctx := context.Background()
	// A mini run keeps the full size: below ~3000 entities the domain is
	// small enough that sharding seeds components by brute force, a
	// different regime.
	seconds, nSetups := cfg.seconds, streamSetups
	if cfg.mini {
		seconds, nSetups = 2, 1
	}
	var reg *obs.Registry
	var spans gatedWriter
	opts := core.Options{}
	if tr != nil {
		reg = obs.NewRegistry()
		reg.TraceTo(&spans)
		opts.Recorder = reg
	}

	// Set-up: generate the instance and construct the session, several
	// times; each is followed by its cold resolve, timed as bulk_s.
	var ds *workload.Dataset
	var m *core.MutableSession
	var setups, resolves []float64
	for i := 0; i < nSetups; i++ {
		d, err := timed(func() error {
			var err error
			if ds, err = streamInstance(streamEntities); err != nil {
				return err
			}
			m, err = core.NewMutableSharded(ds.DB, ds.Spec, ds.Sims, opts, core.ShardOptions{})
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		spans.record(tr != nil && i == nSetups-1)
		d, err = timed(func() error {
			_, err := m.Snapshot().PossibleMergesCtx(ctx)
			return err
		})
		spans.record(false)
		if err != nil {
			return nil, err
		}
		resolves = append(resolves, d.Seconds())
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["bulk_s"] = median(resolves)

	L := out.layers
	if tr != nil {
		plan, solve, err := planSelfAndSolve(spans.buf.Bytes())
		if err != nil {
			return nil, err
		}
		L["core.shard_plan_ms"], L["core.shard_solve_ms"] = plan, solve
		out.notes["last_cold_resolve_ms"] = 1000 * resolves[len(resolves)-1]
		if err := simAndBlocking(ctx, L); err != nil {
			return nil, err
		}
	}

	// The stream: one-fact batches, each applied and re-resolved.
	rng := rand.New(rand.NewSource(cfg.seed))
	facts := toggleFacts(ds, streamWriteFacts)
	present := make([]bool, len(facts))
	for i := range present {
		present[i] = true
	}
	var epochMS, applyMS []float64
	var solves, reused float64
	var before obs.Snapshot
	if reg != nil {
		before = reg.Snapshot()
	}
	rt0 := readRuntime()
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		k := rng.Intn(len(facts))
		b := core.Batch{Insert: []db.FactSpec{facts[k]}}
		if present[k] {
			b = core.Batch{Retract: []db.FactSpec{facts[k]}}
		}
		present[k] = !present[k]
		out.attempted++
		t0 := time.Now()
		res, snap, err := m.Apply(b)
		tApply := time.Since(t0)
		if err == nil {
			_, err = snap.PossibleMergesCtx(ctx)
		}
		tEpoch := time.Since(t0)
		if err != nil {
			out.failed++
			out.notes["first_error"] = err.Error()
			continue
		}
		if res.Inserted+res.Retracted != 1 {
			out.failed++
			out.fail(fmt.Errorf("epoch %d: batch changed %d facts, want 1", res.Epoch, res.Inserted+res.Retracted))
		}
		epochMS = append(epochMS, ms(tEpoch))
		applyMS = append(applyMS, ms(tApply))
		if tr != nil {
			st, err := snap.Sharded().Stats()
			if err != nil {
				return nil, err
			}
			solves += float64(st.Solves)
			reused += float64(st.Reused)
		}
	}
	elapsed := time.Since(start)
	rt1 := readRuntime()
	epochs := summarize(epochMS, 0.90)
	apply := summarize(applyMS, 0.90)
	out.e2e["p50_ms"], out.e2e["tail_ms"] = epochs.p50, epochs.pTl
	out.e2e["side_p50_ms"], out.notes["side_tail_ms"] = apply.p50, apply.pTl
	out.e2e["rate_per_s"] = float64(len(epochMS)) / elapsed.Seconds()
	out.notes["epochs"], out.notes["tail_level"], out.notes["side_tail_level"] = epochs.n, epochs.level, apply.level

	if tr != nil {
		after := reg.Snapshot()
		delta := func(name string) float64 { return float64(after.Counter(name) - before.Counter(name)) }
		n := float64(max(len(epochMS), 1))
		L["core.shard_solves"] = solves / n
		L["core.shard_reused"] = reused / n
		hits, misses := delta(obs.CoreShardCacheHits), delta(obs.CoreShardCacheMisses)
		L["core.solve_cache_hit_ratio"] = ratio(hits, hits+misses)
		L["core.apply_ms"] = median(append([]float64(nil), applyMS...))
		L["go.alloc_mb_per_op"], L["go.gc_cpu_fraction"] = runtimeDelta(rt0, rt1, len(epochMS))
		L["trace.p50_ms"], L["trace.tail_ms"] = epochs.p50, epochs.pTl
		// The re-resolve part of an epoch, on its own.
		var res []float64
		for i := range epochMS {
			res = append(res, epochMS[i]-applyMS[i])
		}
		L["core.epoch_resolve_ms"] = median(res)
		if err := dbApplySpans(ds, facts, L); err != nil {
			return nil, err
		}
	}

	// Output check, outside the timed region: restore every toggled
	// fact, then the final epoch must equal a from-scratch rebuild and
	// keep the E20 certain-merge F1.
	var restore core.Batch
	for k, f := range facts {
		if !present[k] {
			restore.Insert = append(restore.Insert, f)
		}
	}
	if _, _, err := m.Apply(restore); err != nil {
		return nil, err
	}
	if err := checkStream(ctx, ds, m.Snapshot()); err != nil {
		out.failed++
		out.fail(err)
	}
	return out, nil
}

// toggleFacts picks Author facts evenly spaced over the instance.
func toggleFacts(ds *workload.Dataset, n int) []db.FactSpec {
	var out []db.FactSpec
	for _, f := range writeFacts(ds, n) {
		out = append(out, db.FactSpec{Rel: f.Rel, Args: f.Args})
	}
	return out
}

// checkStream compares the final epoch with a fresh sharded engine
// over the same database (incremental ≡ rebuild) and scores its
// certain merges against the generator's truth.
func checkStream(ctx context.Context, ds *workload.Dataset, snap *core.EpochSnapshot) error {
	if snap.Fingerprint() != ds.DB.Fingerprint() {
		return fmt.Errorf("restored epoch fingerprint %s, instance %s", snap.Fingerprint(), ds.DB.Fingerprint())
	}
	se, err := core.NewSharded(snap.DB(), ds.Spec, ds.Sims, core.Options{}, core.ShardOptions{})
	if err != nil {
		return err
	}
	for _, sem := range []string{"possible", "certain"} {
		var got, want []eqrel.Pair
		if sem == "possible" {
			if got, err = snap.PossibleMergesCtx(ctx); err == nil {
				want, err = se.PossibleMergesCtx(ctx)
			}
		} else {
			if got, err = snap.CertainMergesCtx(ctx); err == nil {
				want, err = se.CertainMergesCtx(ctx)
			}
		}
		if err != nil {
			return err
		}
		if !samePairs(got, want) {
			return fmt.Errorf("%s merges: incremental epoch has %d pair(s), rebuild %d", sem, len(got), len(want))
		}
	}
	certain, err := snap.CertainMergesCtx(ctx)
	if err != nil {
		return err
	}
	pred := eqrel.New(ds.DB.Interner().Size())
	for _, p := range certain {
		pred.Union(p.A, p.B)
	}
	if q := workload.Score(pred, ds.Truth); q.F1 < streamMinF1 {
		return fmt.Errorf("certain-merge F1 %.4f below the E20 value %.3f (%s)", q.F1, streamMinF1, q)
	}
	return nil
}

func samePairs(a, b []eqrel.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// simAndBlocking times, on a fresh copy of the instance so the stream
// inherits none of it, the similarity memo's share of a cold resolve —
// a resolve with a fresh registry minus a second resolve of the same
// instance reusing it, both without a solve cache — and the
// similarity-component partition run directly under prefix blocking.
func simAndBlocking(ctx context.Context, L map[string]float64) error {
	cp, err := streamInstance(streamEntities)
	if err != nil {
		return err
	}
	var resolves [2]time.Duration
	for i := range resolves {
		if resolves[i], err = timed(func() error {
			se, err := core.NewSharded(cp.DB, cp.Spec, cp.Sims, core.Options{}, core.ShardOptions{})
			if err != nil {
				return err
			}
			_, err = se.PossibleMergesCtx(ctx)
			return err
		}); err != nil {
			return err
		}
	}
	L["sim.cold_ms"] = ms(resolves[0] - resolves[1])
	var preds []sim.Predicate
	for _, name := range cp.Sims.Names() {
		p, err := cp.Sims.MustLookup(name)
		if err != nil {
			return err
		}
		preds = append(preds, p)
	}
	reg := obs.NewRegistry()
	d, _ := timed(func() error {
		blocking.SimComponents(cp.DB.Interner(), preds, blocking.Prefix(4), reg)
		return nil
	})
	L["blocking.components_ms"] = ms(d)
	st := reg.Snapshot()
	kept, pruned := float64(st.Counter(obs.BlockingKept)), float64(st.Counter(obs.BlockingPruned))
	L["blocking.pruned_ratio"] = ratio(pruned, kept+pruned)
	return nil
}

// dbApplySpans times db.Apply alone on the run's kind of batch: each
// toggled fact retracted from the base database and re-inserted.
func dbApplySpans(ds *workload.Dataset, facts []db.FactSpec, L map[string]float64) error {
	var us []float64
	for _, f := range facts {
		t0 := time.Now()
		nd, _, _, err := db.Apply(ds.DB, nil, []db.FactSpec{f})
		if err != nil {
			return err
		}
		t1 := time.Now()
		if _, _, _, err := db.Apply(nd, []db.FactSpec{f}, nil); err != nil {
			return err
		}
		us = append(us, float64(t1.Sub(t0))/1e3, float64(time.Since(t1))/1e3)
	}
	L["db.apply_us"] = median(us)
	return nil
}

// gatedWriter keeps what is written to it while recording is on and
// drops it otherwise.
type gatedWriter struct {
	mu  sync.Mutex
	on  bool
	buf bytes.Buffer
}

func (g *gatedWriter) record(on bool) {
	g.mu.Lock()
	g.on = on
	g.mu.Unlock()
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.on {
		g.buf.Write(p)
	}
	return len(p), nil
}

// planSelfAndSolve splits a traced resolve into the wall time its
// per-shard solves cover (the union of the core.shard.solve spans, which
// run in parallel) and the rest of the core.shard.plan spans that
// enclose them: planning, stitching and composition. The two add up to
// the plan spans, which cover the whole resolve.
func planSelfAndSolve(trace []byte) (planSelfMS, solveMS float64, err error) {
	type ev struct {
		Span    string  `json:"span"`
		StartMS float64 `json:"start_ms"`
		DurMS   float64 `json:"dur_ms"`
	}
	var plan float64
	var solves [][2]float64
	dec := json.NewDecoder(bytes.NewReader(trace))
	for dec.More() {
		var e ev
		if err := dec.Decode(&e); err != nil {
			return 0, 0, err
		}
		switch e.Span {
		case obs.SpanShardPlan:
			plan += e.DurMS
		case obs.SpanShardSolve:
			solves = append(solves, [2]float64{e.StartMS, e.StartMS + e.DurMS})
		}
	}
	sort.Slice(solves, func(i, j int) bool { return solves[i][0] < solves[j][0] })
	var covered, end float64
	for _, iv := range solves {
		if iv[0] > end {
			end = iv[0]
		}
		if iv[1] > end {
			covered += iv[1] - end
			end = iv[1]
		}
	}
	return plan - covered, covered, nil
}
