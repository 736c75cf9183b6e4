package main

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/eqrel"
	"repro/internal/workload"
)

// layerMetric is one per-layer metric and the workload that measures
// it. A traced run reports every layer metric: those its own workload
// measures come from its full run, the rest from a short run (mini) of
// the owning workload, so every traced run shows the whole split.
type layerMetric struct {
	name, unit, owner string
}

var layerMetrics = []layerMetric{
	{"serve.hit_ms", "ms", "serve_read"},
	{"serve.self_ms", "ms", "serve_read"},
	{"serve.cache_hit_ratio", "ratio", "serve_read"},
	{"serve.pool_wait_p99_ms", "ms", "serve_read"},
	{"core.miss_p50_ms", "ms", "serve_read"},
	{"core.miss_tail_ms", "ms", "serve_read"},
	{"core.states_per_miss", "count", "serve_read"},
	{"core.induced_us", "us", "serve_read"},
	{"core.active_pairs_us", "us", "serve_read"},
	{"core.hard_close_us", "us", "serve_read"},
	{"core.induced_cache_hit_ratio", "ratio", "serve_read"},
	{"cq.evals_per_miss", "count", "serve_read"},
	{"cq.matches_per_eval", "count", "serve_read"},
	{"db.induced_incremental_ratio", "ratio", "serve_read"},
	{"core.justify_ms", "ms", "serve_durable"},
	{"audit.append_sync_p50_ms", "ms", "serve_durable"},
	{"audit.append_sync_tail_ms", "ms", "serve_durable"},
	{"core.apply_ms", "ms", "stream_resolve"},
	{"core.epoch_resolve_ms", "ms", "stream_resolve"},
	{"db.apply_us", "us", "stream_resolve"},
	{"core.shard_plan_ms", "ms", "stream_resolve"},
	{"core.shard_solve_ms", "ms", "stream_resolve"},
	{"core.shard_solves", "count", "stream_resolve"},
	{"core.shard_reused", "count", "stream_resolve"},
	{"core.solve_cache_hit_ratio", "ratio", "stream_resolve"},
	{"sim.cold_ms", "ms", "stream_resolve"},
	{"blocking.components_ms", "ms", "stream_resolve"},
	{"blocking.pruned_ratio", "ratio", "stream_resolve"},
	{"encode.program_ms", "ms", "asp_maximal"},
	{"asp.ground_ms", "ms", "asp_maximal"},
	{"asp.solve_ms", "ms", "asp_maximal"},
	{"asp.ground_rules", "count", "asp_maximal"},
	{"asp.completion_clauses", "count", "asp_maximal"},
	{"asp.decisions", "count", "asp_maximal"},
	{"asp.conflicts", "count", "asp_maximal"},
	{"asp.learned", "count", "asp_maximal"},
	{"loadgen.lag_tail_ms", "ms", "serve_read"},
	{"go.alloc_mb_per_op", "MB", "serve_read"},
	{"go.gc_cpu_fraction", "ratio", "serve_read"},
	{"trace.p50_ms", "ms", "serve_read"},
	{"trace.tail_ms", "ms", "serve_read"},
}

// fillLayers completes a traced run's layer metrics from mini runs of
// the workloads that own the missing ones.
func fillLayers(name string, cfg runConfig, out *outcome) error {
	minis := map[string]*outcome{}
	for _, m := range layerMetrics {
		if _, ok := out.layers[m.name]; ok {
			continue
		}
		if m.owner == name {
			return fmt.Errorf("%s did not measure its layer metric %s", name, m.name)
		}
		mo, ok := minis[m.owner]
		if !ok {
			mcfg := cfg
			mcfg.mini = true
			var err error
			if mo, err = workloads[m.owner](mcfg, newTracer()); err != nil {
				return fmt.Errorf("mini %s: %w", m.owner, err)
			}
			if mo.checkErr != nil {
				out.fail(fmt.Errorf("mini %s: %w", m.owner, mo.checkErr))
			}
			minis[m.owner] = mo
		}
		v, ok := mo.layers[m.name]
		if !ok {
			return fmt.Errorf("mini %s did not measure %s", m.owner, m.name)
		}
		out.layers[m.name] = v
	}
	return nil
}

// kernelSpans times the native kernel's per-state calls — Induced,
// ActivePairs and HardClose — on the partitions a full solution
// enumeration visits, each on a fresh fork so no call hits a cache the
// enumeration filled.
func kernelSpans(ctx context.Context, ds *workload.Dataset, tr *tracer, L map[string]float64) error {
	const maxStates = 256
	eng, err := core.New(ds.DB, ds.Spec, ds.Sims, core.Options{Parallelism: 1})
	if err != nil {
		return err
	}
	var states []*eqrel.Partition
	if err := eng.SolutionsCtx(ctx, func(E *eqrel.Partition) bool {
		states = append(states, E.Clone())
		return len(states) >= maxStates
	}); err != nil {
		return err
	}
	for _, E := range states {
		f := eng.Fork()
		d, _ := timed(func() error { f.Induced(E); return nil })
		tr.add("core.induced", d)
		f = eng.Fork()
		d, err := timed(func() error { _, err := f.ActivePairs(E); return err })
		if err != nil {
			return err
		}
		tr.add("core.active_pairs", d)
		c := E.Clone()
		f = eng.Fork()
		if d, err = timed(func() error { return f.HardClose(c) }); err != nil {
			return err
		}
		tr.add("core.hard_close", d)
	}
	L["core.induced_us"] = 1000 * median(tr.msOf("core.induced"))
	L["core.active_pairs_us"] = 1000 * median(tr.msOf("core.active_pairs"))
	L["core.hard_close_us"] = 1000 * median(tr.msOf("core.hard_close"))
	return nil
}

// justifySpans times the merges audit's justification work on the
// serve_read instance, where the audit runs once per merges key.
func justifySpans(ctx context.Context, ds *workload.Dataset, L map[string]float64) error {
	eng, err := core.New(ds.DB, ds.Spec, ds.Sims, core.Options{})
	if err != nil {
		return err
	}
	pairs, err := eng.CertainMergesCtx(ctx)
	if err != nil {
		return err
	}
	return justifyOn(ctx, eng, pairs, L)
}
