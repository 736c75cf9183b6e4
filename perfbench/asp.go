package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/encode"
	"repro/internal/eqrel"
	"repro/internal/obs"
	"repro/internal/workload"
)

// asp_maximal: the Section 5 / Theorem 10 pipeline — encode the
// instance as an answer-set program, ground it, and enumerate the
// ⊆-maximal projections — over a fixed suite of bib instances that
// includes the serve_read instance.
const aspSetups = 5

// aspSuite is the fixed instance suite: seed, authors, papers,
// conferences.
var aspSuite = []struct {
	seed                   int64
	authors, papers, confs int
}{
	{readInstanceSeed, readAuthors, readPapers, readConfs},
	{1, 8, 12, 4},
	{2, 10, 14, 4},
	{3, 12, 16, 4},
}

func aspInstances(mini bool) ([]*workload.Dataset, error) {
	suite := aspSuite
	if mini {
		suite = suite[:2]
	}
	var out []*workload.Dataset
	for _, s := range suite {
		cfg := workload.DefaultConfig(s.seed)
		cfg.Authors, cfg.Papers, cfg.Conferences = s.authors, s.papers, s.confs
		ds, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, ds)
	}
	return out, nil
}

// aspMaximal runs the pipeline on one instance and returns its maximal
// solutions, canonically sorted.
func aspMaximal(ds *workload.Dataset, rec obs.Recorder, tr *tracer) ([]*eqrel.Partition, error) {
	en := encode.New(ds.DB, ds.Spec, ds.Sims)
	if tr != nil {
		// Encoding on its own; NewSolverRec encodes again before it
		// grounds, so the ground span is its time less this one.
		if err := tr.span("encode.program", func() error {
			_, err := en.Program()
			return err
		}); err != nil {
			return nil, err
		}
	}
	var s *encode.Solver
	if err := tr.span("asp.encode_ground", func() error {
		var err error
		s, err = encode.NewSolverRec(en, rec)
		return err
	}); err != nil {
		return nil, err
	}
	var ms []*eqrel.Partition
	err := tr.span("asp.solve", func() error {
		return s.MaximalSolutionsErr(func(E *eqrel.Partition) bool {
			ms = append(ms, E.Clone())
			return true
		})
	})
	sort.Slice(ms, func(i, j int) bool { return ms[i].Key() < ms[j].Key() })
	return ms, err
}

func runASPMaximal(cfg runConfig, tr *tracer) (*outcome, error) {
	out := newOutcome()
	seconds, nSetups := cfg.seconds, aspSetups
	if cfg.mini {
		seconds, nSetups = 2, 1
	}
	// Set-up: generate the suite and build each instance's solver.
	var suite []*workload.Dataset
	var setups []float64
	for i := 0; i < nSetups; i++ {
		d, err := timed(func() error {
			var err error
			if suite, err = aspInstances(cfg.mini); err != nil {
				return err
			}
			for _, ds := range suite {
				if _, err := encode.NewSolver(encode.New(ds.DB, ds.Spec, ds.Sims)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	out.e2e["setup_s"] = median(setups)

	// Passes over the suite, each in a seeded order, for the run's
	// seconds. Every pass encodes, grounds and solves each instance from
	// scratch, then runs the native engine on it as the side operation
	// and the Theorem 10 check: both must find the same maximal
	// solutions.
	rng := rand.New(rand.NewSource(cfg.seed))
	order := make([]int, len(suite))
	for i := range order {
		order[i] = i
	}
	var rec obs.Recorder = obs.Nop{}
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
		rec = reg
	}
	ctx := context.Background()
	var instMS, nativeMS, passS []float64
	var rules, clauses float64
	rt0 := readRuntime()
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		pass := 0.0
		for _, i := range order {
			ds := suite[i]
			out.attempted++
			var got, want []*eqrel.Partition
			d, err := timed(func() error {
				var err error
				got, err = aspMaximal(ds, rec, tr)
				return err
			})
			if err == nil {
				instMS = append(instMS, ms(d))
				pass += d.Seconds()
				d, err = timed(func() error {
					eng, err := core.New(ds.DB, ds.Spec, ds.Sims, core.Options{})
					if err != nil {
						return err
					}
					want, err = eng.MaximalSolutionsCtx(ctx)
					return err
				})
				nativeMS = append(nativeMS, ms(d))
			}
			if err != nil {
				out.failed++
				out.notes["first_error"] = err.Error()
				continue
			}
			if err := sameSolutions(got, want); err != nil {
				out.failed++
				out.fail(fmt.Errorf("instance %d (seed %d): ASP and native maximal solutions differ: %w", i, aspSuite[i].seed, err))
			}
			if reg != nil {
				st := reg.Snapshot()
				rules += float64(st.GaugeValue(obs.ASPGroundRules))
				clauses += float64(st.GaugeValue(obs.ASPCompletionClauses))
			}
		}
		passS = append(passS, pass)
	}
	elapsed := time.Since(start)
	rt1 := readRuntime()
	inst := summarize(instMS, 0.90)
	native := summarize(nativeMS, 0.90)
	out.e2e["p50_ms"], out.e2e["tail_ms"] = inst.p50, inst.pTl
	out.e2e["side_p50_ms"], out.notes["side_tail_ms"] = native.p50, native.pTl
	out.e2e["bulk_s"] = median(passS)
	out.e2e["rate_per_s"] = float64(len(instMS)) / sum(passS)
	out.notes["instances_solved"], out.notes["passes"], out.notes["tail_level"], out.notes["side_tail_level"] = inst.n, len(passS), inst.level, native.level
	out.notes["measured_s"] = elapsed.Seconds()

	if tr != nil {
		L := out.layers
		st := reg.Snapshot()
		n := float64(max(len(instMS), 1))
		prog := tr.msOf("encode.program")
		L["encode.program_ms"] = sum(prog) / n
		L["asp.ground_ms"] = (sum(tr.msOf("asp.encode_ground")) - sum(prog)) / n
		L["asp.solve_ms"] = sum(tr.msOf("asp.solve")) / n
		L["asp.ground_rules"] = rules / n
		L["asp.completion_clauses"] = clauses / n
		L["asp.decisions"] = float64(st.Counter(obs.ASPDecisions)) / n
		L["asp.conflicts"] = float64(st.Counter(obs.ASPConflicts)) / n
		L["asp.learned"] = float64(st.Counter(obs.ASPSATLearned)) / n
		L["go.alloc_mb_per_op"], L["go.gc_cpu_fraction"] = runtimeDelta(rt0, rt1, len(instMS))
		L["trace.p50_ms"], L["trace.tail_ms"] = inst.p50, inst.pTl
	}
	return out, nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// sameSolutions compares two canonically sorted solution lists.
func sameSolutions(got, want []*eqrel.Partition) error {
	sort.Slice(want, func(i, j int) bool { return want[i].Key() < want[j].Key() })
	if len(got) != len(want) {
		return fmt.Errorf("%d solution(s) against %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			return fmt.Errorf("solution %d: %s against %s", i, got[i].Key(), want[i].Key())
		}
	}
	return nil
}
