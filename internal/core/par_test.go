package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/eqrel"
)

// TestParallelMatchesSequential is the differential gate for the
// parallel searcher: over randomized seeded instances, the parallel
// engine must return byte-identical MaximalSolutions, CertainMerges and
// PossibleMerges (and the same Existence and IsPossibleAnswer verdicts)
// as the sequential one. Run under -race this also exercises the
// Session/Context concurrency contract.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for trial := 0; trial < 40; trial++ {
		d, spec, reg := randomInstance(t, rng)
		seq, err := New(d, spec, reg, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := New(d, spec, reg, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}

		seqMax, err := seq.MaximalSolutions()
		if err != nil {
			t.Fatalf("trial %d: sequential MaximalSolutions: %v", trial, err)
		}
		parMax, err := par.MaximalSolutions()
		if err != nil {
			t.Fatalf("trial %d: parallel MaximalSolutions: %v", trial, err)
		}
		if len(seqMax) != len(parMax) {
			t.Fatalf("trial %d: %d maximal solutions sequentially, %d in parallel",
				trial, len(seqMax), len(parMax))
		}
		for i := range seqMax {
			if seqMax[i].Key() != parMax[i].Key() {
				t.Fatalf("trial %d: maximal[%d] differs:\nseq %v\npar %v",
					trial, i, seqMax[i], parMax[i])
			}
		}

		seqCert, err := seq.CertainMerges()
		if err != nil {
			t.Fatal(err)
		}
		parCert, err := par.CertainMerges()
		if err != nil {
			t.Fatal(err)
		}
		if !samePairs(seqCert, parCert) {
			t.Fatalf("trial %d: CertainMerges differ: seq %v, par %v", trial, seqCert, parCert)
		}

		seqPoss, err := seq.PossibleMerges()
		if err != nil {
			t.Fatal(err)
		}
		parPoss, err := par.PossibleMerges()
		if err != nil {
			t.Fatal(err)
		}
		if !samePairs(seqPoss, parPoss) {
			t.Fatalf("trial %d: PossibleMerges differ: seq %v, par %v", trial, seqPoss, parPoss)
		}

		cs := constsNamed(d, "c0", "c1", "c2", "c3", "c4")
		for _, q := range mustQueries(t, d, reg, `(x, y) : R(x, y)`, `(x) : S(x, v), R(v, w)`) {
			for _, a := range cs {
				for _, b := range cs {
					tuple := []db.Const{a, b}[:len(q.Head)]
					seqAns, err := seq.IsPossibleAnswer(q, tuple)
					if err != nil {
						t.Fatal(err)
					}
					parAns, err := par.IsPossibleAnswer(q, tuple)
					if err != nil {
						t.Fatal(err)
					}
					if seqAns != parAns {
						t.Fatalf("trial %d: IsPossibleAnswer(%v, %v) = %v sequentially, %v in parallel",
							trial, q, tuple, seqAns, parAns)
					}
				}
			}
		}

		_, seqOK, err := seq.Existence()
		if err != nil {
			t.Fatal(err)
		}
		parW, parOK, err := par.Existence()
		if err != nil {
			t.Fatal(err)
		}
		if seqOK != parOK {
			t.Fatalf("trial %d: Existence = %v sequentially, %v in parallel", trial, seqOK, parOK)
		}
		if parOK {
			// The parallel witness may differ, but must be a solution.
			isSol, err := par.IsSolution(parW)
			if err != nil {
				t.Fatal(err)
			}
			if !isSol {
				t.Fatalf("trial %d: parallel Existence witness is not a solution: %v", trial, parW)
			}
		}
	}
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

// TestParallelFirstHitNoSpuriousError: a first-hit search stops by
// cancelling its own run, which child closures in flight on other
// workers observe. That cancellation must not surface as an error:
// IsPossibleMerge and Existence return a nil error and the sequential
// verdict. The instances have inconsistent closures, so every pair of
// the closure is decided by search.
func TestParallelFirstHitNoSpuriousError(t *testing.T) {
	rng := rand.New(rand.NewSource(1303))
	for trial := 0; trial < 60; trial++ {
		d, spec, reg := inconsistentInstance(t, rng)
		seq, err := New(d, spec, reg, Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		par, err := New(d, spec, reg, Options{Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		U, _, err := seq.ClosureBound(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range U.Pairs() {
			seqOK, err := seq.IsPossibleMerge(p.A, p.B)
			if err != nil {
				t.Fatal(err)
			}
			parOK, err := par.IsPossibleMerge(p.A, p.B)
			if err != nil {
				t.Fatalf("trial %d: parallel IsPossibleMerge%v: %v", trial, p, err)
			}
			if seqOK != parOK {
				t.Fatalf("trial %d: IsPossibleMerge%v = %v sequentially, %v in parallel", trial, p, seqOK, parOK)
			}
		}
		_, seqOK, err := seq.Existence()
		if err != nil {
			t.Fatal(err)
		}
		_, parOK, err := par.Existence()
		if err != nil {
			t.Fatalf("trial %d: parallel Existence: %v", trial, err)
		}
		if seqOK != parOK {
			t.Fatalf("trial %d: Existence = %v sequentially, %v in parallel", trial, seqOK, parOK)
		}
	}
}

// TestParallelBudget: the parallel searcher honors Options.MaxStates
// with ErrBudget like the sequential one. The instances have
// inconsistent closures, so MaximalSolutions must search.
func TestParallelBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		d, spec, reg := inconsistentInstance(t, rng)
		par, err := New(d, spec, reg, Options{Parallelism: 4, MaxStates: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = par.MaximalSolutions()
		if err == nil {
			// A space of exactly one state fits the budget; verify that
			// is the case via a sequential engine.
			seqE, nerr := New(d, spec, reg, Options{Parallelism: 1})
			if nerr != nil {
				t.Fatal(nerr)
			}
			states := 0
			if serr := seqE.Solutions(func(*eqrel.Partition) bool { states++; return false }); serr != nil && !errors.Is(serr, ErrBudget) {
				t.Fatal(serr)
			}
			continue
		}
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("trial %d: want ErrBudget, got %v", trial, err)
		}
	}
}

// TestParallelCancellation: a pre-cancelled context aborts the parallel
// search with ctx.Err(). The instance's closure is inconsistent and
// computed beforehand, so it is the search that observes ctx.
func TestParallelCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	d, spec, reg := inconsistentInstance(t, rng)
	par, err := New(d, spec, reg, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := par.ClosureBound(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := par.MaximalSolutionsCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}

	// Sequential path observes cancellation too.
	seqE, err := New(d, spec, reg, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	serr := seqE.SolutionsCtx(ctx, func(*eqrel.Partition) bool { return false })
	if !errors.Is(serr, context.Canceled) {
		t.Fatalf("sequential: want context.Canceled, got %v", serr)
	}
}

// TestParallelSolutionsOrderUnchanged pins that Solutions keeps its
// sequential DFS visit order even on an engine configured for
// parallelism (the enumeration order is part of its contract).
func TestParallelSolutionsOrderUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d, spec, reg := randomInstance(t, rng)
	a, err := New(d, spec, reg, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(d, spec, reg, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ka, kb []string
	if err := a.Solutions(func(E *eqrel.Partition) bool { ka = append(ka, E.Key()); return false }); err != nil {
		t.Fatal(err)
	}
	if err := b.Solutions(func(E *eqrel.Partition) bool { kb = append(kb, E.Key()); return false }); err != nil {
		t.Fatal(err)
	}
	if len(ka) != len(kb) {
		t.Fatalf("solution counts differ: %d vs %d", len(ka), len(kb))
	}
	for i := range ka {
		if ka[i] != kb[i] {
			t.Fatalf("visit order diverged at %d", i)
		}
	}
}
