package core

import (
	"context"
	"sort"

	"repro/internal/eqrel"
	"repro/internal/obs"
)

// Solutions enumerates solutions of (D, Σ), invoking visit for each (the
// partition is live; clone to retain). Enumeration stops early when
// visit returns true. The error is ErrBudget when the search budget was
// exhausted before the space was fully explored. Solutions always runs
// the search on one worker — its sequential depth-first visit order is
// part of its contract — regardless of Options.Parallelism.
func (e *Engine) Solutions(visit func(E *eqrel.Partition) bool) error {
	return e.SolutionsCtx(context.Background(), visit)
}

// SolutionsCtx is Solutions with cancellation: when ctx is done the
// enumeration stops and ctx.Err() is returned.
func (e *Engine) SolutionsCtx(ctx context.Context, visit func(E *eqrel.Partition) bool) error {
	return e.search(ctx, e.Identity(), 1, visit)
}

// Existence decides whether Sol(D, Σ) ≠ ∅ and returns a witness
// solution when one exists (Theorem 2: NP-complete in general). For
// restricted specifications it uses the polynomial algorithm of
// Theorem 8 instead of search. Under parallelism the witness found
// first may differ between runs; the boolean is deterministic.
func (e *Engine) Existence() (*eqrel.Partition, bool, error) {
	return e.ExistenceCtx(context.Background())
}

// ExistenceCtx is Existence with cancellation.
func (e *Engine) ExistenceCtx(ctx context.Context) (*eqrel.Partition, bool, error) {
	if e.sess.spec.IsRestricted() {
		return e.existenceRestricted()
	}
	found, err := e.findSolution(ctx, e.Identity(), nil)
	if err != nil {
		return nil, false, err
	}
	return found, found != nil, nil
}

// findSolution searches from start on Options.Parallelism workers and
// returns a clone of the first solution that accept admits (any
// solution when accept is nil), or nil when there is none. The search
// stops, cancelling the other workers, at the first hit. With several
// workers which witness comes first depends on scheduling; whether one
// exists does not.
func (e *Engine) findSolution(ctx context.Context, start *eqrel.Partition, accept func(E *eqrel.Partition) bool) (*eqrel.Partition, error) {
	var found *eqrel.Partition
	err := e.search(ctx, start, e.sess.opts.Parallelism, func(E *eqrel.Partition) bool {
		if accept != nil && !accept(E) {
			return false
		}
		found = E.Clone()
		return true
	})
	return found, err
}

// existenceRestricted implements Theorem 8: with inequality-free denial
// constraints, a solution exists iff the hard closure of the identity is
// consistent (every solution contains it, and violations persist).
func (e *Engine) existenceRestricted() (*eqrel.Partition, bool, error) {
	h := e.Identity()
	if err := e.HardClose(h); err != nil {
		return nil, false, err
	}
	ok, err := e.SatisfiesDenials(h)
	if err != nil {
		return nil, false, err
	}
	if !ok {
		return nil, false, nil
	}
	return h, true, nil
}

// MaximalSolutions returns all ⊆-maximal solutions, ordered by
// canonical partition key. When the all-rules closure U satisfies the
// denial constraints it is the unique maximal solution (closure.go) and
// is returned without search; this covers both tractable classes of
// Theorem 9 (Δ = ∅, and Γs = ∅ where U is the hard closure). Otherwise
// the solution space is enumerated — in parallel when
// Options.Parallelism > 1 — and filtered to its maximal antichain. The
// antichain is a set, so sequential and parallel runs return identical
// output.
func (e *Engine) MaximalSolutions() ([]*eqrel.Partition, error) {
	return e.MaximalSolutionsCtx(context.Background())
}

// MaximalSolutionsCtx is MaximalSolutions with cancellation.
func (e *Engine) MaximalSolutionsCtx(ctx context.Context) ([]*eqrel.Partition, error) {
	sp := e.rec.Start(obs.SpanCoreMaxSol)
	defer sp.End()
	b, err := e.bounded(ctx)
	if err != nil {
		return nil, err
	}
	if b != nil && b.consistent {
		sp.AttrStr("path", "closure")
		e.countPath(true)
		return []*eqrel.Partition{b.U.Clone()}, nil
	}
	sp.AttrStr("path", "search")
	e.countPath(false)
	var maximal []*eqrel.Partition
	err = e.search(ctx, e.Identity(), e.sess.opts.Parallelism, func(E *eqrel.Partition) bool {
		for i := 0; i < len(maximal); i++ {
			if E.Subset(maximal[i]) {
				return false // dominated
			}
		}
		kept := maximal[:0]
		for _, m := range maximal {
			if !m.ProperSubset(E) {
				kept = append(kept, m)
			}
		}
		maximal = append(kept, E.Clone())
		return false
	})
	if err != nil {
		return nil, err
	}
	sortPartitions(maximal)
	return maximal, nil
}

// sortPartitions orders partitions by canonical key: the deterministic
// output order shared by the sequential and parallel searches.
func sortPartitions(ps []*eqrel.Partition) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Key() < ps[j].Key() })
}

// IsMaximalSolution decides MaxRec (Theorem 3: coNP-complete in
// general; Theorem 8: polynomial for restricted specifications). When
// the all-rules closure U is consistent, E is maximal iff it is a
// solution equal to U.
func (e *Engine) IsMaximalSolution(E *eqrel.Partition) (bool, error) {
	isSol, err := e.IsSolution(E)
	if err != nil || !isSol {
		return false, err
	}
	b, err := e.bounded(context.Background())
	if err != nil {
		return false, err
	}
	if b != nil && b.consistent {
		e.countPath(true)
		return E.Equal(b.U), nil
	}
	e.countPath(false)
	// A strictly larger solution contains some pair soft-active in E, so
	// the search from E reaches it, and every solution that search
	// visits other than E is strictly larger. For restricted
	// specifications the search prunes inconsistent states, so it only
	// checks the minimal extensions (Theorem 8).
	bigger, err := e.findSolution(context.Background(), E, func(F *eqrel.Partition) bool { return !F.Equal(E) })
	if err != nil {
		return false, err
	}
	return bigger == nil, nil
}
