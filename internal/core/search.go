package core

import (
	"context"
	"sort"

	"repro/internal/eqrel"
	"repro/internal/obs"
)

// searcher performs depth-first exploration of the candidate-solution
// lattice. States are hard-closed candidate solutions, deduplicated by
// their canonical partition key. Children extend a state by one
// soft-active pair followed by hard closure; by the monotonicity of
// activity (rule bodies are negation-free) every solution is reachable
// this way. This is the sequential searcher; parsearch.go holds the
// work-queue variant used when Options.Parallelism > 1.
type searcher struct {
	c   *Context
	ctx context.Context // optional cancellation; nil means run to completion
	// visited doubles as the dedup set and the state counter.
	visited map[string]bool
	budget  int
	// prune enables the restricted-fragment optimization: when no
	// denial constraint uses inequalities, violations persist under
	// growth, so inconsistent states cannot lead to solutions.
	prune bool
	// visit lets the visitor stop the search.
	visit func(E *eqrel.Partition) (stop bool, err error)
}

func (e *Engine) newSearcher(ctx context.Context, visit func(*eqrel.Partition) (bool, error)) *searcher {
	return &searcher{
		c:       e.Context,
		ctx:     ctx,
		visited: make(map[string]bool),
		budget:  e.sess.opts.MaxStates,
		prune:   e.sess.spec.IsRestricted(),
		visit:   visit,
	}
}

// run explores from the hard closure of start. It returns ErrBudget when
// the state budget is exhausted (results so far are incomplete).
func (s *searcher) run(start *eqrel.Partition) error {
	root := start.Clone()
	if err := s.c.hardClose(s.ctx, root); err != nil {
		return err
	}
	_, err := s.rec(root)
	return err
}

func (s *searcher) rec(E *eqrel.Partition) (stop bool, err error) {
	if err := canceled(s.ctx); err != nil {
		return true, err
	}
	key := E.Key()
	if s.visited[key] {
		return false, nil
	}
	if len(s.visited) >= s.budget {
		s.c.rec.Inc(obs.CoreSearchBudget, 1)
		return true, ErrBudget
	}
	s.visited[key] = true
	s.c.rec.Inc(obs.CoreSearchStates, 1)

	consistent, err := s.c.SatisfiesDenials(E)
	if err != nil {
		return true, err
	}
	if consistent {
		// Hard rules are satisfied by construction (states are
		// hard-closed), and every state is a candidate solution, so a
		// consistent state is a solution.
		if stop, err := s.visit(E); stop || err != nil {
			return true, err
		}
	} else if s.prune {
		// Restricted specifications: denial violations are preserved
		// under further merges (no inequality atoms), so no descendant
		// can be a solution.
		return false, nil
	}
	act, err := s.c.ActivePairs(E)
	if err != nil {
		return true, err
	}
	for _, a := range act {
		// Hard-active pairs cannot appear here: E is hard-closed.
		child := E.Clone()
		u, v := E.Rep(a.Pair.A), E.Rep(a.Pair.B)
		child.Add(a.Pair)
		s.c.seedInduced(E, child, u, v)
		if err := s.c.hardClose(s.ctx, child); err != nil {
			return true, err
		}
		if stop, err := s.rec(child); stop || err != nil {
			return true, err
		}
	}
	return false, nil
}

// Solutions enumerates solutions of (D, Σ), invoking visit for each (the
// partition is live; clone to retain). Enumeration stops early when
// visit returns true. The error is ErrBudget when the search budget was
// exhausted before the space was fully explored. Solutions always uses
// the sequential searcher — its visit order is part of its contract —
// regardless of Options.Parallelism.
func (e *Engine) Solutions(visit func(E *eqrel.Partition) bool) error {
	return e.SolutionsCtx(context.Background(), visit)
}

// SolutionsCtx is Solutions with cancellation: when ctx is done the
// enumeration stops and ctx.Err() is returned.
func (e *Engine) SolutionsCtx(ctx context.Context, visit func(E *eqrel.Partition) bool) error {
	sp := e.rec.Start(obs.SpanCoreSearch)
	count := 0
	s := e.newSearcher(ctx, func(E *eqrel.Partition) (bool, error) {
		count++
		e.rec.Inc(obs.CoreSearchSolutions, 1)
		if visit(E) {
			return true, nil
		}
		if e.sess.opts.MaxSolutions > 0 && count >= e.sess.opts.MaxSolutions {
			return true, nil
		}
		return false, nil
	})
	err := s.run(e.Identity())
	sp.AttrInt("solutions", int64(count)).AttrInt("states", int64(len(s.visited))).End()
	return err
}

// enumSolutions runs visit over the solutions reachable from the
// identity using the parallel searcher when enabled, the sequential one
// otherwise. visit must accumulate order-independent results only
// (sets, antichains, first-hit flags): under parallelism calls are
// serialized but their order depends on scheduling.
func (e *Engine) enumSolutions(ctx context.Context, visit func(E *eqrel.Partition) bool) error {
	if e.parallelEnabled() {
		return e.parSolutions(ctx, e.Identity(), visit)
	}
	return e.SolutionsCtx(ctx, visit)
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
	var found *eqrel.Partition
	err := e.enumSolutions(ctx, func(E *eqrel.Partition) bool {
		found = E.Clone()
		return true
	})
	if err != nil {
		return nil, false, err
	}
	return found, found != nil, nil
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
	err = e.enumSolutions(ctx, func(E *eqrel.Partition) bool {
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
	act, err := e.ActivePairs(E)
	if err != nil {
		return false, err
	}
	for _, a := range act {
		ext := E.Clone()
		u, v := E.Rep(a.Pair.A), E.Rep(a.Pair.B)
		ext.Add(a.Pair)
		e.seedInduced(E, ext, u, v)
		if err := e.HardClose(ext); err != nil {
			return false, err
		}
		if e.sess.spec.IsRestricted() {
			// Theorem 8: the minimal extension suffices — if it is
			// inconsistent, every further extension stays inconsistent.
			cons, err := e.SatisfiesDenials(ext)
			if err != nil {
				return false, err
			}
			if cons {
				return false, nil
			}
			continue
		}
		// General case: search for any solution extending E ∪ {α}. Any
		// strictly larger solution must pass through some currently
		// soft-active pair, so this is complete.
		found := false
		if e.parallelEnabled() {
			err = e.parSolutions(context.Background(), ext, func(*eqrel.Partition) bool {
				found = true
				return true
			})
		} else {
			s := e.newSearcher(nil, func(*eqrel.Partition) (bool, error) {
				found = true
				return true, nil
			})
			err = s.run(ext)
		}
		if err != nil {
			return false, err
		}
		if found {
			return false, nil
		}
	}
	return true, nil
}
