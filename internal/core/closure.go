package core

import (
	"context"

	"repro/internal/cq"
	"repro/internal/eqrel"
	"repro/internal/obs"
)

// closure.go bounds the maximal-solution queries by the all-rules
// closure. Let U = AllClose(identity). Rule bodies are negation-free
// and the ruleset is sim-safe (Spec.Validate), so a rule match in D_E
// carries forward to D_F for every E ⊆ F: each pair a search ever adds
// is derivable in U's fixpoint, and every candidate solution is ⊆ U. U
// is itself a candidate (every round merges only pairs active at its
// start, and they stay active) and hard-closed. Hence when U satisfies
// Δ it is a solution, and the unique ⊆-maximal one. Otherwise the
// queries fall back to enumeration, still using U to rule out pairs
// and answers that no solution can reach. See DESIGN.md, "Native
// solver".

// closureBound is a session's U with its denial verdict. It is
// computed once per Session and shared read-only by every Context over
// it (forks and parallel workers), so U is flattened before it is
// published and must never be mutated; callers clone it to hand it out.
type closureBound struct {
	U          *eqrel.Partition
	consistent bool // U |= Δ: U is the unique maximal solution
}

// closure returns the session's closure bound, computing it on c the
// first time. Only a completed computation is cached: a cancelled one
// returns the wrapped context error and the next call retries.
// Concurrent first calls may each compute U; they agree, and the first
// to finish is kept.
func (c *Context) closure(ctx context.Context) (*closureBound, error) {
	if b := c.sess.bound.Load(); b != nil {
		return b, nil
	}
	U := c.Identity()
	if err := c.allClose(ctx, U); err != nil {
		return nil, err
	}
	ok, err := c.SatisfiesDenials(U)
	if err != nil {
		return nil, err
	}
	b := &closureBound{U: U.Flatten(), consistent: ok}
	if !c.sess.bound.CompareAndSwap(nil, b) {
		b = c.sess.bound.Load()
	}
	return b, nil
}

// ClosureBound returns the all-rules closure U of the session — every
// solution is contained in it — and whether U satisfies the denial
// constraints, in which case U is the unique maximal solution. U is a
// copy the caller may keep. The bound is computed at most once per
// Session and shared by every fork.
func (e *Engine) ClosureBound(ctx context.Context) (U *eqrel.Partition, consistent bool, err error) {
	b, err := e.closure(ctx)
	if err != nil {
		return nil, false, err
	}
	return b.U.Clone(), b.consistent, nil
}

// bounded is closure for the maximal-solution queries: nil (forcing
// the enumeration path) when the session's enumerateOnly test switch is
// set.
func (c *Context) bounded(ctx context.Context) (*closureBound, error) {
	if c.sess.enumerateOnly {
		return nil, nil
	}
	return c.closure(ctx)
}

// countPath records which path answered a maximal-solution query: the
// closure bound, or the enumeration fallback.
func (c *Context) countPath(byClosure bool) {
	if byClosure {
		c.rec.Inc(obs.CoreMaxSolClosure, 1)
	} else {
		c.rec.Inc(obs.CoreMaxSolEnumerated, 1)
	}
}

// relational reports whether q has only relational atoms. Such a query
// is homomorphism-preserved — its answers on D_E persist on D_F for E ⊆
// F — so an answer missing on U is missing on every solution.
func relational(q *cq.CQ) bool {
	for _, a := range q.Atoms {
		if a.Kind != cq.KindRel {
			return false
		}
	}
	return true
}
