package core

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/limits"
	"repro/internal/obs"
)

// searchTask is one node of the search lattice: a hard-closed candidate
// partition, exclusively owned by the worker that processes it, plus
// its induced database when the task may cross a goroutine boundary.
// That database is frozen by the producer before the hand-off, so any
// number of workers may read it (and derive children from it)
// concurrently.
type searchTask struct {
	E   *eqrel.Partition
	ind *db.Database // nil for the identity and in one-worker runs
}

// searcher explores the lattice of hard-closed candidate solutions.
// States are deduplicated by their canonical partition key. Children
// extend a state by one soft-active pair followed by hard closure; by
// the monotonicity of activity (rule bodies are negation-free) every
// solution is reachable this way.
//
// A one-worker run has no queue: it runs on the engine's own Context in
// the caller's goroutine and processes every child inline, which is
// the sequential depth-first order. With more workers, tasks go through
// a bounded queue to a pool of goroutines, each with its own Context.
// Either way the state budget is one counter, the first error or a
// visitor stop cancels the run, and visits are serialized under a
// mutex so visitor callbacks never run concurrently and need no locking
// of their own. Only the visit order depends on the worker count, so
// parallel callers must accumulate order-independent results (sets,
// antichains, first-hit flags).
type searcher struct {
	ctx    context.Context
	cancel context.CancelFunc
	// prune enables the restricted-fragment optimization: when no
	// denial constraint uses inequalities, violations persist under
	// growth, so inconsistent states cannot lead to solutions.
	prune  bool
	budget int64

	tasks   chan searchTask // nil in one-worker runs
	open    sync.WaitGroup  // tasks queued or in flight
	states  atomic.Int64
	visited sync.Map // canonical partition key -> struct{}

	// mu serializes visits and guards the fields below.
	mu        sync.Mutex
	visit     func(E *eqrel.Partition) bool
	solutions int64
	stopped   bool // visitor requested stop; not an error
	err       error
}

// search enumerates the solutions reachable from the hard closure of
// start on the given number of workers, calling visit for each (the
// partition is live; clone to retain). A visit returning true stops the
// search. The error is ErrBudget when the state budget was exhausted,
// the wrapped ctx.Err() when the caller cancelled, nil when the space
// was fully explored or the visitor stopped the search.
func (e *Engine) search(ctx context.Context, start *eqrel.Partition, workers int, visit func(E *eqrel.Partition) bool) error {
	e.rec.Gauge(obs.CoreSearchWorkers, int64(workers))
	sp := e.rec.Start(obs.SpanCoreSearch)
	root := start.Clone()
	if err := e.hardClose(ctx, root); err != nil {
		sp.End()
		return err
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	s := &searcher{
		ctx:    runCtx,
		cancel: cancel,
		prune:  e.sess.spec.IsRestricted(),
		budget: int64(e.sess.opts.MaxStates),
		visit:  visit,
	}
	if workers <= 1 {
		s.process(e.Context, searchTask{E: root})
	} else {
		s.runPool(e, root, workers)
	}
	sp.AttrInt("solutions", s.solutions).AttrInt("states", s.states.Load()).End()
	if s.err != nil {
		return s.err
	}
	if !s.stopped && ctx.Err() != nil {
		return limits.Wrap(ctx.Err())
	}
	return nil
}

// runPool runs the search from root on a pool of workers, each with its
// own evaluation Context and buffering recorder.
func (s *searcher) runPool(e *Engine, root *eqrel.Partition, workers int) {
	// The base database and the root's induced database are shared
	// read-only by every worker from here on: freeze them.
	e.sess.freezeShared()
	t := searchTask{E: root}
	if !root.IsIdentity() {
		t.ind = e.Induced(root)
		t.ind.Freeze()
	}
	// A few dozen queued tasks per worker keep workers fed on wide
	// lattices; the bound caps queued induced databases, and a full
	// queue only makes producers recurse inline.
	s.tasks = make(chan searchTask, workers*64)
	s.open.Add(1)
	s.tasks <- t

	var wg sync.WaitGroup
	locals := make([]*obs.Local, workers)
	for i := range locals {
		locals[i] = obs.NewLocal(e.rec)
		cx := e.sess.newWorkerContext(workers, locals[i])
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range s.tasks {
				s.process(cx, t)
				s.open.Done()
			}
		}()
	}
	// Close the queue once every submitted task has been processed;
	// workers then drain out of their range loops.
	go func() {
		s.open.Wait()
		close(s.tasks)
	}()
	wg.Wait()
	// Flush the worker buffers serially from this goroutine: e.rec may
	// itself be an obs.Local (a sharded solve running an inner parallel
	// search buffers through its shard worker's Local), so flushes must
	// not run concurrently.
	for _, l := range locals {
		l.Flush()
	}
}

// fail records err and cancels the run. An error arriving once the run
// is already cancelled — by a visitor stop, an earlier failure or the
// caller — is that cancellation observed (say, by a child's closure),
// not a failure of its own, and is dropped.
func (s *searcher) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx.Err() == nil {
		s.err = err
		s.cancel()
	}
}

// submit hands a child to the pool, or processes it inline: always in a
// one-worker run, and when the queue is full otherwise. The bounded
// queue plus inline fallback cannot deadlock: a send either succeeds
// immediately or the submitting worker makes progress itself,
// recursing depth-first.
func (s *searcher) submit(cx *Context, child *eqrel.Partition) {
	t := searchTask{E: child}
	if s.tasks != nil {
		t.ind = cx.Induced(child)
		t.ind.Freeze()
		s.open.Add(1)
		select {
		case s.tasks <- t:
			return
		default:
			s.open.Done()
		}
	}
	s.process(cx, t)
}

// visitSolution runs the visitor under the serialization mutex,
// reporting whether the search should stop.
func (s *searcher) visitSolution(cx *Context, E *eqrel.Partition) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ctx.Err() != nil {
		return true
	}
	s.solutions++
	cx.rec.Inc(obs.CoreSearchSolutions, 1)
	if s.visit(E) {
		s.stopped = true
		s.cancel()
		return true
	}
	return false
}

// process expands one state: dedup, budget, consistency check, visit,
// then one hard-closed child per soft-active pair. It is the only place
// a search state is expanded.
func (s *searcher) process(cx *Context, t searchTask) {
	if s.ctx.Err() != nil {
		return // cancelled: drain without work
	}
	E := t.E
	key := E.Key()
	if _, dup := s.visited.LoadOrStore(key, struct{}{}); dup {
		return
	}
	if s.states.Add(1) > s.budget {
		cx.rec.Inc(obs.CoreSearchBudget, 1)
		s.fail(ErrBudget)
		return
	}
	cx.rec.Inc(obs.CoreSearchStates, 1)
	if t.ind != nil {
		// Warm this worker's cache with the producer's induced DB so
		// the consistency check and expansions below hit.
		cx.storeKey(key, t.ind)
	}

	consistent, err := cx.SatisfiesDenials(E)
	if err != nil {
		s.fail(err)
		return
	}
	if consistent {
		// Hard rules are satisfied by construction (states are
		// hard-closed), and every state is a candidate solution, so a
		// consistent state is a solution.
		if s.visitSolution(cx, E) {
			return
		}
	} else if s.prune {
		// Restricted specifications: denial violations are preserved
		// under further merges (no inequality atoms), so no descendant
		// can be a solution.
		return
	}
	act, err := cx.ActivePairs(E)
	if err != nil {
		s.fail(err)
		return
	}
	for _, a := range act {
		if s.ctx.Err() != nil {
			return
		}
		// Hard-active pairs cannot appear here: E is hard-closed.
		child := E.Clone()
		u, v := E.Rep(a.Pair.A), E.Rep(a.Pair.B)
		child.Add(a.Pair)
		cx.seedInduced(E, child, u, v)
		if err := cx.hardClose(s.ctx, child); err != nil {
			s.fail(err)
			return
		}
		s.submit(cx, child)
	}
}
