package core

import (
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/fixtures"
	"repro/internal/obs"
	"repro/internal/rules"
	"repro/internal/sim"
)

// searchOutcome is what one Solutions run is pinned by.
type searchOutcome struct {
	keys                                   uint64 // FNV-1a of the ordered keys
	states, solutions, evals, hits, misses int64
}

// searchGoldenWant pins the one-worker search on Figure 1, ten seeded
// randomInstance draws and ten seeded inconsistentInstance draws:
// the hash of the ordered solution keys and the core.search.states,
// core.search.solutions, cq.eval.calls and core.cache.{hits,misses}
// counters. Any change to the DFS visit order or to the work a
// state costs shows up here.
var searchGoldenWant = []searchOutcome{
	{0xa8558f57f5646c69, 76, 6, 1030, 479, 0},
	{0xed855752532a9747, 4, 4, 22, 15, 0},
	{0xead6969394480eb, 10, 10, 20, 23, 0},
	{0x6781213d955e5efd, 4, 4, 22, 15, 0},
	{0x8e6b743db78a38df, 4, 4, 20, 16, 0},
	{0xb0c30ce920fd614f, 10, 10, 58, 40, 0},
	{0x4103b4af4a5ff877, 3, 3, 16, 12, 0},
	{0xa145c70dd9a77229, 4, 1, 12, 6, 0},
	{0x4989f6135552b5fd, 4, 4, 18, 15, 0},
	{0xe9489b6983be6885, 10, 3, 16, 16, 0},
	{0x1d32772d8099f9a5, 10, 8, 30, 23, 0},
	{0xcbf29ce484222325, 1, 0, 2, 0, 0},
	{0x12185d0ab3399c13, 4, 2, 8, 5, 0},
	{0xcbf29ce484222325, 1, 0, 2, 0, 0},
	{0xf1bf72b7f394e0bf, 9, 2, 13, 12, 0},
	{0xcbf29ce484222325, 4, 0, 12, 7, 0},
	{0xcbf29ce484222325, 8, 0, 24, 18, 0},
	{0x614ef36c34bba1f, 2, 1, 9, 2, 0},
	{0x1341fb15d2f559cb, 6, 2, 19, 18, 0},
	{0xcbf29ce484222325, 1, 0, 4, 1, 0},
	{0xcbf29ce484222325, 1, 0, 3, 1, 0},
}

// TestSearchGolden pins the visit order and counters of Solutions, whose
// sequential DFS order is part of its contract, on engines configured
// for one and for four workers.
func TestSearchGolden(t *testing.T) {
	type instance struct {
		name string
		d    *db.Database
		spec *rules.Spec
		sims *sim.Registry
	}
	var insts []instance
	f := fixtures.New()
	insts = append(insts, instance{"figure1", f.DB, f.Spec, f.Sims})
	rng := rand.New(rand.NewSource(1301))
	for i := 0; i < 10; i++ {
		d, spec, reg := randomInstance(t, rng)
		insts = append(insts, instance{"random", d, spec, reg})
	}
	rng = rand.New(rand.NewSource(1302))
	for i := 0; i < 10; i++ {
		d, spec, reg := inconsistentInstance(t, rng)
		insts = append(insts, instance{"inconsistent", d, spec, reg})
	}
	for i, in := range insts {
		for _, workers := range []int{1, 4} {
			reg := obs.NewRegistry()
			e, err := New(in.d, in.spec, in.sims, Options{Parallelism: workers, Recorder: reg})
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			if err := e.Solutions(func(E *eqrel.Partition) bool {
				h.Write([]byte(E.Key()))
				h.Write([]byte{'\n'})
				return false
			}); err != nil {
				t.Fatalf("%s %d: %v", in.name, i, err)
			}
			s := reg.Snapshot()
			got := searchOutcome{h.Sum64(),
				s.Counter(obs.CoreSearchStates),
				s.Counter(obs.CoreSearchSolutions),
				s.Counter(obs.CQEvalCalls),
				s.Counter(obs.CoreCacheHits),
				s.Counter(obs.CoreCacheMisses)}
			if got != searchGoldenWant[i] {
				t.Errorf("%s %d (workers %d): got %+v, want %+v", in.name, i, workers, got, searchGoldenWant[i])
			}
		}
	}
}
