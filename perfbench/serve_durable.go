package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/eqrel"
	"repro/internal/serve"
	"repro/internal/workload"
)

// serve_durable: the durable deployment (laced -shards -mutable -wal
// -audit) with fsync to a file, open-loop one-fact writes beside
// open-loop reads. Its size is capped by the audited-merges defect
// NOTES.md describes: every merges read that misses the cache justifies
// each reported pair on the whole-instance engine, and past about 100
// entities those reads stop completing. At 50 entities an audited read
// costs ~0.2 s, which leaves room for enough of them in a run to time
// their median without queueing them behind each other.
const (
	durableInstanceSeed = 20
	durableEntities     = 50
	// durableSLOms is the read latency limit: a few times an audited
	// merges read.
	durableSLOms = 1500
	// Offered rates per second: solutions/maximal reads and writes share
	// the connections but one, merges reads (half certain, half
	// possible) have that one to themselves, so a write never queues in
	// the client behind a ~0.3 s audited read.
	durableMaximalRate = 8.0
	durableMergesRate  = 1.25
	durableWriteRate   = 15.0
	// durableWriteFacts is how many distinct facts the writes toggle,
	// spread over the instance so they touch several shards.
	durableWriteFacts = 8
	durableSetups     = 9
)

const (
	kindMaximal = iota
	kindCertain
	kindPossible
	kindWrite
)

var durablePaths = map[int]string{
	kindMaximal:  "/v1/solutions/maximal",
	kindCertain:  "/v1/merges/certain",
	kindPossible: "/v1/merges/possible",
	kindWrite:    "/v1/facts",
}

func durableInstance() (*workload.Dataset, error) {
	return workload.GenerateScale(workload.DefaultScaleConfig(durableInstanceSeed, durableEntities))
}

// writeFacts picks the toggled facts: Author tuples of authors with no
// duplicate reference, evenly spaced over the instance. The writes land
// in different communities and dirty their shards, but no toggle
// changes which merges hold, so every audited merges read does the
// same work.
func writeFacts(ds *workload.Dataset, n int) []serve.FactJSON {
	in := ds.DB.Interner()
	var singles [][]db.Const
	for _, t := range ds.DB.Tuples("Author") {
		if ds.Truth.ClassSize(t[0]) == 1 {
			singles = append(singles, t)
		}
	}
	var out []serve.FactJSON
	for i := 0; i < n && i < len(singles); i++ {
		t := singles[i*len(singles)/n]
		f := serve.FactJSON{Rel: "Author"}
		for _, c := range t {
			f.Args = append(f.Args, in.Name(c))
		}
		out = append(out, f)
	}
	return out
}

func runServeDurable(cfg runConfig, tr *tracer) (*outcome, error) {
	out := newOutcome()
	client := newClient(cfg)
	defer client.CloseIdleConnections()
	seconds := cfg.seconds
	nSetups := durableSetups
	if cfg.mini {
		seconds, nSetups = 3, 1
	}

	var ls *liveServer
	var ds *workload.Dataset
	var walPath string
	var setups, warmups []float64
	ctx := context.Background()
	// warmUp is timed as bulk_s, on every set-up server: the first
	// merges read of each kind pays its audit.
	warmUp := func() error {
		d, err := timed(func() error {
			for _, k := range []int{kindCertain, kindPossible} {
				if _, err := post(ctx, client, ls.url+durablePaths[k], []byte(`{}`)); err != nil {
					return err
				}
			}
			return nil
		})
		warmups = append(warmups, d.Seconds())
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		return nil
	}
	for i := 0; i < nSetups; i++ {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return nil, err
			}
		}
		walPath = filepath.Join(cfg.work, fmt.Sprintf("wal-%d.jsonl", i))
		d, err := timed(func() error {
			var err error
			if ds, err = durableInstance(); err != nil {
				return err
			}
			alog, _, err := audit.Open(walPath, audit.Options{Durable: true})
			if err != nil {
				return err
			}
			ls, err = startServer(serve.Config{
				DB: ds.DB, Spec: ds.Spec, Sims: ds.Sims,
				DefaultTimeout: lacedReqTimeout,
				MaxTimeout:     lacedMaxTimeout,
				Sharded:        true,
				Mutable:        true,
				WAL:            true,
				Audit:          alog,
			}, client)
			if err != nil {
				return err
			}
			// A sharded server is ready once epoch 0 is resolved: the
			// first maximal read waits for its background resolve.
			_, err = post(ctx, client, ls.url+durablePaths[kindMaximal], []byte(`{}`))
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if err := warmUp(); err != nil {
			return nil, err
		}
	}
	defer ls.stop()
	out.e2e["setup_s"] = median(setups)
	out.e2e["bulk_s"] = median(warmups)

	rng := rand.New(rand.NewSource(cfg.seed))
	facts := writeFacts(ds, durableWriteFacts)
	span := time.Duration(seconds * float64(time.Second))
	var reqs []request
	for _, t := range poissonTimes(rng, int(durableMergesRate*seconds), span) {
		kind := kindCertain
		if rng.Intn(2) == 1 {
			kind = kindPossible
		}
		reqs = append(reqs, request{due: t, kind: kind})
	}
	for _, t := range poissonTimes(rng, int(durableMaximalRate*seconds), span) {
		reqs = append(reqs, request{due: t, kind: kindMaximal})
	}
	for _, t := range poissonTimes(rng, int(durableWriteRate*seconds), span) {
		reqs = append(reqs, request{due: t, kind: kindWrite, key: rng.Intn(len(facts))})
	}
	sortRequests(reqs)
	// Each write toggles one fact: retract while the schedule believes it
	// present, insert otherwise. Concurrent writes may apply out of
	// schedule order; a retract of an absent fact or an insert of a
	// present one is a valid no-op batch, so no write fails for it.
	present := make([]bool, len(facts))
	for i := range present {
		present[i] = true
	}
	bodies := map[int][]byte{}
	for i, r := range reqs {
		if r.kind != kindWrite {
			continue
		}
		var fr serve.FactsRequest
		if present[r.key] {
			fr.Retract = []serve.FactJSON{facts[r.key]}
		} else {
			fr.Insert = []serve.FactJSON{facts[r.key]}
		}
		present[r.key] = !present[r.key]
		bodies[i] = mustJSON(fr)
		reqs[i].key = i
	}

	var mu sync.Mutex
	var acks []serve.FactsResponse
	send := func(ctx context.Context, r request) error {
		body := []byte(`{}`)
		if r.kind == kindWrite {
			body = bodies[r.key]
		}
		resp, err := post(ctx, client, ls.url+durablePaths[r.kind], body)
		if err != nil || r.kind != kindWrite {
			return err
		}
		var ack serve.FactsResponse
		if err := json.Unmarshal(resp, &ack); err != nil {
			return err
		}
		mu.Lock()
		acks = append(acks, ack)
		mu.Unlock()
		return nil
	}
	rt0 := readRuntime()
	isMerges := func(r request) bool { return r.kind == kindCertain || r.kind == kindPossible }
	ss, lag := splitLoop(ctx, reqs, cfg.conns, isMerges, send)
	rt1 := readRuntime()
	for _, s := range ss {
		out.attempted++
		if s.err != nil {
			out.failed++
			out.notes["first_error"] = s.err.Error()
		}
	}
	isRead := func(s sample) bool { return s.kind != kindWrite }
	reads := summarize(latenciesMS(ss, isRead), 0.99)
	writes := summarize(latenciesMS(ss, func(s sample) bool { return s.kind == kindWrite }), 0.90)
	out.e2e["p50_ms"], out.e2e["tail_ms"] = reads.p50, reads.pTl
	out.e2e["side_p50_ms"], out.notes["side_tail_ms"] = writes.p50, writes.pTl
	var readSS []sample
	for _, s := range ss {
		if isRead(s) {
			readSS = append(readSS, s)
		}
	}
	// A one-rung ladder: the fixed read rate, if it held the limit.
	out.e2e["rate_per_s"] = rateAtSLO([]rung{{samples: readSS, elapsed: lastDone(readSS)}}, durableSLOms)
	out.notes["tail_level"], out.notes["side_tail_level"] = reads.level, writes.level
	out.notes["reads"], out.notes["writes"] = reads.n, writes.n

	// Output check, outside the timed region: the WAL verifies, and
	// replaying its batches reproduces the last acknowledged write.
	if err := ls.stop(); err != nil {
		return nil, err
	}
	last := serve.FactsResponse{}
	for _, a := range acks {
		if a.Epoch >= last.Epoch {
			last = a
		}
	}
	L := out.layers
	if tr != nil {
		L["loadgen.lag_tail_ms"] = quantile(msSlice(lag), tailOr(len(lag), 0.99))
		L["go.alloc_mb_per_op"], L["go.gc_cpu_fraction"] = runtimeDelta(rt0, rt1, out.attempted)
		L["trace.p50_ms"], L["trace.tail_ms"] = reads.p50, reads.pTl
	}
	if err := checkWAL(ctx, walPath, last, len(acks), tr, L); err != nil {
		out.failed++
		out.fail(err)
	}
	return out, nil
}

func msSlice(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// sortRequests orders a merged schedule by due time.
func sortRequests(reqs []request) {
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
}

// checkWAL verifies the write-ahead log's hash chain and replays its
// mutation batches through a fresh sharded session, requiring every
// logged fingerprint to reproduce and the replay to end at the last
// acknowledged write. A traced run also times the layers the replay
// crosses.
func checkWAL(ctx context.Context, path string, last serve.FactsResponse, acked int, tr *tracer, L map[string]float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	recs, err := audit.VerifyRecords(f)
	f.Close()
	if err != nil {
		return fmt.Errorf("WAL: %d record(s) verified, then: %w", len(recs), err)
	}
	ds, err := durableInstance()
	if err != nil {
		return err
	}
	m, err := core.NewMutableSharded(ds.DB, ds.Spec, ds.Sims, core.Options{}, core.ShardOptions{})
	if err != nil {
		return err
	}
	var durable *audit.Log
	if tr != nil {
		if durable, _, err = audit.Open(path+".resync", audit.Options{Durable: true}); err != nil {
			return err
		}
		defer durable.Close()
	}
	snap := m.Snapshot()
	prevDB := ds.DB
	mutations := 0
	for _, rec := range recs {
		if rec.Op != audit.OpMutate {
			continue
		}
		mutations++
		b := core.Batch{Insert: rowSpecs(rec.Insert), Retract: rowSpecs(rec.Retract)}
		if tr != nil {
			var nd *db.Database
			_ = tr.span("db.apply", func() error {
				var err error
				nd, _, _, err = db.Apply(prevDB, b.Insert, b.Retract)
				return err
			})
			prevDB = nd
			r := audit.Record{Op: audit.OpMutate, Insert: rec.Insert, Retract: rec.Retract, Epoch: rec.Epoch, DBFingerprint: rec.DBFingerprint}
			if err := tr.span("audit.append_sync", func() error { return durable.Append(r) }); err != nil {
				return err
			}
		}
		var res core.ApplyResult
		if err := tr.span("core.apply", func() error {
			var err error
			res, snap, err = m.Apply(b)
			return err
		}); err != nil {
			return fmt.Errorf("WAL replay, epoch %d: %w", rec.Epoch, err)
		}
		if res.Fingerprint != rec.DBFingerprint {
			return fmt.Errorf("WAL replay, epoch %d: fingerprint %s, log says %s", rec.Epoch, res.Fingerprint, rec.DBFingerprint)
		}
		if tr != nil {
			if err := tr.span("core.epoch_resolve", func() error {
				_, err := snap.PossibleMergesCtx(ctx)
				return err
			}); err != nil {
				return err
			}
		}
	}
	if mutations != acked {
		return fmt.Errorf("WAL holds %d mutation(s), %d were acknowledged", mutations, acked)
	}
	if acked > 0 && snap.Fingerprint() != last.Fingerprint {
		return fmt.Errorf("WAL replay ends at %s, last acknowledged write (epoch %d) at %s", snap.Fingerprint(), last.Epoch, last.Fingerprint)
	}
	if tr == nil {
		return nil
	}
	L["db.apply_us"] = 1000 * median(tr.msOf("db.apply"))
	L["core.apply_ms"] = median(tr.msOf("core.apply"))
	L["core.epoch_resolve_ms"] = median(tr.msOf("core.epoch_resolve"))
	sync := tr.msOf("audit.append_sync")
	L["audit.append_sync_p50_ms"] = quantile(sync, 0.5)
	L["audit.append_sync_tail_ms"] = quantile(sync, tailOr(len(sync), 0.99))
	pairs, err := snap.CertainMergesCtx(ctx)
	if err != nil {
		return err
	}
	return justifyOn(ctx, snap.Engine(), pairs, L)
}

// justifyOn times what the server's merges audit does for the certain
// pairs it served: one greedy witness solution on the whole-instance
// engine, then a Definition-4 justification per pair, reported per
// pair.
func justifyOn(ctx context.Context, eng *core.Engine, pairs []eqrel.Pair, L map[string]float64) error {
	d, err := timed(func() error {
		E, ok, err := eng.GreedySolutionCtx(ctx)
		if err != nil || !ok {
			return err
		}
		for _, p := range pairs {
			if _, err := eng.Justify(E, p.A, p.B); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	L["core.justify_ms"] = ms(d) / float64(max(len(pairs), 1))
	return nil
}

// rowSpecs converts audit-log fact rows (relation name first) to fact
// specs.
func rowSpecs(rows [][]string) []db.FactSpec {
	var out []db.FactSpec
	for _, row := range rows {
		if len(row) > 0 {
			out = append(out, db.FactSpec{Rel: row[0], Args: row[1:]})
		}
	}
	return out
}
