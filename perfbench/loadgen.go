package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// request is one scheduled operation of an open loop: due is its send
// time as an offset from the loop's start, kind and key tell the
// workload what to send.
type request struct {
	due  time.Duration
	kind int
	key  int
}

// sample is the outcome of one request. Latency is timed from due, not
// from the actual send, so a stall that delays later requests counts
// against them too.
type sample struct {
	kind            int
	due, sent, done time.Duration
	err             error
}

func (s sample) latency() time.Duration { return s.done - s.due }

// poissonTimes returns n send times of a Poisson process over [0, span)
// conditioned on n arrivals: the sorted order statistics of n uniform
// draws. Fixing n (rather than the rate) keeps every run's sample count
// — and so its tail percentile — the same.
func poissonTimes(rng *rand.Rand, n int, span time.Duration) []time.Duration {
	ts := make([]time.Duration, n)
	for i := range ts {
		ts[i] = time.Duration(rng.Int63n(int64(span)))
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}

// openLoop sends reqs on their schedule over conns concurrent
// connections and returns one sample per request, in schedule order,
// plus how late the generator dispatched each request. A request whose
// connection is still busy waits in the queue; its wait is part of its
// latency.
func openLoop(ctx context.Context, reqs []request, conns int,
	do func(ctx context.Context, r request) error) (samples []sample, lag []time.Duration) {

	samples = make([]sample, len(reqs))
	lag = make([]time.Duration, len(reqs))
	// Sized to the number of sends, so the dispatcher never blocks on a
	// busy client and its lateness measures only itself.
	queue := make(chan int, len(reqs))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := reqs[i]
				sent := time.Since(start)
				err := do(ctx, r)
				samples[i] = sample{kind: r.kind, due: r.due, sent: sent, done: time.Since(start), err: err}
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
	for i, r := range reqs {
		if wait := r.due - time.Since(start); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
			}
		}
		lag[i] = time.Since(start) - r.due
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples, lag
}

// splitLoop runs one open loop in two classes: the requests alone
// selects get one connection to themselves, the rest share the other
// conns-1 (at least one). A few slow requests then never hold up the
// many fast ones in the client, which with two connections would
// otherwise set the fast requests' tail. Samples come back in due-time
// order.
func splitLoop(ctx context.Context, reqs []request, conns int, alone func(request) bool,
	do func(ctx context.Context, r request) error) (samples []sample, lag []time.Duration) {

	var solo, rest []request
	for _, r := range reqs {
		if alone(r) {
			solo = append(solo, r)
		} else {
			rest = append(rest, r)
		}
	}
	var soloSS []sample
	var soloLag []time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		soloSS, soloLag = openLoop(ctx, solo, 1, do)
	}()
	samples, lag = openLoop(ctx, rest, max(conns-1, 1), do)
	wg.Wait()
	samples = append(samples, soloSS...)
	sort.Slice(samples, func(i, j int) bool { return samples[i].due < samples[j].due })
	return samples, append(lag, soloLag...)
}

// tailLevels are the percentiles a tail metric may report, highest
// first.
var tailLevels = []float64{0.99, 0.95, 0.90, 0.75, 0.50}

// tailLevel returns the highest of tailLevels at most max that leaves at
// least ten of n samples beyond it (nearest-rank), or 0 when n < 11.
func tailLevel(n int, max float64) float64 {
	for _, q := range tailLevels {
		if q > max {
			continue
		}
		if n-rank(n, q) >= 10 {
			return q
		}
	}
	return 0
}

// rank is the 1-based nearest-rank position of quantile q in n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	return xs[rank(len(xs), q)-1]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latenciesMS returns the latencies of the samples matching keep in
// milliseconds. A failed request counts as missing any limit: its
// latency is +Inf.
func latenciesMS(ss []sample, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range ss {
		if keep != nil && !keep(s) {
			continue
		}
		if s.err != nil {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(s.latency()))
	}
	return out
}

// tail summarizes latencies: the median and the highest percentile (at
// most max) with ten samples beyond it.
type tail struct {
	n        int
	level    float64
	p50, pTl float64
}

func summarize(lat []float64, max float64) tail {
	t := tail{n: len(lat), level: tailLevel(len(lat), max)}
	if t.n == 0 {
		return t
	}
	xs := append([]float64(nil), lat...)
	t.p50 = quantile(xs, 0.5)
	if t.level > 0 {
		t.pTl = quantile(xs, t.level)
	} else {
		t.pTl = quantile(xs, 1)
	}
	return t
}

// rung is what one fixed rate of a ladder measured.
type rung struct {
	samples []sample
	elapsed time.Duration
}

// meets reports whether the rung kept its tail latency within slo
// (failures count as over it) with no growing backlog: the requests due
// in the last tenth of the rung did not wait, at the median, more than
// twice as long as those in the first tenth and more than half the
// limit.
func (r rung) meets(slo float64) bool {
	lat := latenciesMS(r.samples, nil)
	t := summarize(lat, 0.99)
	if t.n == 0 || t.pTl > slo {
		return false
	}
	k := len(lat) / 10
	if k == 0 {
		return true
	}
	first := median(append([]float64(nil), lat[:k]...))
	last := median(append([]float64(nil), lat[len(lat)-k:]...))
	return !(last > 2*first && last > slo/2)
}

// achieved is the rung's completed-request rate: successes over the
// time from the rung's start to its last completion.
func (r rung) achieved() float64 {
	ok := 0
	for _, s := range r.samples {
		if s.err == nil {
			ok++
		}
	}
	if r.elapsed <= 0 {
		return 0
	}
	return float64(ok) / r.elapsed.Seconds()
}

// rateAtSLO applies the ladder rule: walking the rungs in ascending
// rate, the result is the achieved rate of the last rung that met the
// limit before the first that did not. It is 0 when the lowest rung
// already misses.
func rateAtSLO(rungs []rung, slo float64) float64 {
	best := 0.0
	for _, r := range rungs {
		if !r.meets(slo) {
			break
		}
		best = r.achieved()
	}
	return best
}

// lastDone is the completion time of the loop's last request.
func lastDone(ss []sample) time.Duration {
	var d time.Duration
	for _, s := range ss {
		if s.done > d {
			d = s.done
		}
	}
	return d
}
