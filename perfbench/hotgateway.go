package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hybridroute/internal/core"
	"hybridroute/internal/sim"
)

// hot-gateway: the cold-holes deployment served as fleetBackends serve
// backends behind cluster.Gateway, driven over keep-alive HTTP by at most
// nproc client connections. 95% of requests come from a small hot pair set
// the engines' plan caches answer. The first half of the measuring
// time is an open loop at hotRate requests/s (latency, timed from when each
// request was due); the second half is a closed loop on every connection
// (capacity).

const (
	hotPairs   = 256
	hotShare   = 0.95 // the open-loop p99 then falls inside the hole-hitting cold requests, not on their edge
	hotRate    = 2000 // open-loop requests/s: about a quarter of the closed-loop capacity on 2 cores
	sampleMod  = 32   // one request in sampleMod is checked against Network.Route
	ledgerCold = 200  // cold pairs the traced run decomposes into layers
)

// request is one client request's record.
type request struct {
	p           pair
	due, sent   time.Duration // since the phase start (due = sent in the closed loop)
	lat         time.Duration // from due to response read
	status      int
	err         error
	reached     bool
	ratio       float64
	traced      bool
	queued, ans int64 // µs the backend reported
}

func runHotGateway(cfg runConfig) (*outcome, error) {
	sc, err := holeScenario()
	if err != nil {
		return nil, err
	}
	nw, buildS, heapPerNode, err := setup(sc, buildStatic)
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: metrics{}}
	if cfg.rec != nil { // before the workload fills the heap
		if err := buildLedger(sc, cfg.rec, o.metrics); err != nil {
			return nil, err
		}
	}
	startAt := time.Now()
	f, err := startFleet(nw, cfg.seed, cfg.rec)
	if err != nil {
		return nil, err
	}
	setupS := buildS + time.Since(startAt).Seconds()
	drained := false
	defer func() {
		if !drained {
			f.abort()
		}
	}()

	rng := rand.New(rand.NewSource(cfg.seed))
	all := distinctPairs(rng, nw.G, hotPairs+int(cfg.duration.Seconds()*2000), coldMinDist, nil)
	hot, cold := all[:hotPairs], all[hotPairs:]
	var coldNext atomic.Int64
	pick := func(rid int64) pair {
		h := splitmix(uint64(cfg.seed)<<32 ^ uint64(rid))
		if float64(h%1000) < hotShare*1000 {
			return hot[(h>>10)%hotPairs]
		}
		return cold[int(coldNext.Add(1)-1)%len(cold)]
	}
	sampled := func(rid int64) bool { return splitmix(uint64(rid)^uint64(cfg.seed)*0x9e37)%sampleMod == 0 }

	var mu sync.Mutex
	var reqs []request
	type sample struct {
		p pair
		a answer
	}
	var samples []sample
	var ridNext atomic.Int64
	// do sends one request (rid, p) that was due at due after phaseStart.
	do := func(rid int64, p pair, due time.Duration, phaseStart time.Time) {
		r := request{p: p, due: due, traced: f.tracing.Load()}
		r.sent = time.Since(phaseStart)
		var t0 int64
		if r.traced {
			t0 = f.rec.now()
		}
		a, err := f.post(context.Background(), rid, p)
		r.lat = time.Since(phaseStart) - due
		if r.traced {
			f.rec.add("bench.request", 0, rid, t0, f.rec.now())
		}
		r.status, r.err = a.status, err
		if err == nil && a.status == http.StatusOK {
			r.reached = a.Reached
			path := make([]sim.NodeID, len(a.Path))
			for i, v := range a.Path {
				path[i] = sim.NodeID(v)
			}
			r.ratio = lenRatio(nw.G, p.s, p.t, path)
			r.queued, r.ans = a.QueuedUS, a.LatencyUS
		}
		mu.Lock()
		reqs = append(reqs, r)
		if err == nil && sampled(rid) {
			samples = append(samples, sample{p, a})
		}
		mu.Unlock()
	}

	// Warm-up (not measured): every hot pair once, so the plan caches hold
	// them before timing starts.
	for _, p := range hot {
		do(ridNext.Add(1), p, 0, time.Now())
	}
	warm := len(reqs)

	conns := runtime.NumCPU()
	half := cfg.duration / 2

	// Open loop: request i is due at i/hotRate; a connection that falls
	// behind sends late and the lateness counts in the latency.
	openStart := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				due := time.Duration(i) * time.Second / hotRate
				if due >= half {
					return
				}
				waitUntil(openStart.Add(due))
				rid := ridNext.Add(1)
				do(rid, pick(rid), due, openStart)
			}
		}()
	}
	wg.Wait()
	open := len(reqs)

	// Closed loop: every connection sends back to back. A traced run
	// alternates traced and untraced half-second blocks here, which gives
	// the tracing overhead.
	closedStart := time.Now()
	stopToggle := make(chan struct{})
	var toggler sync.WaitGroup
	if cfg.rec != nil {
		toggler.Add(1)
		go func() {
			defer toggler.Done()
			tick := time.NewTicker(500 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopToggle:
					f.tracing.Store(true)
					return
				case <-tick.C:
					f.tracing.Store(!f.tracing.Load())
				}
			}
		}()
	}
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(closedStart) < half {
				rid := ridNext.Add(1)
				do(rid, pick(rid), time.Since(closedStart), closedStart)
			}
		}()
	}
	wg.Wait()
	closedWall := time.Since(closedStart).Seconds()
	close(stopToggle)
	toggler.Wait()

	// Drain the fleet before reading its counters and checking the sample.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	bad := f.close(ctx)
	cancel()
	drained = true
	for _, b := range bad {
		o.fail("hot-gateway: %s", b)
	}

	var at, lat, lag, ratios []float64
	var tracedLat, plainLat []float64
	reached, answered := 0, 0
	seen := map[pair]bool{} // len ratios count each distinct pair once
	for i, r := range reqs {
		o.attempted++
		if r.err != nil {
			o.failOp("request %d->%d: %v", r.p.s, r.p.t, r.err)
			continue
		}
		if r.status != http.StatusOK {
			o.failOp("request %d->%d: HTTP %d", r.p.s, r.p.t, r.status)
			continue
		}
		answered++
		if r.reached {
			reached++
		}
		if !seen[r.p] {
			seen[r.p] = true
			ratios = append(ratios, r.ratio)
		}
		switch {
		case i >= warm && i < open:
			at = append(at, r.due.Seconds())
			lat = append(lat, float64(r.lat)/1e3)
			lag = append(lag, float64(r.sent-r.due)/1e3)
		case i >= open:
			if r.traced {
				tracedLat = append(tracedLat, float64(r.lat)/1e3)
			} else {
				plainLat = append(plainLat, float64(r.lat)/1e3)
			}
		}
	}
	for _, sm := range samples {
		if sm.a.status == http.StatusOK {
			if err := sameAsNetwork(nw, sm.p, sm.a); err != nil {
				o.fail("sampled answer: %v", err)
			}
		}
	}
	completedClosed := len(reqs) - open
	fmt.Printf("hot-gateway: %d requests (%d open-loop at %d/s, %d closed-loop on %d connections), %d answers checked against Network.Route\n",
		len(reqs)-warm, open-warm, hotRate, completedClosed, conns, len(samples))

	if cfg.rec == nil {
		m := o.metrics
		m.set("setup_s", setupS, "s")
		m.set("heap_bytes_per_node", heapPerNode, "B")
		latencyMetrics(m, "hot-gateway", at, lat, half.Seconds())
		m.set("route_qps", float64(completedClosed)/closedWall, "1/s")
		m.set("ok_rate", float64(o.attempted-o.failed)/float64(o.attempted), "ratio")
		m.set("reached_rate", ratio(float64(reached), float64(answered)), "ratio")
		m.set("len_ratio_p50", quantile(ratios, 0.5), "ratio")
		m.set("len_ratio_p99", quantile(ratios, 0.99), "ratio")
		fmt.Printf("hot-gateway: generator lag p50 %.1f us, p95 %.1f us, p99 %.1f us\n", quantile(lag, 0.5), quantile(lag, 0.95), quantile(lag, 0.99))
		return o, nil
	}

	m := o.metrics
	m.set("error_rate", ratio(float64(o.failed), float64(o.attempted)), "ratio")
	m.set("bench.gen_lag_p99_us", quantile(lag, 0.99), "us")
	m.set("bench.trace_overhead_pct", 100*(quantile(tracedLat, 0.5)/quantile(plainLat, 0.5)-1), "%")
	answers := make([]answer, 0, len(reqs))
	for _, r := range reqs {
		if r.status == http.StatusOK {
			answers = append(answers, answer{status: r.status, QueuedUS: r.queued, LatencyUS: r.ans})
		}
	}
	cfg.rec.link("cluster.gateway", "bench.request")
	cfg.rec.link("serve.handler", "cluster.gateway")
	f.metrics(answers, m)
	cacheMetrics(f.engines, m)
	ledger := cold[:ledgerCold]
	coldCounts(nw, ledger, m)
	runtime.GC() // so no collection of the workload's garbage lands in a replay
	eng := core.NewEngine(nw, core.EngineConfig{Workers: 1})
	for i, p := range ledger {
		routeTraced(eng, cfg.rec, int64(1<<41+i), p)
	}
	queryLayerMetrics(cfg.rec.snapshot(), m)
	warmAllocs(nw, hot, m)
	return o, nil
}

// spinLead is how long before a request's due time the open-loop generator
// stops sleeping and starts to poll the clock.
const spinLead = 1500 * time.Microsecond

// waitUntil returns at t, a few microseconds late at most. A Go timer in a
// process with idle processors fires up to a millisecond late (the runtime's
// poller sleeps in whole milliseconds), which would be most of a warm
// request's latency, so waitUntil sleeps only until spinLead before t and
// polls the clock for the rest. The poll does not yield: a loop of
// runtime.Gosched keeps the yielding goroutine on the run queue, and with
// both generator connections waiting the scheduler then seldom polls the
// network, which delayed the requests in flight by milliseconds.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinLead; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
	}
}

// splitmix is a 64-bit mixer for seeded per-request choices.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
