package main

import (
	"fmt"
	"math/rand"
	"time"

	"hybridroute/internal/core"
)

// cold-holes: one in-process caller runs a closed loop of distinct seeded
// (s, t) pairs through core.Engine.Route on the hole grid. No pair repeats,
// so every query misses the plan cache and the cold query layers do the
// work; set-up is dominated by the build layers.

const (
	coldMinDist    = 2.0 // |st| floor of a query pair, in radio ranges
	coldCountPairs = 400 // fixed pair prefix the deterministic counts use
	coldBlock      = 128 // queries per alternating traced/untraced block
	httpCheckPairs = 200 // seeded pairs the HTTP output check asks
)

func runColdHoles(cfg runConfig) (*outcome, error) {
	sc, err := holeScenario()
	if err != nil {
		return nil, err
	}
	nw, setupS, heapPerNode, err := setup(sc, buildStatic)
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: metrics{}}
	if cfg.rec != nil { // before the workload fills the heap
		if err := buildLedger(sc, cfg.rec, o.metrics); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	// Enough distinct pairs that the loop cannot run out below 3000 queries/s.
	pairs := distinctPairs(rng, nw.G, int(cfg.duration.Seconds()*3000)+coldCountPairs, coldMinDist, nil)
	eng := core.NewEngine(nw, core.EngineConfig{Workers: 1})

	type done struct {
		p      pair
		out    core.Outcome
		at     float64 // seconds since loop start
		us     float64
		traced bool
	}
	var results []done
	start := time.Now()
	for i := 0; i < len(pairs) && time.Since(start) < cfg.duration; i++ {
		p := pairs[i]
		traced := cfg.rec != nil && (i/coldBlock)%2 == 1
		t0 := time.Now()
		var out core.Outcome
		if traced {
			out = routeTraced(eng, cfg.rec, int64(i+1), p)
		} else {
			out = eng.Route(p.s, p.t)
		}
		results = append(results, done{p: p, out: out, at: t0.Sub(start).Seconds(), us: float64(time.Since(t0)) / 1e3, traced: traced})
	}
	wall := time.Since(start).Seconds()
	if len(results) < 2*coldBlock {
		return nil, fmt.Errorf("only %d queries in %v", len(results), cfg.duration)
	}

	// Output checks, after the loop so they cost the measurement nothing.
	var at, lat, ratios []float64
	reached := 0
	for _, r := range results {
		o.attempted++
		if !r.out.Reached {
			o.failOp("cold route %d->%d not reached", r.p.s, r.p.t)
			continue
		}
		if err := checkWalk(nw, r.p.s, r.p.t, r.out.Path); err != nil {
			o.fail("cold route: %v", err)
		}
		reached++
		ratios = append(ratios, lenRatio(nw.G, r.p.s, r.p.t, r.out.Path))
		if !r.traced {
			at = append(at, r.at)
			lat = append(lat, r.us)
		}
	}
	span := cfg.duration.Seconds()
	httpCheck(nw, cfg, pairs[:httpCheckPairs], o)

	if cfg.rec == nil {
		m := o.metrics
		m.set("setup_s", setupS, "s")
		m.set("heap_bytes_per_node", heapPerNode, "B")
		latencyMetrics(m, "cold-holes", at, lat, span)
		m.set("route_qps", float64(len(results))/wall, "1/s")
		m.set("ok_rate", float64(o.attempted-o.failed)/float64(o.attempted), "ratio")
		m.set("reached_rate", float64(reached)/float64(len(results)), "ratio")
		m.set("len_ratio_p50", quantile(ratios, 0.5), "ratio")
		m.set("len_ratio_p99", quantile(ratios, 0.99), "ratio")
		fmt.Printf("cold-holes: %d nodes, %d holes, %d distinct queries in %.2fs\n", nw.G.N(), nw.HoleCount(), len(results), wall)
		return o, nil
	}

	// Traced run: the per-layer ledger.
	m := o.metrics
	spans := cfg.rec.snapshot()
	queryLayerMetrics(spans, m)
	// Overhead: the traced route spans (replays excluded) against the
	// untraced blocks' routes, compared at the median.
	untracedP50 := quantile(append([]float64(nil), lat...), 0.5)
	m.set("bench.trace_overhead_pct", 100*(quantile(routeDurations(spans), 0.5)/untracedP50-1), "%")
	fmt.Printf("ledger (mean): %s; untraced route %.1f us\n", ledgerOf(spans), mean(lat))
	medianLedger(spans, untracedP50)

	coldCounts(nw, pairs[:coldCountPairs], m)
	warmAllocs(nw, pairs[:16], m)
	cacheMetrics([]*core.Engine{eng}, m)
	return o, nil
}
