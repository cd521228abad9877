package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"

	"hybridroute/internal/core"
	"hybridroute/internal/routing"
)

// countingMode makes heap allocation counts repeat exactly, as
// testing.AllocsPerRun does: one P (so per-P pools are not refilled after a
// migration) and no collection (so pools are not emptied). It returns the
// function that restores the previous settings.
func countingMode() func() {
	runtime.GC()
	procs := runtime.GOMAXPROCS(1)
	gc := debug.SetGCPercent(-1)
	return func() {
		debug.SetGCPercent(gc)
		runtime.GOMAXPROCS(procs)
	}
}

// Span names of a traced query. A route whose every routing, abstraction
// and delaunay call was replayed is a routeSpan; one with calls the
// benchmark cannot replay from outside core is a partialSpan (see
// routeTraced).
const (
	routeSpan   = "core.route"
	partialSpan = "core.route_partial"
)

// routeTraced runs one Engine.Route inside a route span, then replays the
// routing, abstraction and delaunay calls that route made, each in a child
// span of it: routing.Chew for the straight first leg of a case-1 query, the
// abstraction's Waypoints from the hole-hit node when that node lies outside
// every region, routing.ChewVia over the waypoints the outcome carries, and
// the LDel² shortest path (a graph-wide Dijkstra) of a query that fell back.
// These calls are deterministic, so a replay does the same work as the call
// inside the route (unless the engine answered one from its sub-plan cache,
// which cold queries seldom do). The route's self time is everything else:
// case classification, the plan cache, mapping waypoint positions to nodes
// and the splice.
//
// Some calls cannot be replayed: a hit node inside a region, and the case
// 2-5 queries, plan over the network's private per-group geodesic domains
// and feed the overlay search from an exit node the outcome does not name,
// and a query that fell back after its overlay search succeeded ran a
// ChewVia leg whose waypoints the outcome drops (or failed to map them to
// nodes; the two cannot be told apart from outside). Such a route is
// recorded as a partialSpan, and its self time includes those calls.
func routeTraced(eng *core.Engine, rec *recorder, req int64, p pair) core.Outcome {
	nw := eng.Network()
	t0 := rec.now()
	out := eng.Route(p.s, p.t)
	t1 := rec.now()
	var children []span
	replay := func(name string, fn func()) {
		a := rec.now()
		fn()
		children = append(children, span{name: name, start: a, end: rec.now()})
	}
	complete := out.Case == 1 || p.s == p.t
	if out.Case == 1 && p.s != p.t {
		var first routing.Result
		replay("routing.chew", func() { first = nw.Router.Chew(p.s, p.t) })
		if !first.Reached && first.HoleHit && len(first.Path) > 0 {
			if hp := nw.G.Point(first.HitNode); nw.Abs.RegionAt(hp) < 0 {
				var ok bool
				replay("abstraction.waypoints", func() { _, _, ok = nw.Abs.Waypoints(hp, nw.G.Point(p.t)) })
				complete = !(ok && out.PlanFallback)
			} else {
				complete = false
			}
		}
	}
	if len(out.Waypoints) > 0 {
		replay("routing.chewvia", func() { nw.Router.ChewVia(out.Waypoints) })
	}
	if out.PlanFallback {
		replay("delaunay.shortest_path", func() { nw.LDel.ShortestPath(p.s, p.t) })
	}
	name := routeSpan
	if !complete {
		name = partialSpan
	}
	id := rec.add(name, 0, req, t0, t1)
	for _, c := range children {
		rec.add(c.name, id, req, c.start, c.end)
	}
	return out
}

// queryLayers is the per-query ledger of the traced routes: the mean time
// per route of each replayed call, the mean self time of a route whose
// calls were all replayed (plan self) and of one whose were not, and the
// share of the latter. chew + chewvia + waypoints + shortestPath +
// (1-partialShare)·planSelf + partialShare·partialSelf = route.
type queryLayers struct {
	chew, chewvia, waypoints, shortestPath float64
	planSelf, partialSelf, partialShare    float64
	route                                  float64
	routes                                 int
}

func ledgerOf(spans []span) queryLayers {
	dur, self := layerTimes(spans)
	sum := func(xs []float64) float64 { return mean(xs) * float64(len(xs)) }
	full, part := len(dur[routeSpan]), len(dur[partialSpan])
	per := float64(full + part)
	return queryLayers{
		chew:         ratio(sum(dur["routing.chew"]), per),
		chewvia:      ratio(sum(dur["routing.chewvia"]), per),
		waypoints:    ratio(sum(dur["abstraction.waypoints"]), per),
		shortestPath: ratio(sum(dur["delaunay.shortest_path"]), per),
		planSelf:     mean(self[routeSpan]),
		partialSelf:  mean(self[partialSpan]),
		partialShare: ratio(float64(part), per),
		route:        ratio(sum(dur[routeSpan])+sum(dur[partialSpan]), per),
		routes:       full + part,
	}
}

func (l queryLayers) String() string {
	return fmt.Sprintf("chew %.1f + chewvia %.1f + waypoints %.1f + shortest path %.1f + %.3f x plan self %.1f + %.3f x partial self %.1f = traced route %.1f us",
		l.chew, l.chewvia, l.waypoints, l.shortestPath, 1-l.partialShare, l.planSelf, l.partialShare, l.partialSelf, l.route)
}

// queryLayerMetrics reports the ledger of the traced routes.
func queryLayerMetrics(spans []span, m metrics) {
	l := ledgerOf(spans)
	m.set("routing.chew_us", l.chew, "us")
	m.set("routing.chewvia_us", l.chewvia, "us")
	m.set("abstraction.waypoints_us", l.waypoints, "us")
	m.set("delaunay.shortest_path_us", l.shortestPath, "us")
	m.set("core.plan_self_us", l.planSelf, "us")
	m.set("core.partial_self_us", l.partialSelf, "us")
	m.set("core.partial_share", l.partialShare, "ratio")
	m.set("core.route_traced_us_mean", l.route, "us")
}

// routeDurations returns the duration (µs) of every traced route.
func routeDurations(spans []span) []float64 {
	dur, _ := layerTimes(spans)
	return append(append([]float64(nil), dur[routeSpan]...), dur[partialSpan]...)
}

// coldCounts routes a fixed pair list through a fresh engine (so every
// query misses the outcome cache) with the collector off, and reports the
// deterministic counts of those cold queries: heap allocations and bytes per
// query, the share of each position case, of queries that followed
// waypoints, and of plan fallbacks.
func coldCounts(nw *core.Network, pairs []pair, m metrics) {
	eng := core.NewEngine(nw, core.EngineConfig{Workers: 1})
	defer countingMode()()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	outs := make([]core.Outcome, len(pairs))
	for i, p := range pairs {
		outs[i] = eng.Route(p.s, p.t)
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(pairs))
	m.set("core.cold_allocs_per_query", float64(m1.Mallocs-m0.Mallocs)/n, "count")
	m.set("core.cold_bytes_per_query", float64(m1.TotalAlloc-m0.TotalAlloc)/n, "B")
	var cases [6]int
	wps, fb := 0, 0
	for _, o := range outs {
		if o.Case >= 1 && o.Case <= 5 {
			cases[o.Case]++
		}
		if len(o.Waypoints) > 0 {
			wps++
		}
		if o.PlanFallback {
			fb++
		}
	}
	for c := 1; c <= 5; c++ {
		m.set("core.case_share_"+string(rune('0'+c)), float64(cases[c])/n, "ratio")
	}
	m.set("core.waypoint_share", float64(wps)/n, "ratio")
	m.set("core.fallback_share", float64(fb)/n, "ratio")
}

// warmAllocs routes the hot pairs once through a fresh engine, then counts
// heap allocations per query over repeated warm (cache-hit) calls.
func warmAllocs(nw *core.Network, hot []pair, m metrics) {
	eng := core.NewEngine(nw, core.EngineConfig{Workers: 1})
	defer countingMode()()
	for r := 0; r < 2; r++ { // fill the cache, then the P's pooled copy arena
		for _, p := range hot {
			eng.Route(p.s, p.t)
		}
	}
	const reps = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < reps; r++ {
		for _, p := range hot {
			eng.Route(p.s, p.t)
		}
	}
	runtime.ReadMemStats(&m1)
	m.set("core.warm_allocs_per_query", float64(m1.Mallocs-m0.Mallocs)/float64(reps*len(hot)), "count")
}

// cacheMetrics reports the plan-cache counters summed over engines.
func cacheMetrics(engines []*core.Engine, m metrics) {
	var st core.CacheStats
	for _, e := range engines {
		s := e.Stats()
		st.Hits += s.Hits
		st.Misses += s.Misses
		st.Evictions += s.Evictions
	}
	m.set("core.cache_hit_rate", st.HitRate(), "ratio")
	m.set("core.cache_evictions", float64(st.Evictions), "count")
}

// medianLedger prints the ledger of the typical query: that of the traced
// queries whose route time lies within the middle 5% of ranks around the
// traced median, next to the untraced median.
func medianLedger(spans []span, untracedP50 float64) {
	var routes []span
	for _, s := range spans {
		if s.name == routeSpan || s.name == partialSpan {
			routes = append(routes, s)
		}
	}
	if len(routes) < 40 {
		return
	}
	sort.Slice(routes, func(i, j int) bool { return routes[i].dur() < routes[j].dur() })
	band := map[int64]bool{}
	for _, r := range routes[len(routes)*475/1000 : len(routes)*525/1000] {
		band[r.id] = true
	}
	var sel []span
	for _, s := range spans {
		if band[s.id] || band[s.parent] {
			sel = append(sel, s)
		}
	}
	l := ledgerOf(sel)
	fmt.Printf("ledger (median band, %d queries): %s; untraced route p50 %.1f us\n", l.routes, l, untracedP50)
}
