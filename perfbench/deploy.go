package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"hybridroute/internal/abstraction"
	"hybridroute/internal/core"
	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/routing"
	"hybridroute/internal/sim"
	"hybridroute/internal/udg"
	"hybridroute/internal/vis"
	"hybridroute/internal/workload"
)

// Deployment sizes. The hole grid is 158×158 points at 0.55 spacing (about
// 2.5·10⁴ nodes once the hole interiors are cut out); the churn network is
// the experiments' standard random deployment at n = 500.
const (
	gridSpacing = 0.55
	gridSide    = 157 * gridSpacing
	gridHoles   = 8
	churnNodes  = 500
	windows     = 10  // latency windows per measuring phase; see windowed
	setupReps   = 5   // fewest set-ups per run; setup_s is their median
	setupMinS   = 3.0 // set-ups continue until their times add up to this

	// deploySeed fixes the deployments' geometry, so runs with different
	// -seed values measure the same system; -seed draws the traffic (query
	// pairs, hot sets, churn victims, loss stream).
	deploySeed = 1
)

// holeScenario is the cold-holes/hot-gateway deployment: a bordered grid
// (exact border, so the only holes are the obstacle cut-outs) with
// gridHoles seeded, pairwise separated convex obstacles.
func holeScenario() (*workload.Scenario, error) {
	obstacles := workload.RandomConvexObstacles(deploySeed, gridHoles, gridSide, gridSide, 2.0, 4.0, 2.0)
	if len(obstacles) != gridHoles {
		return nil, fmt.Errorf("placed %d of %d obstacles", len(obstacles), gridHoles)
	}
	return workload.BorderedGrid(gridSpacing, gridSide, gridSide, 1, obstacles)
}

// churnScenario is the churn-deliver deployment: the experiments' standard
// scenario (uniform nodes around three seeded convex obstacles) at n = 500.
func churnScenario() (*workload.Scenario, error) {
	side := math.Sqrt(churnNodes) * 0.42
	obstacles := workload.RandomConvexObstacles(deploySeed, 3, side, side, side/8, side/5, 1.2)
	return workload.WithObstacles(deploySeed, churnNodes, side, side, 1, obstacles)
}

// heapInUse is the live heap after a full collection.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setup builds the network from the scenario's points at least setupReps
// times, and until the builds add up to setupMinS seconds (so a fast build,
// such as the 500-node churn network, is repeated a dozen times or more), and
// keeps the last one. It returns the median wall time of one set-up (UDG
// build plus preprocessing) and the median live heap a built network holds,
// per node.
func setup(sc *workload.Scenario, build func(*udg.Graph) (*core.Network, error)) (*core.Network, float64, float64, error) {
	var secs, bytesPerNode []float64
	var nw *core.Network
	for total := 0.0; len(secs) < setupReps || total < setupMinS; total += secs[len(secs)-1] {
		nw = nil
		before := heapInUse()
		start := time.Now()
		g := udg.Build(sc.Points, sc.Radius)
		built, err := build(g)
		if err != nil {
			return nil, 0, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		nw = built
		bytesPerNode = append(bytesPerNode, float64(heapInUse()-before)/float64(g.N()))
	}
	return nw, median(secs), median(bytesPerNode), nil
}

func buildStatic(g *udg.Graph) (*core.Network, error) {
	return core.PreprocessStatic(g, core.Config{})
}

func buildSimulated(g *udg.Graph) (*core.Network, error) {
	return core.Preprocess(g, core.Config{Seed: deploySeed})
}

// buildLedger times each build layer's public call on the scenario's graph,
// then PreprocessStatic on the same graph, setupReps times, and reports the
// per-layer medians. core.static_rest_ms is the PreprocessStatic total minus
// the layer calls it makes (LDel², holes, router index, abstraction, domain):
// a residual of two noisy timings, so it can read slightly negative. Each
// rep's layer spans are recorded as children of that rep's static span.
func buildLedger(sc *workload.Scenario, rec *recorder, m metrics) error {
	per := map[string][]float64{}
	for rep := 0; rep < setupReps; rep++ {
		type call struct {
			name       string
			start, end int64
		}
		var calls []call
		timed := func(name string, fn func()) {
			start := rec.now()
			fn()
			calls = append(calls, call{name, start, rec.now()})
		}
		var g *udg.Graph
		var ldel *delaunay.PlanarGraph
		var holes *delaunay.HoleSet
		var absErr error
		timed("udg.build", func() { g = udg.Build(sc.Points, sc.Radius) })
		timed("delaunay.ldel2", func() { ldel = delaunay.LDel2Fast(g) })
		timed("delaunay.holes", func() { holes = delaunay.DetectHoles(ldel, g.Radius()) })
		timed("routing.index", func() { routing.New(ldel) })
		timed("abstraction.build", func() { _, absErr = abstraction.New("hull", holes) })
		if absErr != nil {
			return fmt.Errorf("build ledger: %w", absErr)
		}
		var polys [][]geom.Point
		for _, h := range holes.Holes {
			polys = append(polys, h.Polygon)
		}
		timed("vis.domain", func() { vis.NewDomain(polys) })

		t0 := rec.now()
		_, err := core.PreprocessStatic(g, core.Config{})
		t1 := rec.now()
		if err != nil {
			return fmt.Errorf("build ledger: %w", err)
		}
		static := rec.add("core.preprocess_static", 0, 0, t0, t1)
		inside := 0.0 // the layer calls PreprocessStatic makes itself
		for _, c := range calls {
			d := float64(c.end-c.start) / 1e6
			per[c.name+"_ms"] = append(per[c.name+"_ms"], d)
			parent := static
			if c.name == "udg.build" {
				parent = 0 // the graph is PreprocessStatic's input
			} else {
				inside += d
			}
			rec.add(c.name, parent, 0, c.start, c.end)
		}
		per["core.static_rest_ms"] = append(per["core.static_rest_ms"], float64(t1-t0)/1e6-inside)
		if rep == 0 {
			n, err := buildAllocs(g)
			if err != nil {
				return err
			}
			m.set("core.build_allocs_per_node", n, "count")
		}
	}
	for name, xs := range per {
		m.set(name, median(xs), "ms")
	}
	return nil
}

// buildAllocs counts the heap allocations of one PreprocessStatic per node,
// in counting mode so the count repeats.
func buildAllocs(g *udg.Graph) (float64, error) {
	defer countingMode()()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, err := core.PreprocessStatic(g, core.Config{})
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, fmt.Errorf("build ledger: %w", err)
	}
	return float64(m1.Mallocs-m0.Mallocs) / float64(g.N()), nil
}

// pair is one (s, t) query.
type pair struct{ s, t sim.NodeID }

// distinctPairs draws n distinct seeded pairs whose endpoints are at least
// minDist apart and not excluded.
func distinctPairs(rng *rand.Rand, g *udg.Graph, n int, minDist float64, excluded func(sim.NodeID) bool) []pair {
	seen := make(map[pair]bool, n)
	out := make([]pair, 0, n)
	for len(out) < n {
		p := pair{sim.NodeID(rng.Intn(g.N())), sim.NodeID(rng.Intn(g.N()))}
		if p.s == p.t || seen[p] || g.Point(p.s).Dist(g.Point(p.t)) < minDist {
			continue
		}
		if excluded != nil && (excluded(p.s) || excluded(p.t)) {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// checkWalk verifies a routed path is a walk over the network's current LDel²
// from s to t through live nodes.
func checkWalk(nw *core.Network, s, t sim.NodeID, path []sim.NodeID) error {
	if len(path) == 0 || path[0] != s || path[len(path)-1] != t {
		return fmt.Errorf("%d->%d: path does not run from s to t (%d nodes)", s, t, len(path))
	}
	for i, v := range path {
		if nw.Sim != nil && nw.Sim.IsCrashed(v) {
			return fmt.Errorf("%d->%d: path visits crashed node %d", s, t, v)
		}
		if i > 0 && !nw.LDel.HasEdge(path[i-1], v) {
			return fmt.Errorf("%d->%d: hop %d->%d is not an LDel² edge", s, t, path[i-1], v)
		}
	}
	return nil
}

// pathLen is the Euclidean length of a node path.
func pathLen(g *udg.Graph, path []sim.NodeID) float64 {
	l := 0.0
	for i := 1; i < len(path); i++ {
		l += g.Point(path[i-1]).Dist(g.Point(path[i]))
	}
	return l
}

// lenRatio is path length over the straight-line distance |st|.
func lenRatio(g *udg.Graph, s, t sim.NodeID, path []sim.NodeID) float64 {
	return pathLen(g, path) / g.Point(s).Dist(g.Point(t))
}
