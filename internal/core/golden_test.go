package core

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/sim"
	"hybridroute/internal/workload"
)

// goldenHullDigest pins the hull backend's routing output to the exact
// behavior of the pre-abstraction implementation: the digest below was
// computed on the seed tree before the HoleAbstraction refactor, and the
// default (hull) backend must keep reproducing it byte for byte.
const goldenHullDigest = "ca5a5a3feb8bb502"

// goldenScenario is a fixed deployment with two separated holes (a star, so
// bay areas exist, and a polygon) — it exercises cases 1–5 plus overlay
// waypoint planning between holes.
func goldenScenario(t testing.TB) *Network {
	t.Helper()
	obstacles := [][]geom.Point{
		workload.StarPolygon(geom.Pt(3, 3.2), 1.6, 0.7, 5, 0.3),
		workload.RegularPolygon(geom.Pt(7.4, 6.8), 1.3, 6, 0.2),
	}
	sc, err := workload.JitteredGrid(0.55, 10, 10, 1, obstacles)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := Preprocess(sc.Build(), Config{Strict: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// routeDigest hashes every observable field of a deterministic batch of
// routing outcomes: case, path, waypoints and flags.
func routeDigest(nw *Network) string { return routeDigestOf(nw, nw.Route) }

// routeDigestOf is routeDigest's pair sweep over an arbitrary route function.
func routeDigestOf(nw *Network, route func(s, t sim.NodeID) Outcome) string {
	h := fnv.New64a()
	mix := func(xs ...int) {
		var buf [8]byte
		for _, x := range xs {
			for i := range buf {
				buf[i] = byte(x >> (8 * i))
			}
			h.Write(buf[:])
		}
	}
	n := nw.G.N()
	step := n/40 + 1
	for s := 0; s < n; s += step {
		for t := 0; t < n; t += step {
			out := route(sim.NodeID(s), sim.NodeID(t))
			flags := 0
			if out.Reached {
				flags |= 1
			}
			if out.Fallback {
				flags |= 2
			}
			if out.PlanFallback {
				flags |= 4
			}
			if out.HoleHit {
				flags |= 8
			}
			mix(s, t, out.Case, flags, len(out.Path), len(out.Waypoints))
			for _, v := range out.Path {
				mix(int(v))
			}
			for _, v := range out.Waypoints {
				mix(int(v))
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestHullBackendByteIdentical pins the default backend's routing output to
// the pre-refactor seed output.
func TestHullBackendByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digest scenario is not short")
	}
	nw := goldenScenario(t)
	got := routeDigest(nw)
	if got != goldenHullDigest {
		t.Fatalf("hull backend routing output drifted from the pre-refactor seed: digest %s, want %s", got, goldenHullDigest)
	}
}

// TestObstacleRoutesByteIdentical pins the three obstacle-planner variants —
// Chew to the hit node, then a shortest path over the visibility domain or
// the overlay — to their output before they were folded into one helper.
func TestObstacleRoutesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digest scenario is not short")
	}
	nw := goldenScenario(t)
	cases := []struct {
		name  string
		route func(s, t sim.NodeID) Outcome
		want  string
	}{
		{"RouteVisibility", nw.RouteVisibility, "2de868a574de7d9b"},
		{"RouteWithObstacles", func(s, t sim.NodeID) Outcome { return nw.RouteWithObstacles(s, t, nw.VisibilityDomain()) }, "2de868a574de7d9b"},
		{"RouteWithOverlay", func(s, t sim.NodeID) Outcome { return nw.RouteWithOverlay(s, t, nw.Overlay) }, "b3a06cdfb6378899"},
	}
	for _, c := range cases {
		if got := routeDigestOf(nw, c.route); got != c.want {
			t.Errorf("%s routing output drifted: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// goldenBorderedDigest pins routing on a grid whose border runs exactly
// along the convex hull (workload.BorderedGrid): there an unsplit CH(V)
// overlay overlaps the border path, and hole detection and the router's
// faces hang on how such a non-plane overlay happens to be traced. The
// digest was computed before both overlays were split at the border nodes.
const goldenBorderedDigest = "78774793e2684028"

func TestBorderedGridRoutesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digest scenario is not short")
	}
	side := 40 * 0.55
	sc, err := workload.BorderedGrid(0.55, side, side, 1, workload.RandomConvexObstacles(1, 3, side, side, 2.0, 3.5, 2.0))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := PreprocessStatic(sc.Build(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := routeDigest(nw); got != goldenBorderedDigest {
		t.Fatalf("bordered-grid routing output drifted: digest %s, want %s (%d holes)", got, goldenBorderedDigest, len(nw.Holes.Holes))
	}
}

// goldenTransportDigest pins the reliable transport's observable output —
// every TransportReport field and the error text of a fixed batch of
// deliveries under loss, static crashes, scheduled churn and Byzantine
// adversaries, planned through both the Network and the Engine — so a
// restructuring of the transport must reproduce it byte for byte.
const goldenTransportDigest = "5e67da22b6a4a89b"

// transportDigest runs the golden delivery batch on fresh copies of the
// golden scenario, once per planner, and hashes every report.
func transportDigest(t testing.TB) string {
	h := fnv.New64a()
	for _, viaEngine := range []bool{false, true} {
		nw := goldenScenario(t)
		n := nw.G.N()
		var pairs [][2]sim.NodeID
		var endpoints []sim.NodeID
		for i := 0; i < 12; i++ {
			s, d := sim.NodeID((i*37+5)%n), sim.NodeID((i*101+n/2)%n)
			if s == d {
				continue
			}
			pairs = append(pairs, [2]sim.NodeID{s, d})
			endpoints = append(endpoints, s, d)
		}
		protected := make(map[sim.NodeID]bool, len(endpoints))
		for _, v := range endpoints {
			protected[v] = true
		}
		var crashed []sim.NodeID
		for v := sim.NodeID(n / 3); len(crashed) < 3; v += 17 {
			if !protected[v%sim.NodeID(n)] {
				crashed = append(crashed, v%sim.NodeID(n))
			}
		}
		eng := NewEngine(nw, EngineConfig{Workers: 1})
		deliver := func(s, d sim.NodeID, opt TransportOptions) {
			var rep *TransportReport
			var err error
			if viaEngine {
				rep, err = eng.RouteOnSimOpt(s, d, opt)
			} else {
				rep, err = nw.RouteOnSimOpt(s, d, opt)
			}
			fmt.Fprintf(h, "%v %d %d %+v %v\n", viaEngine, s, d, *rep, err)
		}
		// Lossless and forced-reliable deliveries on the clean network.
		for _, p := range pairs[:3] {
			deliver(p[0], p[1], TransportOptions{PayloadWords: 16})
			deliver(p[0], p[1], TransportOptions{PayloadWords: 16, Reliable: true})
		}
		// Loss, static crashes and churn; then the same plus adversaries,
		// which engages verified delivery.
		cfg := sim.FaultConfig{
			AdHocLoss: 0.05,
			Seed:      19,
			Crashed:   crashed,
			Churn:     sim.GenerateChurn(23, n, 3000, 8, 200, append(endpoints, crashed...)),
		}
		for _, adv := range []bool{false, true} {
			if adv {
				cfg.Adversary = sim.AdversaryConfig{Fraction: 0.20, Behaviors: sim.AdvAll, Exempt: endpoints}
			}
			if err := nw.Sim.SetFaults(cfg); err != nil {
				t.Fatal(err)
			}
			for _, p := range pairs {
				deliver(p[0], p[1], TransportOptions{PayloadWords: 32})
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestTransportGoldenDigest pins the reliable transport's reports to the
// digest recorded before its restructuring.
func TestTransportGoldenDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("golden transport batch is not short")
	}
	if got := transportDigest(t); got != goldenTransportDigest {
		t.Fatalf("transport reports drifted from the recorded batch: digest %s, want %s", got, goldenTransportDigest)
	}
}

// TestExitPlanSearchMatchesShortestPath requires the exit plan's
// one-source search to answer exactly as one ShortestPath per target: from
// every node inside each group's merged hull of goldenScenario, and from
// every corner of that hull, to every corner of that hull.
func TestExitPlanSearchMatchesShortestPath(t *testing.T) {
	if testing.Short() {
		t.Skip("golden digest scenario is not short")
	}
	nw := goldenScenario(t)
	inner := 0
	for gi, grp := range nw.Groups {
		dom := nw.groupDomain(gi)
		sources := append([]geom.Point(nil), grp.Hull...)
		for v := 0; v < nw.G.N(); v++ {
			if p := nw.G.Point(sim.NodeID(v)); nw.groupAt(p) == gi {
				sources = append(sources, p)
				inner++
			}
		}
		for _, s := range sources {
			for k, p := range dom.ShortestPathsFrom(s, grp.Hull) {
				path, length, ok := dom.ShortestPath(s, grp.Hull[k])
				if p.OK != ok || p.Length != length || !slices.Equal(p.Points, path) {
					t.Fatalf("group %d: ShortestPathsFrom(%v) to corner %v = %v %v %v, ShortestPath %v %v %v",
						gi, s, grp.Hull[k], p.Points, p.Length, p.OK, path, length, ok)
				}
			}
		}
	}
	if inner == 0 {
		t.Fatal("no node lies inside a merged hull")
	}
}
