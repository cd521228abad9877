package routing

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
	"hybridroute/internal/workload"
)

// scanCorridor is the differential reference for the corridor walk: it tests
// segment st against every bounded face of gbar, records the parameter at
// which st first runs through the face's interior, and orders the faces by
// that parameter (ties by index) — the geometric definition the walk must
// reproduce, at O(#faces) per query. Crossing parameters and interior tests
// are exact rationals: a float version needs a boundary tolerance, and with
// one it drops sliver faces where st passes within ~1e-9 of a vertex.
func scanCorridor(r *Router, s, t NodeID) []int {
	L := geom.Seg(r.g.Point(s), r.g.Point(t))
	a, dir := ratOf(L.A), ratSub(ratOf(L.B), ratOf(L.A))
	lbox := geom.BoundingBox([]geom.Point{L.A, L.B})
	entries := map[int]*big.Rat{}
	for fi, f := range r.faces {
		if fi == r.outer {
			continue
		}
		poly := f.Polygon(r.gbar)
		if fbox := geom.BoundingBox(poly); fbox.Min.X > lbox.Max.X || fbox.Max.X < lbox.Min.X ||
			fbox.Min.Y > lbox.Max.Y || fbox.Max.Y < lbox.Min.Y {
			continue // disjoint boxes: st cannot meet the face
		}
		n := len(poly)
		var params []*big.Rat
		for j := 0; j < n; j++ {
			e := geom.Seg(poly[j], poly[(j+1)%n])
			if geom.SegmentsProperlyIntersect(L, e) {
				// L.A + u·dir meets the supporting line of e.
				ea, q := ratOf(e.A), ratSub(ratOf(e.B), ratOf(e.A))
				params = append(params, new(big.Rat).Quo(ratCross(ratSub(ea, a), q), ratCross(dir, q)))
			}
			if geom.OnSegment(poly[j], L) {
				params = append(params, new(big.Rat).Quo(ratDot(ratSub(ratOf(poly[j]), a), dir), ratDot(dir, dir)))
			}
		}
		slices.SortFunc(params, (*big.Rat).Cmp)
		var rpoly []ratPt
		if len(params) >= 2 {
			for _, p := range poly {
				rpoly = append(rpoly, ratOf(p))
			}
		}
		for j := 0; j+1 < len(params); j++ {
			if params[j].Cmp(params[j+1]) == 0 {
				continue
			}
			mid := new(big.Rat).Add(params[j], params[j+1])
			mid.Quo(mid, big.NewRat(2, 1))
			if ratStrictlyInside(ratAdd(a, ratScale(dir, mid)), rpoly) {
				entries[fi] = params[j]
				break
			}
		}
	}
	faces := make([]int, 0, len(entries))
	for f := range entries {
		faces = append(faces, f)
	}
	sort.Slice(faces, func(i, j int) bool {
		if c := entries[faces[i]].Cmp(entries[faces[j]]); c != 0 {
			return c < 0
		}
		return faces[i] < faces[j]
	})
	return faces
}

// ratPt is a point with exact rational coordinates.
type ratPt struct{ x, y *big.Rat }

func ratOf(p geom.Point) ratPt {
	return ratPt{new(big.Rat).SetFloat64(p.X), new(big.Rat).SetFloat64(p.Y)}
}

func ratSub(p, q ratPt) ratPt {
	return ratPt{new(big.Rat).Sub(p.x, q.x), new(big.Rat).Sub(p.y, q.y)}
}

func ratAdd(p, q ratPt) ratPt {
	return ratPt{new(big.Rat).Add(p.x, q.x), new(big.Rat).Add(p.y, q.y)}
}

func ratScale(p ratPt, k *big.Rat) ratPt {
	return ratPt{new(big.Rat).Mul(p.x, k), new(big.Rat).Mul(p.y, k)}
}

func ratCross(p, q ratPt) *big.Rat {
	return new(big.Rat).Sub(new(big.Rat).Mul(p.x, q.y), new(big.Rat).Mul(p.y, q.x))
}

func ratDot(p, q ratPt) *big.Rat {
	return new(big.Rat).Add(new(big.Rat).Mul(p.x, q.x), new(big.Rat).Mul(p.y, q.y))
}

// ratStrictlyInside reports whether m lies in the interior of the face
// boundary walk poly: on no boundary edge, and inside by the even-odd rule
// (an edge walked twice, as dangling edges are, cancels out).
func ratStrictlyInside(m ratPt, poly []ratPt) bool {
	inside := false
	for i, p := range poly {
		q := poly[(i+1)%len(poly)]
		side := ratCross(ratSub(q, p), ratSub(m, p)).Sign()
		if side == 0 && ratDot(ratSub(p, m), ratSub(q, m)).Sign() <= 0 {
			return false // on the closed edge
		}
		if (p.y.Cmp(m.y) > 0) != (q.y.Cmp(m.y) > 0) {
			// The rightward ray from m crosses the edge iff m lies left of
			// the edge directed upward.
			if up := q.y.Cmp(p.y) > 0; (side > 0) == up {
				inside = !inside
			}
		}
	}
	return inside
}

// floatScanCorridor is the same scan in float64, as the corridor was
// computed before the walk: crossing parameters rounded, a 1e-12 gap and a
// 1e-9 boundary tolerance. It is a fast first comparison only; it may
// disagree with the exact scan near degeneracies.
func floatScanCorridor(r *Router, s, t NodeID) []int {
	L := geom.Seg(r.g.Point(s), r.g.Point(t))
	lbox := geom.BoundingBox([]geom.Point{L.A, L.B})
	dir := L.B.Sub(L.A)
	len2 := dir.Dot(dir)
	paramOf := func(p geom.Point) float64 {
		return math.Max(0, math.Min(1, p.Sub(L.A).Dot(dir)/len2))
	}
	entries := map[int]float64{}
	for fi, f := range r.faces {
		if fi == r.outer {
			continue
		}
		poly := f.Polygon(r.gbar)
		if fbox := geom.BoundingBox(poly); fbox.Min.X > lbox.Max.X || fbox.Max.X < lbox.Min.X ||
			fbox.Min.Y > lbox.Max.Y || fbox.Max.Y < lbox.Min.Y {
			continue
		}
		var params []float64
		for j := range poly {
			e := geom.Seg(poly[j], poly[(j+1)%len(poly)])
			if geom.SegmentsProperlyIntersect(L, e) {
				if x, ok := geom.SegmentIntersection(L, e); ok {
					params = append(params, paramOf(x))
				}
			}
			if geom.OnSegment(poly[j], L) {
				params = append(params, paramOf(poly[j]))
			}
		}
		sort.Float64s(params)
		for j := 0; j+1 < len(params); j++ {
			if params[j+1]-params[j] < 1e-12 {
				continue
			}
			if geom.PointStrictlyInSimple(geom.Lerp(L.A, L.B, (params[j]+params[j+1])/2), poly) {
				entries[fi] = params[j]
				break
			}
		}
	}
	faces := make([]int, 0, len(entries))
	for f := range entries {
		faces = append(faces, f)
	}
	sort.Slice(faces, func(i, j int) bool {
		if entries[faces[i]] != entries[faces[j]] {
			return entries[faces[i]] < entries[faces[j]]
		}
		return faces[i] < faces[j]
	})
	return faces
}

// cutCorridor cuts a reference corridor at its first non-triangle face, the
// only part of it Chew's algorithm reads.
func cutCorridor(r *Router, corridor []int) (prefix []int, holeFace int) {
	for i, f := range corridor {
		if !r.IsTriangleFace(f) {
			return corridor[:i], f
		}
	}
	return corridor, -1
}

// walkMismatches compares the walk with the exact reference scan on the
// given pairs and reports each disagreement, up to a few. With quick set, a
// pair on which the walk already equals the float scan is taken as agreeing
// (the two are computed independently), so only disagreements pay for the
// exact scan.
func walkMismatches(t *testing.T, name string, r *Router, pairs [][2]NodeID, quick bool) {
	t.Helper()
	bad := 0
	for _, p := range pairs {
		s, d := p[0], p[1]
		if s == d || r.g.HasEdge(s, d) || r.gbar.Degree(s) == 0 || r.gbar.Degree(d) == 0 {
			continue // Chew answers these without a corridor
		}
		gotP, gotH := r.walk(s, d)
		if quick {
			if fp, fh := cutCorridor(r, floatScanCorridor(r, s, d)); fh == gotH && slices.Equal(fp, gotP) {
				continue
			}
		}
		wantP, wantH := cutCorridor(r, scanCorridor(r, s, d))
		if gotH != wantH || !slices.Equal(gotP, wantP) {
			if bad++; bad <= 3 {
				t.Errorf("%s: %d→%d: walk %v / hole %d, scan %v / hole %d",
					name, s, d, gotP, gotH, wantP, wantH)
			}
		}
	}
	if bad > 3 {
		t.Errorf("%s: %d mismatches of %d pairs", name, bad, len(pairs))
	}
}

// componentRouter builds LDel² and the router over the largest connected
// component of the unit disk graph on pts.
func componentRouter(pts []geom.Point, radius float64) *Router {
	g := udg.Build(pts, radius)
	comp := g.LargestComponent()
	if len(comp) < g.N() {
		sub := make([]geom.Point, len(comp))
		for i, v := range comp {
			sub[i] = g.Point(v)
		}
		g = udg.Build(sub, radius)
	}
	return New(delaunay.LDelK(g, 2))
}

// lattice returns the exact w×h lattice with the given spacing, minus the
// points strictly inside hole (when non-nil).
func lattice(w, h int, spacing float64, hole []geom.Point) []geom.Point {
	var pts []geom.Point
	for i := 0; i <= w; i++ {
		for j := 0; j <= h; j++ {
			p := geom.Pt(float64(i)*spacing, float64(j)*spacing)
			if hole != nil && geom.PointStrictlyInConvex(p, hole) {
				continue
			}
			pts = append(pts, p)
		}
	}
	return pts
}

func randomPairs(rng *rand.Rand, n, count int) [][2]NodeID {
	pairs := make([][2]NodeID, count)
	for i := range pairs {
		pairs[i] = [2]NodeID{NodeID(rng.Intn(n)), NodeID(rng.Intn(n))}
	}
	return pairs
}

func allPairs(n int) [][2]NodeID {
	var pairs [][2]NodeID
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			pairs = append(pairs, [2]NodeID{NodeID(s), NodeID(d)})
		}
	}
	return pairs
}

// TestWalkMatchesScan checks the corridor walk against the full-scan
// reference on jittered grids with and without a hole, exact lattices with
// cocircular quads, an exact-border grid with a hole, a grid with crashed
// nodes and random deployments. LDel² of an exact lattice keeps both
// diagonals of every cell, so those two fixtures are not plane; the walk and
// the scan agree on them all the same.
func TestWalkMatchesScan(t *testing.T) {
	type fixture struct {
		name string
		r    func(t *testing.T) *Router
	}
	fixtures := []fixture{
		{"jittered-grid", func(t *testing.T) *Router { _, r, _ := buildScenario(t, 0.55, 6, 6, 0); return r }},
		{"jittered-grid-hole", func(t *testing.T) *Router { _, r, _ := buildScenario(t, 0.55, 8, 8, 2.0); return r }},
		{"lattice", func(t *testing.T) *Router { return componentRouter(lattice(12, 12, 0.5, nil), 1) }},
		{"lattice-hole", func(t *testing.T) *Router {
			return componentRouter(lattice(14, 14, 0.5, workload.Rect(2.2, 2.2, 2.6, 2.6)), 1)
		}},
		{"bordered-grid-hole", func(t *testing.T) *Router {
			sc, err := workload.BorderedGrid(0.55, 8, 8, 1, [][]geom.Point{workload.RegularPolygon(geom.Pt(4, 4), 1.6, 6, 0.2)})
			if err != nil {
				t.Fatal(err)
			}
			return New(delaunay.LDelK(sc.Build(), 2))
		}},
		{"crashed-nodes", func(t *testing.T) *Router {
			// Churn repair routes over LDel² with crashed nodes' edges
			// removed: the walk passes the isolated nodes' hole faces.
			_, r, _ := buildScenario(t, 0.55, 6, 6, 0)
			live := r.g.Clone()
			for v := 3; v < live.N(); v += 9 {
				live.RemoveNodeEdges(NodeID(v))
			}
			return New(live)
		}},
	}
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		fixtures = append(fixtures, fixture{"uniform", func(t *testing.T) *Router {
			sc, err := workload.Uniform(seed, 220, 7, 7, 1)
			if err != nil {
				t.Fatal(err)
			}
			return New(delaunay.LDelK(sc.Build(), 2))
		}})
	}
	pairs := 400
	if testing.Short() {
		pairs = 100
	}
	for i, f := range fixtures {
		r := f.r(t)
		rng := rand.New(rand.NewSource(int64(i + 1)))
		walkMismatches(t, f.name, r, randomPairs(rng, r.g.N(), pairs), false)
	}
}

// planeGraph reports whether g is a plane straight-line embedding: no two
// edges cross and no node lies inside an edge. The walk and the reference
// both need it; LDel² breaks it on exact cocircular lattices (both
// diagonals of a cell) and on stacks of near-duplicate points.
func planeGraph(g *delaunay.PlanarGraph) bool {
	es := g.Edges()
	seg := func(e [2]int) geom.Segment {
		return geom.Seg(g.Point(NodeID(e[0])), g.Point(NodeID(e[1])))
	}
	for i, e := range es {
		for _, f := range es[i+1:] {
			if geom.SegmentsProperlyIntersect(seg(e), seg(f)) {
				return false
			}
		}
		for v := 0; v < g.N(); v++ {
			if v != e[0] && v != e[1] && geom.OnSegment(g.Point(NodeID(v)), seg(e)) {
				return false
			}
		}
	}
	return true
}

// FuzzChewWalk decodes a small point set — up to 32 points of four bytes each: lattice
// coordinates on a 0.5 grid and two signed offsets of up to ~1.3e-9, so
// exact lattices, collinear runs and near-duplicate points are all
// reachable — builds LDel² over its largest unit-disk component and requires
// the corridor walk to equal the full-scan reference for every pair. Where
// LDel² is not plane, Chew only has to end without panicking.
func FuzzChewWalk(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var pts []geom.Point
		seen := map[geom.Point]bool{}
		for i := 0; i+3 < len(data) && len(pts) < 32; i += 4 {
			p := geom.Pt(float64(data[i]%16)*0.5+float64(int8(data[i+2]))*1e-11,
				float64(data[i+1]%16)*0.5+float64(int8(data[i+3]))*1e-11)
			if !seen[p] {
				seen[p] = true
				pts = append(pts, p)
			}
		}
		if len(pts) < 3 {
			t.Skip()
		}
		r := componentRouter(pts, 1)
		if !planeGraph(r.g) {
			// No face structure to compare against: Chew only has to end.
			for _, p := range allPairs(r.g.N()) {
				r.Chew(p[0], p[1])
			}
			return
		}
		walkMismatches(t, "fuzz", r, allPairs(r.g.N()), true)
	})
}

// TestChewIsolatedEndpoint pins Chew's answer for a node without edges (a
// crashed node under churn): no corridor leads from or to it, so Chew
// returns the flagged fallback, which cannot reach it either.
func TestChewIsolatedEndpoint(t *testing.T) {
	_, r, _ := buildScenario(t, 0.55, 6, 6, 0)
	live := r.g.Clone()
	dead := NodeID(60)
	live.RemoveNodeEdges(dead)
	r = New(live)
	for _, p := range [][2]NodeID{{0, dead}, {dead, 0}} {
		res := r.Chew(p[0], p[1])
		if res.Reached || res.HoleHit || !res.Fallback || !res.Stuck {
			t.Fatalf("Chew %d→%d with %d isolated: %+v, want an unreached flagged fallback", p[0], p[1], dead, res)
		}
	}
}
