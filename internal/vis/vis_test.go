package vis

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hybridroute/internal/geom"
)

func square(cx, cy, half float64) []geom.Point {
	return []geom.Point{
		geom.Pt(cx-half, cy-half), geom.Pt(cx+half, cy-half),
		geom.Pt(cx+half, cy+half), geom.Pt(cx-half, cy+half),
	}
}

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestVisibleAroundSquare(t *testing.T) {
	d := NewDomain([][]geom.Point{square(5, 5, 1)})
	if d.Visible(geom.Pt(0, 5), geom.Pt(10, 5)) {
		t.Error("segment through the square must be blocked")
	}
	if !d.Visible(geom.Pt(0, 0), geom.Pt(10, 0)) {
		t.Error("segment below the square is visible")
	}
	if !d.Visible(geom.Pt(4, 4), geom.Pt(6, 4)) {
		t.Error("segment along the bottom edge is visible")
	}
	if !d.Visible(geom.Pt(0, 0), geom.Pt(4, 4)) {
		t.Error("segment ending at a corner is visible")
	}
}

func TestShortestPathDirect(t *testing.T) {
	d := NewDomain([][]geom.Point{square(5, 5, 1)})
	path, dist, ok := d.ShortestPath(geom.Pt(0, 0), geom.Pt(10, 0))
	if !ok || len(path) != 2 || !almostEq(dist, 10, 1e-12) {
		t.Fatalf("direct path: %v %v %v", path, dist, ok)
	}
}

func TestShortestPathAroundSquare(t *testing.T) {
	d := NewDomain([][]geom.Point{square(5, 5, 1)})
	s, tt := geom.Pt(0, 5), geom.Pt(10, 5)
	path, dist, ok := d.ShortestPath(s, tt)
	if !ok {
		t.Fatal("path must exist")
	}
	// Optimal: to a corner (4,4), along to (6,4), then to target (or the
	// symmetric top route): 2*sqrt(17) + 2.
	want := 2*math.Sqrt(17) + 2
	if !almostEq(dist, want, 1e-9) {
		t.Fatalf("dist = %v, want %v (path %v)", dist, want, path)
	}
	if len(path) != 4 {
		t.Fatalf("path = %v", path)
	}
	// Interior vertices must be obstacle corners (Lemma 2.12).
	for _, p := range path[1 : len(path)-1] {
		found := false
		for _, c := range d.Corners() {
			if c.Eq(p) {
				found = true
			}
		}
		if !found {
			t.Fatalf("interior path vertex %v is not an obstacle corner", p)
		}
	}
}

func TestShortestPathTwoObstacles(t *testing.T) {
	d := NewDomain([][]geom.Point{square(3, 5, 1), square(7, 5, 1)})
	s, tt := geom.Pt(0, 5), geom.Pt(10, 5)
	path, dist, ok := d.ShortestPath(s, tt)
	if !ok {
		t.Fatal("path must exist")
	}
	if dist <= 10 {
		t.Fatalf("distance %v must exceed the blocked straight line", dist)
	}
	if got := geom.PathLength(path); !almostEq(got, dist, 1e-9) {
		t.Fatalf("path length %v != reported %v", got, dist)
	}
}

func TestShortestPathInsideObstacleFails(t *testing.T) {
	d := NewDomain([][]geom.Point{square(5, 5, 1)})
	if _, _, ok := d.ShortestPath(geom.Pt(5, 5), geom.Pt(0, 0)); ok {
		t.Error("source strictly inside an obstacle")
	}
	if _, _, ok := d.ShortestPath(geom.Pt(0, 0), geom.Pt(5, 5)); ok {
		t.Error("target strictly inside an obstacle")
	}
}

func TestDomainNoObstacles(t *testing.T) {
	d := NewDomain(nil)
	path, dist, ok := d.ShortestPath(geom.Pt(1, 2), geom.Pt(4, 6))
	if !ok || len(path) != 2 || !almostEq(dist, 5, 1e-12) {
		t.Fatalf("%v %v %v", path, dist, ok)
	}
	if d.CornerEdges() != 0 {
		t.Error("no corners, no edges")
	}
}

func TestOverlayEdgeCountLinear(t *testing.T) {
	// Many hulls: overlay (planar) edges must be O(corners), far below the
	// Θ(h²) of the visibility graph. This is the space reduction of §4.1.
	var hulls [][]geom.Point
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			hulls = append(hulls, square(float64(i)*10, float64(j)*10, 1))
		}
	}
	o := NewOverlay(hulls)
	corners := len(o.Corners())
	if o.EdgeCount() > 3*corners {
		t.Errorf("overlay edges %d exceed planar bound %d", o.EdgeCount(), 3*corners)
	}
	d := NewDomain(hulls)
	if d.CornerEdges() <= o.EdgeCount() {
		t.Errorf("visibility graph (%d) should be denser than overlay (%d)",
			d.CornerEdges(), o.EdgeCount())
	}
}

func TestOverlayNoEdgeThroughHull(t *testing.T) {
	hulls := [][]geom.Point{square(5, 5, 2)}
	o := NewOverlay(hulls)
	for _, e := range o.Edges() {
		a, b := o.Corners()[e[0]], o.Corners()[e[1]]
		mid := geom.Midpoint(a, b)
		if geom.PointStrictlyInSimple(mid, hulls[0]) {
			t.Fatalf("overlay edge %v-%v cuts through the hull", a, b)
		}
	}
	// The 4 boundary edges must be present; the 2 diagonals must not.
	if o.EdgeCount() != 4 {
		t.Fatalf("single square overlay has %d edges, want 4", o.EdgeCount())
	}
}

func TestOverlayShortestPathCompetitive(t *testing.T) {
	// Overlay path can be at most 1.998× the true geometric shortest path
	// (Delaunay spanning ratio; Theorem 4.8(1) without the routing factor).
	rng := rand.New(rand.NewSource(12))
	var hulls [][]geom.Point
	centers := []geom.Point{geom.Pt(4, 4), geom.Pt(10, 7), geom.Pt(6, 11), geom.Pt(13, 3)}
	for _, c := range centers {
		hulls = append(hulls, square(c.X, c.Y, 1.2))
	}
	o := NewOverlay(hulls)
	d := NewDomain(hulls)
	for trial := 0; trial < 200; trial++ {
		s := geom.Pt(rng.Float64()*16, rng.Float64()*14)
		tt := geom.Pt(rng.Float64()*16, rng.Float64()*14)
		if o.PointInObstacle(s) || o.PointInObstacle(tt) {
			continue
		}
		op, od, ok1 := o.ShortestPath(s, tt)
		vp, vd, ok2 := d.ShortestPath(s, tt)
		if !ok1 || !ok2 {
			t.Fatalf("paths must exist: %v %v", ok1, ok2)
		}
		if od < vd-1e-9 {
			t.Fatalf("overlay dist %v below visibility dist %v", od, vd)
		}
		if od > 1.998*vd+1e-9 {
			t.Fatalf("overlay stretch %v exceeds 1.998 (s=%v t=%v, op=%v vp=%v)",
				od/vd, s, tt, op, vp)
		}
	}
}

func TestOverlayVisiblePairDirect(t *testing.T) {
	o := NewOverlay([][]geom.Point{square(5, 5, 1)})
	path, dist, ok := o.ShortestPath(geom.Pt(0, 0), geom.Pt(10, 0))
	if !ok || len(path) != 2 || !almostEq(dist, 10, 1e-12) {
		t.Fatalf("%v %v %v", path, dist, ok)
	}
}

func TestOverlayEmptyHulls(t *testing.T) {
	o := NewOverlay(nil)
	_, dist, ok := o.ShortestPath(geom.Pt(0, 0), geom.Pt(3, 4))
	if !ok || !almostEq(dist, 5, 1e-12) {
		t.Fatal("free plane must route directly")
	}
}

func BenchmarkVisibilityDomain100Corners(b *testing.B) {
	var hulls [][]geom.Point
	for i := 0; i < 25; i++ {
		hulls = append(hulls, square(float64(i%5)*10, float64(i/5)*10, 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewDomain(hulls)
	}
}

func BenchmarkOverlayQuery(b *testing.B) {
	var hulls [][]geom.Point
	for i := 0; i < 25; i++ {
		hulls = append(hulls, square(2+float64(i%5)*10, 2+float64(i/5)*10, 1))
	}
	o := NewOverlay(hulls)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.ShortestPath(geom.Pt(0, 0), geom.Pt(44, 44))
	}
}

func TestAdjacentBoundaryVerticesVisible(t *testing.T) {
	// Regression: computed midpoints of boundary edges land within machine
	// epsilon of the segment; the strict-interior test must not classify
	// them as inside, or adjacent polygon vertices stop seeing each other
	// and the visibility graph shatters.
	poly := []geom.Point{
		geom.Pt(0.0001, 0), geom.Pt(1, 0.0002), geom.Pt(2, -0.0001), geom.Pt(3, 0),
		geom.Pt(3, 3), geom.Pt(0, 3),
	}
	d := NewDomain([][]geom.Point{poly})
	n := len(poly)
	for i := 0; i < n; i++ {
		a, b := poly[i], poly[(i+1)%n]
		if !d.Visible(a, b) {
			t.Fatalf("adjacent boundary vertices %v and %v must be visible", a, b)
		}
	}
	// The corner visibility graph of a single simple polygon is connected.
	if d.CornerEdges() < n {
		t.Fatalf("corner graph too sparse: %d edges for %d corners", d.CornerEdges(), n)
	}
}

// TestConvexTurn pins which obstacles get the separating-edge certificate:
// strictly convex simple polygons in either orientation, and nothing with a
// straight or reflex corner, a repeated point or a self-crossing boundary.
func TestConvexTurn(t *testing.T) {
	sq := square(0, 0, 1)
	rev := []geom.Point{sq[0], sq[3], sq[2], sq[1]}
	pentagram := []geom.Point{
		geom.Pt(4, 6), geom.Pt(2.75, 2.5), geom.Pt(6, 4.5), geom.Pt(2, 4.5), geom.Pt(5.25, 2.5),
	}
	cases := []struct {
		name string
		poly []geom.Point
		want geom.Orientation
	}{
		{"ccw square", sq, geom.CounterClockwise},
		{"ccw square rotated", append(sq[2:], sq[:2]...), geom.CounterClockwise},
		{"cw square", rev, geom.Clockwise},
		{"straight corner", []geom.Point{sq[0], geom.Pt(0, -1), sq[1], sq[2], sq[3]}, geom.Collinear},
		{"reflex corner", []geom.Point{sq[0], geom.Pt(0, -0.5), sq[1], sq[2], sq[3]}, geom.Collinear},
		{"repeated point", []geom.Point{sq[0], sq[1], sq[1], sq[2], sq[3]}, geom.Collinear},
		{"crossed square", []geom.Point{sq[0], sq[2], sq[1], sq[3]}, geom.Collinear},
		{"pentagram", pentagram, geom.Collinear},
		{"segment", sq[:2], geom.Collinear},
	}
	for _, c := range cases {
		if got := convexTurn(c.poly); got != c.want {
			t.Errorf("%s: convexTurn = %v, want %v", c.name, got, c.want)
		}
	}
	// The pentagram turns the same way at every corner: only the hull
	// comparison tells it from a convex pentagon.
	n := len(pentagram)
	for i := range pentagram {
		if o := geom.Orient(pentagram[i], pentagram[(i+1)%n], pentagram[(i+2)%n]); o != geom.Orient(pentagram[0], pentagram[1], pentagram[2]) {
			t.Fatalf("pentagram turn %d is %v", i, o)
		}
	}
}

// TestOverlayNeedsNoCornerGraph pins that NewOverlay, which indexes its
// hulls without the corner visibility graph, answers exactly as an overlay
// over a full NewDomain of the same hulls: the same edges in the same order
// and the same ShortestPath (points and length, compared with ==) on seeded
// sets of disjoint convex hulls.
func TestOverlayNeedsNoCornerGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		// One hull of 3..10 random points per occupied cell of a 4×4 grid of
		// 10×10 cells, inset so hulls in neighbouring cells stay disjoint.
		var hulls [][]geom.Point
		for cell := 0; cell < 16; cell++ {
			if rng.Intn(3) == 0 {
				continue
			}
			x0, y0 := float64(cell%4)*10+1, float64(cell/4)*10+1
			pts := make([]geom.Point, 3+rng.Intn(8))
			for i := range pts {
				pts[i] = geom.Pt(x0+rng.Float64()*8, y0+rng.Float64()*8)
			}
			if h := geom.ConvexHull(pts); len(h) >= 3 {
				hulls = append(hulls, h)
			}
		}
		got, want := NewOverlay(hulls), newOverlayOn(NewDomain(hulls), hulls)
		if got.domain.cornerAdj != nil {
			t.Fatal("NewOverlay built a corner graph")
		}
		if ge, we := got.Edges(), want.Edges(); !slices.Equal(ge, we) {
			t.Fatalf("trial %d: edges %v, full-domain overlay %v", trial, ge, we)
		}
		for q := 0; q < 20; q++ {
			s := geom.Pt(rng.Float64()*40, rng.Float64()*40)
			e := geom.Pt(rng.Float64()*40, rng.Float64()*40)
			gp, gl, gok := got.ShortestPath(s, e)
			wp, wl, wok := want.ShortestPath(s, e)
			if gok != wok || gl != wl || !slices.Equal(gp, wp) {
				t.Fatalf("trial %d: ShortestPath(%v, %v) = %v %v %v, full-domain overlay %v %v %v", trial, s, e, gp, gl, gok, wp, wl, wok)
			}
		}
	}
}
