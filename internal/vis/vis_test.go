package vis

import (
	"math"
	"math/rand"
	"slices"
	"sync"
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

// BenchmarkOverlayQueryTargets plans over BenchmarkOverlayQuery's overlay
// from 8 fixed sources on the layout's border, each to a rotating set of 64
// distinct targets, so every op tests a new target's legs while the
// sources' corner rows are shared, as a hit node's are across queries.
func BenchmarkOverlayQueryTargets(b *testing.B) {
	var hulls [][]geom.Point
	for i := 0; i < 25; i++ {
		hulls = append(hulls, square(2+float64(i%5)*10, 2+float64(i/5)*10, 1))
	}
	o := NewOverlay(hulls)
	sources := []geom.Point{
		geom.Pt(0, 0), geom.Pt(23, 0), geom.Pt(46, 0), geom.Pt(46, 23),
		geom.Pt(46, 46), geom.Pt(23, 46), geom.Pt(0, 46), geom.Pt(0, 23),
	}
	rng := rand.New(rand.NewSource(3))
	var targets []geom.Point
	for len(targets) < 64 {
		if p := geom.Pt(rng.Float64()*46, rng.Float64()*46); !o.PointInObstacle(p) {
			targets = append(targets, p)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.ShortestPath(sources[i%len(sources)], targets[i/len(sources)%len(targets)])
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

// seenRows returns the number of source rows in d's seen memo.
func seenRows(d *Domain) int {
	n := 0
	d.seen.Range(func(_, _ any) bool { n++; return true })
	return n
}

// TestSeenRowOncePerSource pins the seen memo's growth: a plan whose source
// sees its target adds no row, two plans from one source add one, each
// further source adds one, and a new domain over the same obstacles starts
// empty.
func TestSeenRowOncePerSource(t *testing.T) {
	obstacles := [][]geom.Point{square(5, 5, 1), square(9, 5, 1)}
	d := NewDomain(obstacles)
	o := NewOverlay(obstacles)
	for _, c := range []struct {
		name  string
		d     *Domain
		route func(s, t geom.Point) ([]geom.Point, float64, bool)
	}{
		{"Domain", d, d.ShortestPath},
		{"Overlay", o.domain, o.ShortestPath},
	} {
		s := geom.Pt(0, 5)
		if _, _, ok := c.route(s, geom.Pt(0, 9)); !ok || seenRows(c.d) != 0 {
			t.Fatalf("%s: a direct plan left %d rows", c.name, seenRows(c.d))
		}
		for _, e := range []geom.Point{geom.Pt(12, 5), geom.Pt(7, 5.5)} {
			if _, _, ok := c.route(s, e); !ok {
				t.Fatalf("%s: no path from %v to %v", c.name, s, e)
			}
		}
		if got := seenRows(c.d); got != 1 {
			t.Fatalf("%s: two plans from one source left %d rows, want 1", c.name, got)
		}
		c.route(geom.Pt(12, 5), s)
		if got := seenRows(c.d); got != 2 {
			t.Fatalf("%s: a second source left %d rows, want 2", c.name, got)
		}
	}
	if got := seenRows(NewDomain(obstacles)); got != 0 {
		t.Fatalf("a new domain starts with %d rows", got)
	}
}

// TestSeenRowsConcurrent plans from shared sources on 8 goroutines over one
// Domain and one Overlay, which fill and read the seen memo concurrently;
// every answer must equal (==) the sequential answer of a separate domain
// and overlay over the same hulls.
func TestSeenRowsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var hulls [][]geom.Point
	for cell := 0; cell < 16; cell++ {
		x0, y0 := float64(cell%4)*10+1, float64(cell/4)*10+1
		pts := make([]geom.Point, 3+rng.Intn(8))
		for i := range pts {
			pts[i] = geom.Pt(x0+rng.Float64()*8, y0+rng.Float64()*8)
		}
		if h := geom.ConvexHull(pts); len(h) >= 3 {
			hulls = append(hulls, h)
		}
	}
	point := func() geom.Point { return geom.Pt(rng.Float64()*40, rng.Float64()*40) }
	var sources, targets []geom.Point
	for i := 0; i < 4; i++ {
		sources = append(sources, point())
	}
	for i := 0; i < 24; i++ {
		targets = append(targets, point())
	}
	type answer struct {
		path   []geom.Point
		length float64
		ok     bool
	}
	type planner func(s, t geom.Point) ([]geom.Point, float64, bool)
	// plan answers every (source, target) pair, starting at pair k, over
	// the given planners, at a fixed index per pair and planner.
	plan := func(k int, planners []planner, out []answer) {
		pairs := len(sources) * len(targets)
		for n := 0; n < pairs; n++ {
			p := (k + n) % pairs
			s, e := sources[p/len(targets)], targets[p%len(targets)]
			for j, f := range planners {
				a := &out[p*len(planners)+j]
				a.path, a.length, a.ok = f(s, e)
			}
		}
	}
	seqD, seqO := NewDomain(hulls), NewOverlay(hulls)
	want := make([]answer, 2*len(sources)*len(targets))
	plan(0, []planner{seqD.ShortestPath, seqO.ShortestPath}, want)

	d, o := NewDomain(hulls), NewOverlay(hulls)
	got := make([][]answer, 8)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]answer, len(want))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			plan(g*13, []planner{d.ShortestPath, o.ShortestPath}, got[g])
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i, a := range got[g] {
			w := want[i]
			if a.ok != w.ok || a.length != w.length || !slices.Equal(a.path, w.path) {
				t.Fatalf("goroutine %d answer %d = %v %v %v, sequential %v %v %v", g, i, a.path, a.length, a.ok, w.path, w.length, w.ok)
			}
		}
	}
	if rows := seenRows(d); rows == 0 || rows > len(sources) {
		t.Fatalf("domain memo has %d rows for %d sources", rows, len(sources))
	}
}
