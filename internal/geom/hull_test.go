package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConvexHullSquare(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1), Pt(0.5, 0.5), Pt(0.25, 0.75)}
	hull := ConvexHull(pts)
	if len(hull) != 4 {
		t.Fatalf("hull size = %d, want 4: %v", len(hull), hull)
	}
	if !IsConvexCCW(hull) {
		t.Errorf("hull not convex CCW: %v", hull)
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if got := ConvexHull(nil); len(got) != 0 {
		t.Error("empty input")
	}
	if got := ConvexHull([]Point{Pt(1, 1)}); len(got) != 1 {
		t.Error("single point")
	}
	if got := ConvexHull([]Point{Pt(1, 1), Pt(1, 1), Pt(1, 1)}); len(got) != 1 {
		t.Error("duplicates collapse")
	}
	got := ConvexHull([]Point{Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(3, 3)})
	if len(got) != 2 {
		t.Errorf("collinear input should give 2 endpoints, got %v", got)
	}
}

func TestConvexHullProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		n := 3 + rng.Intn(200)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Pt(rng.Float64()*100, rng.Float64()*100)
		}
		hull := ConvexHull(pts)
		if len(hull) < 3 {
			t.Fatalf("random points almost surely span 2D, hull=%v", hull)
		}
		if !IsConvexCCW(hull) {
			t.Fatalf("hull not strictly convex CCW")
		}
		for _, p := range pts {
			if !PointInConvex(p, hull) {
				t.Fatalf("input point %v outside hull", p)
			}
		}
		// Hull vertices must be input points.
		set := map[Point]bool{}
		for _, p := range pts {
			set[p] = true
		}
		for _, h := range hull {
			if !set[h] {
				t.Fatalf("hull vertex %v not an input point", h)
			}
		}
	}
}

func TestConvexHullQuick(t *testing.T) {
	f := func(raw []float64) bool {
		pts := make([]Point, 0, len(raw)/2)
		for i := 0; i+1 < len(raw); i += 2 {
			x, y := raw[i], raw[i+1]
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				return true
			}
			// Clamp magnitude so the exact fallback isn't exercised with
			// absurd exponents on every iteration.
			if math.Abs(x) > 1e9 || math.Abs(y) > 1e9 {
				return true
			}
			pts = append(pts, Pt(x, y))
		}
		hull := ConvexHull(pts)
		for _, p := range pts {
			if len(hull) >= 3 && !PointInConvex(p, hull) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHullBoundaryKeepsCollinearPoints(t *testing.T) {
	var pts []Point
	for x := 0; x <= 3; x++ {
		for y := 0; y <= 2; y++ {
			pts = append(pts, Pt(float64(x), float64(y)))
		}
	}
	got := HullBoundary(pts)
	want := []Point{Pt(0, 0), Pt(1, 0), Pt(2, 0), Pt(3, 0), Pt(3, 1), Pt(3, 2),
		Pt(2, 2), Pt(1, 2), Pt(0, 2), Pt(0, 1)}
	if len(got) != len(want) {
		t.Fatalf("boundary %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].Eq(want[i]) {
			t.Fatalf("boundary %v, want %v", got, want)
		}
	}
	// Collinear input: out along the line and back.
	line := HullBoundary([]Point{Pt(2, 2), Pt(0, 0), Pt(1, 1), Pt(3, 3)})
	wantLine := []Point{Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(3, 3), Pt(2, 2), Pt(1, 1)}
	if len(line) != len(wantLine) {
		t.Fatalf("collinear boundary %v, want %v", line, wantLine)
	}
	for i := range wantLine {
		if !line[i].Eq(wantLine[i]) {
			t.Fatalf("collinear boundary %v, want %v", line, wantLine)
		}
	}
}

// checkHullBoundary checks HullBoundary against ConvexHull: it visits the
// hull corners in order, every stop lies on the hull boundary, and no input
// point lies strictly between two consecutive stops.
func checkHullBoundary(t *testing.T, pts []Point) {
	t.Helper()
	hull := ConvexHull(pts)
	if len(hull) < 3 {
		return
	}
	b := HullBoundary(pts)
	k := 0
	for _, p := range b {
		if PointStrictlyInConvex(p, hull) || !PointInConvex(p, hull) {
			t.Fatalf("boundary stop %v is not on hull %v", p, hull)
		}
		if k < len(hull) && p.Eq(hull[k]) {
			k++
		}
	}
	if k != len(hull) {
		t.Fatalf("boundary %v skips corners of hull %v", b, hull)
	}
	for i := range b {
		s := Seg(b[i], b[(i+1)%len(b)])
		for _, p := range pts {
			if OnSegment(p, s) && !p.Eq(s.A) && !p.Eq(s.B) {
				t.Fatalf("input %v lies inside boundary edge %v", p, s)
			}
		}
	}
}

func TestHullBoundaryRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		pts := make([]Point, 3+rng.Intn(40))
		for i := range pts {
			// A coarse lattice makes collinear boundary runs common.
			pts[i] = Pt(float64(rng.Intn(6)), float64(rng.Intn(6)))
		}
		checkHullBoundary(t, pts)
	}
}

func TestPointInConvex(t *testing.T) {
	square := []Point{Pt(0, 0), Pt(2, 0), Pt(2, 2), Pt(0, 2)}
	if !PointInConvex(Pt(1, 1), square) {
		t.Error("interior")
	}
	if !PointInConvex(Pt(0, 1), square) {
		t.Error("boundary is inside for the closed test")
	}
	if PointInConvex(Pt(3, 1), square) {
		t.Error("exterior")
	}
	if !PointStrictlyInConvex(Pt(1, 1), square) {
		t.Error("strict interior")
	}
	if PointStrictlyInConvex(Pt(0, 1), square) {
		t.Error("boundary is not strictly inside")
	}
}

func TestPointInPolygonConcave(t *testing.T) {
	// L-shaped polygon.
	l := []Point{Pt(0, 0), Pt(4, 0), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4)}
	if !PointInPolygon(Pt(1, 1), l) {
		t.Error("inside the L")
	}
	if PointInPolygon(Pt(3, 3), l) {
		t.Error("in the notch, outside the L")
	}
	if !PointInPolygon(Pt(2, 3), l) {
		t.Error("boundary point counts as inside")
	}
	if PointStrictlyInSimple(Pt(2, 3), l) {
		t.Error("boundary point is not strictly inside")
	}
}

func TestPolygonAreaAndPerimeter(t *testing.T) {
	sq := []Point{Pt(0, 0), Pt(3, 0), Pt(3, 3), Pt(0, 3)}
	if got := PolygonArea(sq); got != 9 {
		t.Errorf("area = %v", got)
	}
	rev := []Point{Pt(0, 3), Pt(3, 3), Pt(3, 0), Pt(0, 0)}
	if got := PolygonArea(rev); got != -9 {
		t.Errorf("reversed area = %v", got)
	}
	if got := PolygonPerimeter(sq); got != 12 {
		t.Errorf("perimeter = %v", got)
	}
}

func TestSegmentIntersectsPolygon(t *testing.T) {
	sq := []Point{Pt(1, 1), Pt(3, 1), Pt(3, 3), Pt(1, 3)}
	if !SegmentIntersectsPolygon(Seg(Pt(0, 2), Pt(4, 2)), sq) {
		t.Error("segment through the square")
	}
	if SegmentIntersectsPolygon(Seg(Pt(0, 0), Pt(4, 0)), sq) {
		t.Error("segment below the square")
	}
	if SegmentIntersectsPolygon(Seg(Pt(0, 0), Pt(1, 1)), sq) {
		t.Error("segment ending at a vertex does not cross")
	}
	if !SegmentIntersectsPolygon(Seg(Pt(0, 0), Pt(2, 2)), sq) {
		t.Error("segment entering the interior")
	}
	// Diagonal passing exactly through two opposite vertices: interior.
	if !SegmentIntersectsPolygon(Seg(Pt(0, 0), Pt(4, 4)), sq) {
		t.Error("vertex-to-vertex diagonal passes inside")
	}
}

func TestLocallyConvexHull(t *testing.T) {
	// A dented square boundary: the dent vertex has a reflex walk angle and a
	// short shortcut, so it is removed; the square corners stay.
	cycle := []Point{
		Pt(0, 0), Pt(2, 0), Pt(4, 0), // bottom with midpoint
		Pt(4, 4),
		Pt(2, 3.5), // dent pointing into the hull
		Pt(0, 4),
	}
	lch := LocallyConvexHull(cycle, 10)
	for _, p := range lch {
		if p.Eq(Pt(2, 3.5)) {
			t.Errorf("dent vertex not removed: %v", lch)
		}
	}
	// With a tiny unit no shortcut is allowed, so nothing is removed.
	lch2 := LocallyConvexHull(cycle, 0.1)
	if len(lch2) != len(cycle) {
		t.Errorf("tiny unit should not remove vertices: %v", lch2)
	}
}

func TestLocallyConvexHullContainsGlobalHull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		poly := randomStarPolygon(rng, 12+rng.Intn(20))
		lch := LocallyConvexHull(poly, 100) // generous unit: removal limited only by convexity
		hull := ConvexHull(poly)
		inLCH := map[Point]bool{}
		for _, p := range lch {
			inLCH[p] = true
		}
		for _, h := range hull {
			if !inLCH[h] {
				t.Fatalf("global hull vertex %v missing from locally convex hull", h)
			}
		}
	}
}

func TestMergeHullsDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		nA, nB := 3+rng.Intn(40), 3+rng.Intn(40)
		ptsA := make([]Point, nA)
		ptsB := make([]Point, nB)
		for i := range ptsA {
			ptsA[i] = Pt(rng.Float64()*10, rng.Float64()*20)
		}
		for i := range ptsB {
			ptsB[i] = Pt(11+rng.Float64()*10, rng.Float64()*20)
		}
		hullA, hullB := ConvexHull(ptsA), ConvexHull(ptsB)
		merged := MergeHulls(hullA, hullB)

		all := append(append([]Point{}, ptsA...), ptsB...)
		want := ConvexHull(all)
		if len(merged) != len(want) {
			t.Fatalf("merged size %d want %d", len(merged), len(want))
		}
		wantSet := map[Point]bool{}
		for _, p := range want {
			wantSet[p] = true
		}
		for _, p := range merged {
			if !wantSet[p] {
				t.Fatalf("merged hull has unexpected vertex %v", p)
			}
		}
	}
}

func TestMergeHullsDegenerate(t *testing.T) {
	a := []Point{Pt(0, 0)}
	b := ConvexHull([]Point{Pt(5, 0), Pt(6, 0), Pt(5, 1)})
	m := MergeHulls(a, b)
	if !IsConvexCCW(m) && len(m) >= 3 {
		t.Errorf("degenerate merge: %v", m)
	}
	if got := MergeHulls(nil, b); len(got) != len(b) {
		t.Error("merge with empty A")
	}
	if got := MergeHulls(b, nil); len(got) != len(b) {
		t.Error("merge with empty B")
	}
}

func TestUpperLowerTangent(t *testing.T) {
	// Two unit squares, B shifted right by 3.
	a := ConvexHull([]Point{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)})
	b := ConvexHull([]Point{Pt(3, 0), Pt(4, 0), Pt(4, 1), Pt(3, 1)})
	ui, uj := UpperTangent(a, b)
	if !a[ui].Eq(Pt(1, 1)) || !b[uj].Eq(Pt(3, 1)) {
		t.Errorf("upper tangent = %v–%v", a[ui], b[uj])
	}
	li, lj := LowerTangent(a, b)
	if !a[li].Eq(Pt(1, 0)) || !b[lj].Eq(Pt(3, 0)) {
		t.Errorf("lower tangent = %v–%v", a[li], b[lj])
	}
}

func BenchmarkConvexHull1k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 1000)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*100, rng.Float64()*100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvexHull(pts)
	}
}

func BenchmarkOrient(b *testing.B) {
	p1, p2, p3 := Pt(0.1, 0.2), Pt(5.3, 7.1), Pt(2.2, 9.9)
	for i := 0; i < b.N; i++ {
		Orient(p1, p2, p3)
	}
}

func BenchmarkInCircle(b *testing.B) {
	p1, p2, p3, p4 := Pt(0.1, 0.2), Pt(5.3, 7.1), Pt(2.2, 9.9), Pt(3.0, 4.0)
	for i := 0; i < b.N; i++ {
		InCircle(p1, p2, p3, p4)
	}
}
