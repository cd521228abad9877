package geom

import (
	"math"
	"testing"
)

// FuzzConvexHull checks hull invariants on arbitrary coordinate streams:
// the hull is convex, contains every input point, and is idempotent, and
// HullBoundary walks it through every input point on its boundary.
func FuzzConvexHull(f *testing.F) {
	f.Add(0.0, 0.0, 1.0, 0.0, 0.5, 1.0, 0.5, 0.5)
	f.Add(1.5, 2.5, -3.0, 4.0, 0.0, 0.0, 7.25, -1.5)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0) // all duplicates
	f.Add(1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0) // collinear
	f.Fuzz(func(t *testing.T, x1, y1, x2, y2, x3, y3, x4, y4 float64) {
		coords := []float64{x1, y1, x2, y2, x3, y3, x4, y4}
		pts := make([]Point, 0, 4)
		for i := 0; i+1 < len(coords); i += 2 {
			x, y := coords[i], coords[i+1]
			if math.IsNaN(x) || math.IsNaN(y) || math.Abs(x) > 1e12 || math.Abs(y) > 1e12 {
				t.Skip()
			}
			pts = append(pts, Pt(x, y))
		}
		hull := ConvexHull(pts)
		if len(hull) >= 3 {
			if !IsConvexCCW(hull) {
				t.Fatalf("hull not convex CCW: %v", hull)
			}
			for _, p := range pts {
				if !PointInConvex(p, hull) {
					t.Fatalf("input %v escapes hull %v", p, hull)
				}
			}
		}
		again := ConvexHull(hull)
		if len(again) != len(hull) {
			t.Fatalf("hull not idempotent: %d -> %d", len(hull), len(again))
		}
		checkHullBoundary(t, pts)
	})
}

// FuzzSegmentPredicates cross-checks the segment intersection predicates:
// a proper intersection implies a closed intersection, and the intersection
// point (when the predicate holds) lies on both segments. It also requires
// the box-first OnSegment, SegmentsProperlyIntersect and
// PointStrictlyInSimple to equal their orientation-first formulas, and the
// one-pass PointInPolygon to equal its two-pass formula.
func FuzzSegmentPredicates(f *testing.F) {
	f.Add(0.0, 0.0, 2.0, 2.0, 0.0, 2.0, 2.0, 0.0)
	f.Add(0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0)
	f.Add(0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 0.0)   // boxes touch at a corner
	f.Add(0.0, 0.0, 2.0, 0.0, 1.0, 0.0, 3.0, 0.0)   // collinear overlap
	f.Add(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 2.0, 2.0)   // zero length, on the other
	f.Add(0.0, 0.0, 4.0, 0.0, 2.0, 3.0, 2.0, 0.0)   // touching at an endpoint
	f.Add(0.0, 0.0, 4.0, 0.25, 0.0, 0.25, 4.0, 0.0) // a flat crossing in a thin box overlap
	f.Add(0.0, 0.0, 1.0, 0.0, 2.0, -72.0, 3.0, 0.0) // points on the quadrilateral's closing edge
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.IsNaN(v) || math.Abs(v) > 1e9 {
				t.Skip()
			}
		}
		s1 := Seg(Pt(ax, ay), Pt(bx, by))
		s2 := Seg(Pt(cx, cy), Pt(dx, dy))
		checkBoxFirst(t, s1, s2)
		checkPointInPolygon(t, s1, s2)
		proper := SegmentsProperlyIntersect(s1, s2)
		closed := SegmentsIntersect(s1, s2)
		if proper && !closed {
			t.Fatal("proper intersection must imply closed intersection")
		}
		if proper {
			x, ok := SegmentIntersection(s1, s2)
			if !ok {
				t.Fatal("crossing segments must have an intersection point")
			}
			slack := 1e-6 * (1 + s1.Length() + s2.Length())
			if s1.A.Dist(x)+x.Dist(s1.B) > s1.Length()+slack {
				t.Fatalf("intersection %v off segment %v", x, s1)
			}
		}
	})
}

// checkBoxFirst requires the box-first predicates to equal the
// orientation-first formulas they replaced. The box reject in
// SegmentsProperlyIntersect is exact only while Orient is, so the inputs are
// snapped to a 2⁻²⁰ grid first: differences of coordinates of at most 1e9
// then fit a float64 and their products fit orientExact's 200 bits.
func checkBoxFirst(t *testing.T, s1, s2 Segment) {
	t.Helper()
	snap := func(p Point) Point {
		return Pt(math.Round(p.X*0x1p20)/0x1p20, math.Round(p.Y*0x1p20)/0x1p20)
	}
	a, b, c, d := snap(s1.A), snap(s1.B), snap(s2.A), snap(s2.B)
	s1, s2 = Seg(a, b), Seg(c, d)
	for _, st := range [][2]Segment{{s1, s2}, {s2, s1}} {
		if got, want := SegmentsProperlyIntersect(st[0], st[1]), properlyIntersectOrientFirst(st[0], st[1]); got != want {
			t.Fatalf("SegmentsProperlyIntersect(%v, %v) = %v, orientation-first %v", st[0], st[1], got, want)
		}
	}
	for _, ps := range []struct {
		p Point
		s Segment
	}{{c, s1}, {d, s1}, {a, s2}, {b, s2}, {Midpoint(a, b), s2}} {
		if got, want := OnSegment(ps.p, ps.s), onSegmentOrientFirst(ps.p, ps.s); got != want {
			t.Fatalf("OnSegment(%v, %v) = %v, orientation-first %v", ps.p, ps.s, got, want)
		}
	}
	for _, poly := range [][]Point{{a, b, c}, {a, b, c, d}} {
		for _, p := range []Point{d, Midpoint(a, c), Midpoint(b, d)} {
			if got, want := PointStrictlyInSimple(p, poly), strictlyInSimpleDistFirst(p, poly); got != want {
				t.Fatalf("PointStrictlyInSimple(%v, %v) = %v, distances-first %v", p, poly, got, want)
			}
		}
	}
}

// checkPointInPolygon requires PointInPolygon to equal its two-pass
// formula on the triangle and quadrilateral through the segments' endpoints,
// at their corners, edge midpoints and the other points the predicates use.
func checkPointInPolygon(t *testing.T, s1, s2 Segment) {
	t.Helper()
	a, b, c, d := s1.A, s1.B, s2.A, s2.B
	for _, poly := range [][]Point{{a, b, c}, {a, b, c, d}} {
		for _, p := range []Point{a, c, d, Midpoint(a, b), Midpoint(b, c), Midpoint(a, c), Midpoint(b, d)} {
			if got, want := PointInPolygon(p, poly), pointInPolygonTwoPass(p, poly); got != want {
				t.Fatalf("PointInPolygon(%v, %v) = %v, two-pass %v", p, poly, got, want)
			}
		}
	}
}

// pointInPolygonTwoPass is PointInPolygon with the boundary test in a pass of
// its own before the crossing count.
func pointInPolygonTwoPass(p Point, poly []Point) bool {
	n := len(poly)
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		if OnSegment(p, Seg(poly[i], poly[(i+1)%n])) {
			return true
		}
	}
	inside := false
	j := n - 1
	for i := 0; i < n; i++ {
		pi, pj := poly[i], poly[j]
		if (pi.Y > p.Y) != (pj.Y > p.Y) {
			xint := (pj.X-pi.X)*(p.Y-pi.Y)/(pj.Y-pi.Y) + pi.X
			if p.X < xint {
				inside = !inside
			}
		}
		j = i
	}
	return inside
}

// properlyIntersectOrientFirst is SegmentsProperlyIntersect without its box
// reject.
func properlyIntersectOrientFirst(s, t Segment) bool {
	o1 := Orient(s.A, s.B, t.A)
	o2 := Orient(s.A, s.B, t.B)
	o3 := Orient(t.A, t.B, s.A)
	o4 := Orient(t.A, t.B, s.B)
	return o1 != o2 && o3 != o4 && o1 != Collinear && o2 != Collinear &&
		o3 != Collinear && o4 != Collinear
}

// onSegmentOrientFirst is OnSegment with the collinearity test first.
func onSegmentOrientFirst(p Point, s Segment) bool {
	if Orient(s.A, s.B, p) != Collinear {
		return false
	}
	return math.Min(s.A.X, s.B.X) <= p.X && p.X <= math.Max(s.A.X, s.B.X) &&
		math.Min(s.A.Y, s.B.Y) <= p.Y && p.Y <= math.Max(s.A.Y, s.B.Y)
}

// strictlyInSimpleDistFirst is PointStrictlyInSimple with the per-edge
// distances first, over a crossing test whose boundary check is
// onSegmentOrientFirst.
func strictlyInSimpleDistFirst(p Point, poly []Point) bool {
	n := len(poly)
	if n < 3 {
		return false
	}
	for i := 0; i < n; i++ {
		if DistPointSegment(p, poly[i], poly[(i+1)%n]) <= boundaryTol {
			return false
		}
	}
	for i := 0; i < n; i++ {
		if onSegmentOrientFirst(p, Seg(poly[i], poly[(i+1)%n])) {
			return true
		}
	}
	inside := false
	j := n - 1
	for i := 0; i < n; i++ {
		pi, pj := poly[i], poly[j]
		if (pi.Y > p.Y) != (pj.Y > p.Y) {
			xint := (pj.X-pi.X)*(p.Y-pi.Y)/(pj.Y-pi.Y) + pi.X
			if p.X < xint {
				inside = !inside
			}
		}
		j = i
	}
	return inside
}
