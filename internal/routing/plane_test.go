package routing

import (
	"testing"

	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
	"hybridroute/internal/workload"
)

// TestHullAugmentedIsPlane checks that overlaying CH(V) keeps gbar a plane
// embedding on a grid whose border runs exactly along the hull: no node has
// two neighbours in the same direction, every directed edge lies on exactly
// one face, and Euler's formula V − E + F = 1 + C holds.
func TestHullAugmentedIsPlane(t *testing.T) {
	sc, err := workload.BorderedGrid(0.55, 6, 6, 1, [][]geom.Point{workload.RegularPolygon(geom.Pt(3, 3), 1.3, 6, 0.2)})
	if err != nil {
		t.Fatal(err)
	}
	r := New(delaunay.LDelK(sc.Build(), 2))
	g := r.gbar

	for v := 0; v < g.N(); v++ {
		pv := g.Point(NodeID(v))
		nbrs := g.Neighbors(NodeID(v))
		for i, a := range nbrs {
			for _, b := range nbrs[i+1:] {
				pa, pb := g.Point(a), g.Point(b)
				if geom.Orient(pv, pa, pb) == geom.Collinear && pa.Sub(pv).Dot(pb.Sub(pv)) > 0 {
					t.Fatalf("node %d has neighbours %d and %d in the same direction", v, a, b)
				}
			}
		}
	}

	faces := g.Faces()
	type dedge struct{ a, b NodeID }
	onFaces := map[dedge]int{}
	for _, f := range faces {
		for i, a := range f.Cycle {
			onFaces[dedge{a, f.Cycle[(i+1)%len(f.Cycle)]}]++
		}
	}
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(NodeID(v)) {
			if n := onFaces[dedge{NodeID(v), w}]; n != 1 {
				t.Fatalf("directed edge %d→%d lies on %d faces", v, w, n)
			}
		}
	}

	components := 0
	seen := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		if seen[v] {
			continue
		}
		components++
		stack := []NodeID{NodeID(v)}
		seen[v] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(u) {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	if want := g.OuterFaceIndex(faces); r.outer != want {
		t.Fatalf("outer face %d, want the clockwise face %d", r.outer, want)
	}

	V, E, F := g.N(), g.EdgeCount(), len(faces)
	if V-E+F != 1+components {
		t.Fatalf("Euler: V − E + F = %d − %d + %d = %d, want 1 + C = %d", V, E, F, V-E+F, 1+components)
	}
}
