package udg

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hybridroute/internal/geom"
)

func linePoints(n int, spacing float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i)*spacing, 0)
	}
	return pts
}

func randomPoints(rng *rand.Rand, n int, w, h float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*w, rng.Float64()*h)
	}
	return pts
}

func TestBuildLine(t *testing.T) {
	g := Build(linePoints(5, 0.9), 1.0)
	if g.N() != 5 {
		t.Fatalf("N = %d", g.N())
	}
	for v := 0; v < 5; v++ {
		want := 2
		if v == 0 || v == 4 {
			want = 1
		}
		if g.Degree(NodeID(v)) != want {
			t.Errorf("degree(%d) = %d, want %d", v, g.Degree(NodeID(v)), want)
		}
	}
	if !g.Connected() {
		t.Error("chain should be connected")
	}
	if g.EdgeCount() != 4 {
		t.Errorf("edges = %d", g.EdgeCount())
	}
}

func TestBuildDisconnected(t *testing.T) {
	g := Build(linePoints(4, 2.0), 1.0) // spacing 2 > radius
	if g.Connected() {
		t.Error("no edges expected")
	}
	if g.EdgeCount() != 0 {
		t.Errorf("edges = %d", g.EdgeCount())
	}
	if got := g.LargestComponent(); len(got) != 1 {
		t.Errorf("largest component = %d", len(got))
	}
}

func TestBuildMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		pts := randomPoints(rng, 80, 5, 5)
		r := 0.5 + rng.Float64()
		g := Build(pts, r)
		for i := range pts {
			want := map[NodeID]bool{}
			for j := range pts {
				if i != j && pts[i].Dist(pts[j]) <= r {
					want[NodeID(j)] = true
				}
			}
			got := g.Neighbors(NodeID(i))
			if len(got) != len(want) {
				t.Fatalf("node %d: %d neighbours, want %d", i, len(got), len(want))
			}
			for _, w := range got {
				if !want[w] {
					t.Fatalf("node %d: unexpected neighbour %d", i, w)
				}
			}
		}
	}
}

// mapGrid is the hash-map cell index the CSR grid replaced: the reference
// for neighbour and box-sweep order.
type mapGrid map[[2]int][]int

func newMapGrid(pts []geom.Point, r float64) mapGrid {
	m := mapGrid{}
	for i, p := range pts {
		k := [2]int{int(math.Floor(p.X / r)), int(math.Floor(p.Y / r))}
		m[k] = append(m[k], i)
	}
	return m
}

// TestGridIndexMatchesMapReference pins the CSR grid to the map index it
// replaced, in order: every node's neighbour row (which fixes the LDel²
// input and so every routing digest) and ForNodesInBox's sweep, on a dense
// window and on far-flung clusters that take the occupied-cell layout.
func TestGridIndexMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	far := append(randomPoints(rng, 60, 4, 4), randomPoints(rng, 60, 4, 4)...)
	for i := 60; i < len(far); i++ {
		far[i] = geom.Pt(far[i].X+1e5, far[i].Y-3e4)
	}
	for name, pts := range map[string][]geom.Point{
		"dense": randomPoints(rng, 300, 9, 6),
		"far":   far,
	} {
		r := 0.7
		g := Build(pts, r)
		if sparse := g.idx.occupied != nil; sparse != (name == "far") {
			t.Fatalf("%s: occupied-cell layout = %v", name, sparse)
		}
		ref := newMapGrid(pts, r)
		for i, p := range pts {
			var want []NodeID
			k := [2]int{int(math.Floor(p.X / r)), int(math.Floor(p.Y / r))}
			for dx := -1; dx <= 1; dx++ {
				for dy := -1; dy <= 1; dy++ {
					for _, j := range ref[[2]int{k[0] + dx, k[1] + dy}] {
						if j != i && p.Dist2(pts[j]) <= r*r {
							want = append(want, NodeID(j))
						}
					}
				}
			}
			if got := g.Neighbors(NodeID(i)); !slices.Equal(got, want) {
				t.Fatalf("%s: node %d neighbours %v, map index %v", name, i, got, want)
			}
		}
		for q := 0; q < 50; q++ {
			a, b := pts[rng.Intn(len(pts))], pts[rng.Intn(len(pts))]
			lo := geom.Pt(min(a.X, b.X)-0.3, min(a.Y, b.Y)-0.3)
			hi := geom.Pt(max(a.X, b.X)+0.3, max(a.Y, b.Y)+0.3)
			if hi.X-lo.X > 50 || hi.Y-lo.Y > 50 {
				continue // a box across the far clusters sweeps ~10¹⁰ cells
			}
			var got, want []NodeID
			g.ForNodesInBox(lo, hi, func(v NodeID) { got = append(got, v) })
			for kx := int(math.Floor(lo.X / r)); kx <= int(math.Floor(hi.X/r)); kx++ {
				for ky := int(math.Floor(lo.Y / r)); ky <= int(math.Floor(hi.Y/r)); ky++ {
					for _, j := range ref[[2]int{kx, ky}] {
						want = append(want, NodeID(j))
					}
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: ForNodesInBox(%v, %v) = %v, map index %v", name, lo, hi, got, want)
			}
		}
	}
}

func TestHasEdgeSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 50, 3, 3)
	g := Build(pts, 1)
	for i := 0; i < 50; i++ {
		for j := 0; j < 50; j++ {
			if g.HasEdge(NodeID(i), NodeID(j)) != g.HasEdge(NodeID(j), NodeID(i)) {
				t.Fatalf("asymmetric edge %d-%d", i, j)
			}
		}
	}
	if g.HasEdge(3, 3) {
		t.Error("no self loops")
	}
}

func TestHopDistances(t *testing.T) {
	g := Build(linePoints(6, 1.0), 1.0)
	dist := g.HopDistances(0)
	for i, d := range dist {
		if d != i {
			t.Errorf("hop(%d) = %d", i, d)
		}
	}
	g2 := Build(linePoints(3, 5), 1)
	d2 := g2.HopDistances(0)
	if d2[1] != -1 || d2[2] != -1 {
		t.Error("unreachable should be -1")
	}
}

func TestKHopNeighborhood(t *testing.T) {
	g := Build(linePoints(7, 1.0), 1.0)
	n2 := g.KHopNeighborhood(3, 2)
	want := map[NodeID]bool{1: true, 2: true, 4: true, 5: true}
	if len(n2) != len(want) {
		t.Fatalf("2-hop size = %d (%v)", len(n2), n2)
	}
	for _, v := range n2 {
		if !want[v] {
			t.Errorf("unexpected 2-hop member %d", v)
		}
	}
	if len(g.KHopNeighborhood(0, 0)) != 0 {
		t.Error("0-hop is empty")
	}
}

func TestShortestPathLine(t *testing.T) {
	g := Build(linePoints(5, 0.8), 1.0)
	path, d, ok := g.ShortestPath(0, 4)
	if !ok {
		t.Fatal("reachable")
	}
	if len(path) < 2 || path[0] != 0 || path[len(path)-1] != 4 {
		t.Fatalf("path = %v", path)
	}
	// With spacing 0.8 and radius 1 nodes can reach only adjacent nodes, so
	// the shortest path length is 4*0.8.
	if !almostEq(d, 3.2, 1e-12) {
		t.Errorf("distance = %v", d)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := Build(linePoints(3, 5), 1)
	if _, _, ok := g.ShortestPath(0, 2); ok {
		t.Error("unreachable must report false")
	}
}

func TestShortestPathTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := randomPoints(rng, 120, 4, 4)
	g := Build(pts, 1.2)
	comp := g.LargestComponent()
	if len(comp) < 10 {
		t.Skip("component too small")
	}
	s := comp[0]
	dist := g.ShortestDistances(s)
	for _, v := range comp {
		if dist[v] < pts[s].Dist(pts[v])-1e-9 {
			t.Fatalf("graph distance %v below Euclidean %v", dist[v], pts[s].Dist(pts[v]))
		}
	}
	// Path length equals reported distance.
	for _, v := range comp[:10] {
		path, d, ok := g.ShortestPath(s, v)
		if !ok {
			t.Fatalf("unreachable %d inside component", v)
		}
		var plen float64
		for i := 1; i < len(path); i++ {
			plen += pts[path[i-1]].Dist(pts[path[i]])
		}
		if !almostEq(plen, d, 1e-9) {
			t.Fatalf("path length %v != distance %v", plen, d)
		}
	}
}

func TestShortestDistancesNonNegativeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pts := randomPoints(rng, 40, 3, 3)
		g := Build(pts, 1)
		dist := g.ShortestDistances(0)
		for _, d := range dist {
			if d < 0 {
				return false
			}
		}
		return !math.IsInf(dist[0], 1) && dist[0] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMaxDegree(t *testing.T) {
	// Star: center at origin, k points on a small circle.
	pts := []geom.Point{geom.Pt(0, 0)}
	for i := 0; i < 6; i++ {
		ang := float64(i) * math.Pi / 3
		pts = append(pts, geom.Pt(0.9*math.Cos(ang), 0.9*math.Sin(ang)))
	}
	g := Build(pts, 1)
	if g.MaxDegree() < 6 {
		t.Errorf("max degree = %d, want >= 6", g.MaxDegree())
	}
	if g.Degree(0) != 6 {
		t.Errorf("center degree = %d", g.Degree(0))
	}
}

func TestBuildPanicsOnBadRadius(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for radius 0")
		}
	}()
	Build(nil, 0)
}

func TestNegativeCoordinates(t *testing.T) {
	// The grid index must handle negative coordinates correctly.
	pts := []geom.Point{geom.Pt(-0.5, -0.5), geom.Pt(0.4, 0.4), geom.Pt(-1.4, -0.6)}
	g := Build(pts, 1.3)
	if !g.HasEdge(0, 1) {
		t.Error("edge across the origin")
	}
	if !g.HasEdge(0, 2) {
		t.Error("edge in the negative quadrant")
	}
	if g.Degree(0) != 2 {
		t.Errorf("degree = %d", g.Degree(0))
	}
}

func almostEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func BenchmarkBuild5k(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomPoints(rng, 5000, 40, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(pts, 1)
	}
}

func BenchmarkDijkstra2k(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := randomPoints(rng, 2000, 25, 25)
	g := Build(pts, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShortestDistances(0)
	}
}
