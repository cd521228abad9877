package vis

import (
	"container/heap"
	"math"
	"slices"
	"testing"

	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
)

// refDomain is the unculled reference for Domain and Overlay: every
// visibility test loops geom.SegmentIntersectsPolygon over every obstacle,
// every inside test loops geom.PointStrictlyInSimple, and the planner copies
// a corner's adjacency to append t and pushes boxed items through
// container/heap, as the domain did before it kept obstacle boxes.
type refDomain struct {
	obstacles [][]geom.Point
	corners   []geom.Point
	cornerAdj [][]int
}

func newRefDomain(obstacles [][]geom.Point) *refDomain {
	d := &refDomain{obstacles: obstacles}
	for _, poly := range obstacles {
		d.corners = append(d.corners, poly...)
	}
	n := len(d.corners)
	d.cornerAdj = make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d.visible(d.corners[i], d.corners[j]) {
				d.cornerAdj[i] = append(d.cornerAdj[i], j)
				d.cornerAdj[j] = append(d.cornerAdj[j], i)
			}
		}
	}
	return d
}

func (d *refDomain) visible(a, b geom.Point) bool {
	for _, poly := range d.obstacles {
		if geom.SegmentIntersectsPolygon(geom.Seg(a, b), poly) {
			return false
		}
	}
	return true
}

func (d *refDomain) pointInObstacle(p geom.Point) bool {
	for _, poly := range d.obstacles {
		if geom.PointStrictlyInSimple(p, poly) {
			return true
		}
	}
	return false
}

// overlayAdj is NewOverlay's edge set under the reference visibility test.
func (d *refDomain) overlayAdj() [][]int {
	n := len(d.corners)
	adj := make([][]int, n)
	addEdge := func(i, j int) {
		for _, w := range adj[i] {
			if w == j {
				return
			}
		}
		adj[i] = append(adj[i], j)
		adj[j] = append(adj[j], i)
	}
	if n >= 3 {
		for _, e := range delaunay.Triangulate(d.corners).Edges() {
			if d.visible(d.corners[e[0]], d.corners[e[1]]) {
				addEdge(e[0], e[1])
			}
		}
	}
	base := 0
	for _, h := range d.obstacles {
		for i := range h {
			addEdge(base+i, base+(i+1)%len(h))
		}
		base += len(h)
	}
	return adj
}

func (d *refDomain) shortestPath(cornerAdj [][]int, s, t geom.Point) ([]geom.Point, float64, bool) {
	if d.pointInObstacle(s) || d.pointInObstacle(t) {
		return nil, 0, false
	}
	if d.visible(s, t) {
		return []geom.Point{s, t}, s.Dist(t), true
	}
	n := len(d.corners)
	adj := make([][]int, n+2)
	copy(adj, cornerAdj)
	for i := 0; i < n; i++ {
		if d.visible(s, d.corners[i]) {
			adj[n] = append(adj[n], i)
		}
		if d.visible(t, d.corners[i]) {
			adj[i] = append(append([]int(nil), adj[i]...), n+1)
			adj[n+1] = append(adj[n+1], i)
		}
	}
	pos := func(i int) geom.Point {
		switch i {
		case n:
			return s
		case n + 1:
			return t
		default:
			return d.corners[i]
		}
	}
	src, dst := n, n+1
	dist := make([]float64, n+2)
	prev := make([]int, n+2)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[src] = 0
	pq := &refHeap{{src, 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(visItem)
		if it.d > dist[it.v] {
			continue
		}
		if it.v == dst {
			break
		}
		pv := pos(it.v)
		for _, w := range adj[it.v] {
			nd := it.d + pv.Dist(pos(w))
			if nd < dist[w] {
				dist[w] = nd
				prev[w] = it.v
				heap.Push(pq, visItem{w, nd})
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return nil, 0, false
	}
	var idxPath []int
	for v := dst; v != -1; v = prev[v] {
		idxPath = append(idxPath, v)
		if v == src {
			break
		}
	}
	path := make([]geom.Point, len(idxPath))
	for i, v := range idxPath {
		path[len(idxPath)-1-i] = pos(v)
	}
	return path, dist[dst], true
}

type refHeap []visItem

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(visItem)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// fuzzPoint decodes four bytes into a point on a 0.25 lattice in [0, 7.75]²
// moved by two signed offsets of up to ~1.3e-9, which straddles the 1e-9
// boundary tolerance of the strict-inside test.
func fuzzPoint(b []byte) geom.Point {
	return geom.Pt(float64(b[0]%32)*0.25+float64(int8(b[2]))*1e-11,
		float64(b[1]%32)*0.25+float64(int8(b[3]))*1e-11)
}

// decodeDomain reads records until the data runs out, up to 8 obstacles
// with 40 corners in all, and 8 queries. A record's tag byte mod 3 selects
// its kind: 0 is an axis-aligned box (a corner point and a size byte giving
// sides of 0.25 to 1), 1 a polygon of 3 + tag/3 mod 14 points, replaced by
// geom.ConvexHull of those points when the tag's top bit is set, 2 a query
// (two points).
func decodeDomain(data []byte) (obstacles [][]geom.Point, queries [][2]geom.Point) {
	corners := 0
	for i := 0; i < len(data); {
		tag := data[i]
		i++
		switch tag % 3 {
		case 0:
			if i+5 > len(data) || len(obstacles) == 8 || corners+4 > 40 {
				return
			}
			corners += 4
			p := fuzzPoint(data[i:])
			w, h := float64(data[i+4]%4+1)*0.25, float64(data[i+4]/4%4+1)*0.25
			obstacles = append(obstacles, []geom.Point{
				p, geom.Pt(p.X+w, p.Y), geom.Pt(p.X+w, p.Y+h), geom.Pt(p.X, p.Y+h),
			})
			i += 5
		case 1:
			c := 3 + int(tag/3)%14
			if i+4*c > len(data) || len(obstacles) == 8 || corners+c > 40 {
				return
			}
			corners += c
			poly := make([]geom.Point, c)
			for k := range poly {
				poly[k] = fuzzPoint(data[i+4*k:])
			}
			if tag >= 128 {
				poly = geom.ConvexHull(poly)
			}
			obstacles = append(obstacles, poly)
			i += 4 * c
		default:
			if i+8 > len(data) || len(queries) == 8 {
				return
			}
			queries = append(queries, [2]geom.Point{fuzzPoint(data[i:]), fuzzPoint(data[i+4:])})
			i += 8
		}
	}
	return
}

// FuzzDomainVisible requires the culled Domain and Overlay (obstacle boxes
// and the separating-edge certificate of convex obstacles) to answer
// exactly as the unculled reference: Visible between every pair of corners
// and query endpoints, PointInObstacle at each of them and at every query
// midpoint, the overlay's edges in order, both ShortestPaths (points and
// length, compared with ==) for every query, and ShortestPathsFrom each
// query's source to every query endpoint. Every query is planned twice, so
// the second plan reads the source's row from the seen memo, and once more
// with the sources in reverse order.
func FuzzDomainVisible(f *testing.F) {
	f.Add([]byte{0, 4, 4, 0, 0, 5, 2, 0, 5, 0, 0, 16, 5, 0, 0}) // a box and a query through it
	f.Fuzz(func(t *testing.T, data []byte) {
		obstacles, queries := decodeDomain(data)
		d, ref := NewDomain(obstacles), newRefDomain(obstacles)
		pts := append([]geom.Point(nil), d.Corners()...)
		for _, q := range queries {
			pts = append(pts, q[0], q[1], geom.Midpoint(q[0], q[1]))
		}
		for i, a := range pts {
			if got, want := d.PointInObstacle(a), ref.pointInObstacle(a); got != want {
				t.Fatalf("PointInObstacle(%v) = %v, reference %v", a, got, want)
			}
			for _, b := range pts[i:] {
				if got, want := d.Visible(a, b), ref.visible(a, b); got != want {
					t.Fatalf("Visible(%v, %v) = %v, reference %v", a, b, got, want)
				}
			}
		}
		// Triangulate is deterministic, so the overlay's adjacency must equal
		// the reference's in order too: it decides equal-distance ties.
		o := NewOverlay(obstacles)
		refAdj := ref.overlayAdj()
		if got, want := o.Edges(), (&Overlay{adj: refAdj}).Edges(); !slices.Equal(got, want) {
			t.Fatalf("overlay edges %v, reference %v", got, want)
		}
		// The queries in order twice, then in reverse order.
		rounds := append(append([][2]geom.Point(nil), queries...), queries...)
		for i := len(queries) - 1; i >= 0; i-- {
			rounds = append(rounds, queries[i])
		}
		type planner func(s, t geom.Point) ([]geom.Point, float64, bool)
		for _, c := range []struct {
			name      string
			got, want planner
		}{
			{"Domain", d.ShortestPath, func(s, t geom.Point) ([]geom.Point, float64, bool) {
				return ref.shortestPath(ref.cornerAdj, s, t)
			}},
			{"Overlay", o.ShortestPath, func(s, t geom.Point) ([]geom.Point, float64, bool) {
				return ref.shortestPath(refAdj, s, t)
			}},
		} {
			for _, q := range rounds {
				path, length, ok := c.got(q[0], q[1])
				wantPath, wantLen, wantOK := c.want(q[0], q[1])
				if ok != wantOK || length != wantLen || !slices.Equal(path, wantPath) {
					t.Fatalf("%s.ShortestPath(%v, %v) = %v %v %v, reference %v %v %v",
						c.name, q[0], q[1], path, length, ok, wantPath, wantLen, wantOK)
				}
			}
		}
		var targets []geom.Point
		for _, q := range queries {
			targets = append(targets, q[0], q[1])
		}
		for _, q := range rounds {
			for k, p := range d.ShortestPathsFrom(q[0], targets) {
				wantPath, wantLen, wantOK := ref.shortestPath(ref.cornerAdj, q[0], targets[k])
				if p.OK != wantOK || p.Length != wantLen || !slices.Equal(p.Points, wantPath) {
					t.Fatalf("ShortestPathsFrom(%v) to %v = %v %v %v, reference %v %v %v",
						q[0], targets[k], p.Points, p.Length, p.OK, wantPath, wantLen, wantOK)
				}
			}
		}
	})
}
