// Package vis implements shortest paths in polygonal domains, the
// computational-geometry machinery behind both routing strategies of the
// paper: the Visibility Graph of all hole nodes (Section 3, giving
// 17.7-competitive paths) and the Overlay Delaunay Graph of convex hull
// nodes (Section 4, giving ≤ 35.37-competitive paths with much smaller
// storage). Lemma 2.12 (de Berg et al.) justifies both: any shortest path
// among disjoint polygonal obstacles is a polygonal path whose inner
// vertices are obstacle vertices.
package vis

import (
	"math"
	"slices"
	"sync"

	"hybridroute/internal/delaunay"
	"hybridroute/internal/geom"
)

// Domain is a set of disjoint polygonal obstacles supporting visibility
// queries and shortest paths whose interior vertices are obstacle corners.
type Domain struct {
	obstacles [][]geom.Point
	// boxes[k] bounds obstacles[k]. A segment whose box is disjoint from it,
	// or a point outside it, cannot meet the obstacle's interior, so the
	// polygon test is skipped.
	boxes []geom.Box
	// turns[k] is the turn sign of obstacles[k] when it is a strictly convex
	// simple polygon, and Collinear otherwise (see separated).
	turns   []geom.Orientation
	corners []geom.Point
	// cornerAdj[i] lists the corners visible from corner i, in increasing
	// order; the relation is symmetric. It is nil for an Overlay's obstacle
	// set, which plans over its own Delaunay graph instead.
	cornerAdj [][]int
	// seen maps a plan source, keyed by its coordinate bits (so a NaN
	// coordinate, which never equals itself, still finds its row), to its
	// row over corners: row[i] is Visible(s, corners[i]). Visible is pure, so a row is filled once, on the first
	// search from s that needs it, and only read after; the memo lives and
	// dies with the domain. It holds one row of len(corners) bytes per
	// distinct source. In core every source is a node position (a hit
	// node, an exit or entry corner, or an endpoint inside a merged hull),
	// so a domain holds at most one row per network node.
	seen sync.Map // [2]uint64 → []bool
}

// NewDomain builds the visibility structure over the given obstacle
// polygons (each a vertex cycle, any orientation).
func NewDomain(obstacles [][]geom.Point) *Domain {
	d := newObstacleSet(obstacles)
	d.cornerAdj = d.cornerGraph()
	return d
}

// newObstacleSet indexes the obstacles for visibility tests (boxes, convex
// turns and the corner list) without the quadratic corner graph.
func newObstacleSet(obstacles [][]geom.Point) *Domain {
	d := &Domain{
		obstacles: obstacles,
		boxes:     make([]geom.Box, len(obstacles)),
		turns:     make([]geom.Orientation, len(obstacles)),
	}
	for k, poly := range obstacles {
		d.boxes[k] = geom.BoundingBox(poly)
		d.turns[k] = convexTurn(poly)
		d.corners = append(d.corners, poly...)
	}
	return d
}

// cornerGraph returns the visibility graph of the corners: O(C²) Visible
// calls.
func (d *Domain) cornerGraph() [][]int {
	n := len(d.corners)
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d.Visible(d.corners[i], d.corners[j]) {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	return adj
}

// Obstacles returns the obstacle polygons; callers must not modify them.
func (d *Domain) Obstacles() [][]geom.Point { return d.obstacles }

// Corners returns all obstacle corners; callers must not modify the slice.
func (d *Domain) Corners() []geom.Point { return d.corners }

// CornerEdges returns the number of undirected visibility edges between
// corners — the Θ(h²) storage cost the paper attributes to full visibility
// graphs.
func (d *Domain) CornerEdges() int {
	total := 0
	for _, a := range d.cornerAdj {
		total += len(a)
	}
	return total / 2
}

// convexTurn returns the turn sign of poly when it is a strictly convex
// simple polygon, decided exactly: poly equals geom.ConvexHull of its points
// as a cyclic sequence, in either orientation. Otherwise (a reflex or
// straight corner, a repeated point, a self-crossing star) it returns
// Collinear.
func convexTurn(poly []geom.Point) geom.Orientation {
	hull := geom.ConvexHull(poly)
	n := len(hull)
	if n < 3 || n != len(poly) {
		return geom.Collinear
	}
	i := slices.Index(hull, poly[0])
	if i < 0 {
		return geom.Collinear
	}
	ccw, cw := true, true
	for k, p := range poly {
		ccw = ccw && p == hull[(i+k)%n]
		cw = cw && p == hull[(i-k+n)%n]
	}
	switch {
	case ccw:
		return geom.CounterClockwise
	case cw:
		return geom.Clockwise
	}
	return geom.Collinear
}

// separated reports whether an edge line of obstacle k has a and b on its
// closed outer side, which certifies that the obstacle cannot block ab. Only
// strictly convex obstacles have such certificates. The segment then lies in
// the closed outer half-plane and the obstacle in the closed inner one, and
// they share only the edge's line, which no other edge meets in its
// interior, so no edge is properly crossed. A sample point of ab can stray
// into the inner half-plane only by Lerp's rounding; a point of the obstacle
// that close to the edge's line is as close to its boundary, far inside the
// 1e-9 tolerance of PointStrictlyInSimple for coordinates below ~1e6. So
// geom.SegmentIntersectsPolygon would answer false.
func (d *Domain) separated(k int, a, b geom.Point) bool {
	turn := d.turns[k]
	if turn == geom.Collinear {
		return false
	}
	poly := d.obstacles[k]
	p := poly[len(poly)-1]
	for _, q := range poly {
		if geom.Orient(p, q, a) != turn && geom.Orient(p, q, b) != turn {
			return true
		}
		p = q
	}
	return false
}

// Visible reports whether the open segment ab avoids every obstacle
// interior: the segment may touch boundaries and run along obstacle edges,
// but may not properly cross an edge or pass through an interior. Only
// obstacles whose box meets the segment's box, and which no edge line
// separates from it, are tested.
func (d *Domain) Visible(a, b geom.Point) bool {
	s := geom.Seg(a, b)
	sb := s.Box()
	for k, poly := range d.obstacles {
		if sb.Disjoint(d.boxes[k]) || d.separated(k, a, b) {
			continue
		}
		if geom.SegmentIntersectsPolygon(s, poly) {
			return false
		}
	}
	return true
}

// PointInObstacle reports whether p lies strictly inside some obstacle.
func (d *Domain) PointInObstacle(p geom.Point) bool {
	for k, poly := range d.obstacles {
		if d.boxes[k].Contains(p) && geom.PointStrictlyInSimple(p, poly) {
			return true
		}
	}
	return false
}

// ShortestPath returns the Euclidean shortest obstacle-avoiding path from s
// to t as a polyline including both endpoints, plus its length. ok is false
// only when s or t is strictly inside an obstacle (the domain is otherwise
// connected).
func (d *Domain) ShortestPath(s, t geom.Point) ([]geom.Point, float64, bool) {
	return d.plan(d.cornerAdj, s, t)
}

// Path is one target's answer from ShortestPathsFrom: ShortestPath's three
// results.
type Path struct {
	Points []geom.Point
	Length float64
	OK     bool
}

// ShortestPathsFrom returns ShortestPath(s, t) for every t in ts, in order.
// One search serves every target: it tests s against the obstacles once,
// reads s's corner row once, when the first target that s does not see
// directly needs it, and reuses its scratch; each target then runs exactly
// the search ShortestPath would.
func (d *Domain) ShortestPathsFrom(s geom.Point, ts []geom.Point) []Path {
	out := make([]Path, len(ts))
	if d.PointInObstacle(s) {
		return out
	}
	sr := search{d: d, adj: d.cornerAdj, s: s}
	for k, t := range ts {
		out[k].Points, out[k].Length, out[k].OK = sr.to(t)
	}
	return out
}

// plan is ShortestPath over the corner graph adj, which is only read, so
// callers share it.
func (d *Domain) plan(adj [][]int, s, t geom.Point) ([]geom.Point, float64, bool) {
	if d.PointInObstacle(s) {
		return nil, 0, false
	}
	sr := search{d: d, adj: adj, s: s}
	return sr.to(t)
}

// seenRow returns s's row of the seen memo, filling it on first use.
func (d *Domain) seenRow(s geom.Point) []bool {
	key := [2]uint64{math.Float64bits(s.X), math.Float64bits(s.Y)}
	if row, ok := d.seen.Load(key); ok {
		return row.([]bool)
	}
	row := make([]bool, len(d.corners))
	for i, c := range d.corners {
		row[i] = d.Visible(s, c)
	}
	got, _ := d.seen.LoadOrStore(key, row)
	return got.([]bool)
}

// planNode is one node of a plan's search: a corner, s or t.
type planNode struct {
	dist float64
	prev int
}

// search plans from one source s, outside every obstacle, over the corner
// graph adj. nodes and seesS are nil until a target first needs the corners
// s sees; seesS is s's row of the domain's seen memo, shared and only read.
type search struct {
	d     *Domain
	adj   [][]int
	s     geom.Point
	seesS []bool
	nodes []planNode
	pq    visHeap
}

// to runs Euclidean Dijkstra from s to t, entering from s at every corner it
// sees and leaving for t from every corner that sees t. Node n is s and n+1
// is t; s's neighbours are the corners it sees in index order, and t is the
// last neighbour of each corner that sees it. Whether a popped corner sees t
// is tested only when its leg to t would shorten t's distance: relax would
// ignore the leg otherwise, and Visible is pure, so skipping the test changes
// no heap operation.
func (sr *search) to(t geom.Point) ([]geom.Point, float64, bool) {
	d, s := sr.d, sr.s
	if d.PointInObstacle(t) {
		return nil, 0, false
	}
	if d.Visible(s, t) {
		return []geom.Point{s, t}, s.Dist(t), true
	}
	n := len(d.corners)
	src, dst := n, n+1
	if sr.nodes == nil {
		sr.nodes = make([]planNode, n+2)
		sr.pq = make(visHeap, 0, n+2)
		sr.seesS = d.seenRow(s)
	}
	nodes := sr.nodes
	for i := range nodes {
		nodes[i].dist, nodes[i].prev = math.Inf(1), -1
	}
	pos := func(i int) geom.Point {
		switch i {
		case src:
			return s
		case dst:
			return t
		default:
			return d.corners[i]
		}
	}
	nodes[src].dist = 0
	pq := append(sr.pq[:0], visItem{src, 0})
	relax := func(v, w int, dv float64, pv geom.Point) {
		if nd := dv + pv.Dist(pos(w)); nd < nodes[w].dist {
			nodes[w].dist = nd
			nodes[w].prev = v
			pq.push(visItem{w, nd})
		}
	}
	for len(pq) > 0 {
		it := pq.pop()
		if it.d > nodes[it.v].dist {
			continue
		}
		if it.v == dst {
			break
		}
		pv := pos(it.v)
		if it.v == src {
			for w := 0; w < n; w++ {
				if sr.seesS[w] {
					relax(it.v, w, it.d, pv)
				}
			}
			continue
		}
		for _, w := range sr.adj[it.v] {
			relax(it.v, w, it.d, pv)
		}
		if it.d+pv.Dist(t) < nodes[dst].dist && d.Visible(t, pv) {
			relax(it.v, dst, it.d, pv)
		}
	}
	sr.pq = pq
	if math.IsInf(nodes[dst].dist, 1) {
		return nil, 0, false
	}
	hops := 1
	for v := dst; v != src; v = nodes[v].prev {
		hops++
	}
	path := make([]geom.Point, hops)
	for v, i := dst, hops-1; i >= 0; v, i = nodes[v].prev, i-1 {
		path[i] = pos(v)
	}
	return path, nodes[dst].dist, true
}

type visItem struct {
	v int
	d float64
}

// visHeap is a binary min-heap on d with container/heap's sift order, so
// items of equal distance pop in the same order they would there.
type visHeap []visItem

func (h *visHeap) push(it visItem) {
	*h = append(*h, it)
	q := *h
	for j := len(q) - 1; j > 0; {
		i := (j - 1) / 2
		if !(q[j].d < q[i].d) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *visHeap) pop() visItem {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].d < q[j].d {
			j = j2
		}
		if !(q[j].d < q[i].d) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	*h = q[:n]
	return q[n]
}

// Overlay is the Overlay Delaunay Graph of Section 4: the Delaunay graph of
// all convex hull corners, restricted to edges that do not cut through any
// hull, with the hull boundary edges always present. Compared to the full
// visibility graph its edge count is linear in the number of hull nodes
// (planarity), which is the paper's space reduction; paths lengthen by at
// most the 1.998 Delaunay spanning ratio.
type Overlay struct {
	domain  *Domain
	corners []geom.Point
	adj     [][]int
}

// NewOverlay builds the overlay Delaunay graph over the given convex hulls
// (each a CCW vertex cycle). The hulls are also the visibility obstacles;
// their corner visibility graph is never built, since plans search the
// overlay's own edges.
func NewOverlay(hulls [][]geom.Point) *Overlay {
	return newOverlayOn(newObstacleSet(hulls), hulls)
}

// newOverlayOn builds the overlay over hulls with d, an index of the same
// hulls, as its visibility obstacles.
func newOverlayOn(d *Domain, hulls [][]geom.Point) *Overlay {
	o := &Overlay{domain: d}
	o.corners = o.domain.Corners()
	n := len(o.corners)
	o.adj = make([][]int, n)

	addEdge := func(i, j int) {
		for _, w := range o.adj[i] {
			if w == j {
				return
			}
		}
		o.adj[i] = append(o.adj[i], j)
		o.adj[j] = append(o.adj[j], i)
	}

	// Delaunay edges between hull corners, filtered by visibility.
	if n >= 3 {
		tr := delaunay.Triangulate(o.corners)
		for _, e := range tr.Edges() {
			if o.domain.Visible(o.corners[e[0]], o.corners[e[1]]) {
				addEdge(e[0], e[1])
			}
		}
	}
	// Hull boundary edges are always part of the overlay.
	base := 0
	for _, h := range hulls {
		for i := range h {
			addEdge(base+i, base+(i+1)%len(h))
		}
		base += len(h)
	}
	return o
}

// Corners returns all hull corners in overlay index order.
func (o *Overlay) Corners() []geom.Point { return o.corners }

// EdgeCount returns the number of undirected overlay edges — O(h) by
// planarity, versus Θ(h²) for the visibility graph.
func (o *Overlay) EdgeCount() int {
	total := 0
	for _, a := range o.adj {
		total += len(a)
	}
	return total / 2
}

// Edges returns each undirected overlay edge once as corner index pairs.
func (o *Overlay) Edges() [][2]int {
	var out [][2]int
	for i, nbrs := range o.adj {
		for _, j := range nbrs {
			if i < j {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// Visible exposes the underlying visibility test.
func (o *Overlay) Visible(a, b geom.Point) bool { return o.domain.Visible(a, b) }

// PointInObstacle reports whether p is strictly inside some hull.
func (o *Overlay) PointInObstacle(p geom.Point) bool { return o.domain.PointInObstacle(p) }

// ShortestPath returns the shortest path from s to t through the overlay
// Delaunay graph, entering and leaving at visible hull corners. This is the
// path the convex hull nodes compute for the routing protocol of Section 4.3.
func (o *Overlay) ShortestPath(s, t geom.Point) ([]geom.Point, float64, bool) {
	return o.domain.plan(o.adj, s, t)
}
