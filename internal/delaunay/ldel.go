package delaunay

import (
	"math"
	"sort"

	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
)

// PlanarGraph is an embedded planar graph over a point set: adjacency lists
// sorted counterclockwise by angle (the rotation system), which is exactly
// the structure a node of the ad hoc network can compute locally from the
// coordinates of its neighbours.
//
// Storage is a flat CSR (compressed sparse row) layout: the frozen rotations
// live in two contiguous arrays (off/dat) indexed by dense node IDs, so a
// million-node graph costs two allocations instead of a million row slices.
// Mutation — hull-edge overlay during hole detection and edge removal during
// churn repair — goes through a lazy copy-on-write row overlay (mut): a
// non-nil mut row overrides the frozen CSR row for that node, and Clone
// shares the frozen arrays while deep-copying only the overridden rows.
// A frozen row is never written after construction.
type PlanarGraph struct {
	pts []geom.Point
	off []int32
	dat []udg.NodeID
	mut [][]udg.NodeID // copy-on-write row overrides; nil while frozen
}

// NewPlanarGraph builds a planar graph from points and undirected edges; the
// embedding is the straight-line embedding, with each rotation sorted CCW.
func NewPlanarGraph(pts []geom.Point, edges [][2]int) *PlanarGraph {
	n := len(pts)
	g := &PlanarGraph{pts: pts, off: make([]int32, n+1)}
	for _, e := range edges {
		g.off[e[0]+1]++
		g.off[e[1]+1]++
	}
	for i := 1; i <= n; i++ {
		g.off[i] += g.off[i-1]
	}
	g.dat = make([]udg.NodeID, g.off[n])
	cur := make([]int32, n)
	copy(cur, g.off[:n])
	for _, e := range edges {
		g.dat[cur[e[0]]] = udg.NodeID(e[1])
		cur[e[0]]++
		g.dat[cur[e[1]]] = udg.NodeID(e[0])
		cur[e[1]]++
	}
	g.sortRotations()
	return g
}

// sortRotations sorts every frozen row CCW (see ccwBefore) and removes
// duplicate parallel edges, compacting the CSR arrays in place.
func (g *PlanarGraph) sortRotations() {
	n := g.N()
	for v := 0; v < n; v++ {
		row := g.dat[g.off[v]:g.off[v+1]]
		for i := 1; i < len(row); i++ {
			x := row[i]
			j := i - 1
			for j >= 0 && g.ccwBefore(udg.NodeID(v), x, row[j]) {
				row[j+1] = row[j]
				j--
			}
			row[j+1] = x
		}
	}
	// Deduplicate parallel edges if any slipped in; sorted rows put
	// duplicates adjacent, and the compacted write cursor w never overtakes
	// the read cursor, so the pass is safe in place.
	w := int32(0)
	for v := 0; v < n; v++ {
		rs, re := g.off[v], g.off[v+1]
		ns := w
		for i := rs; i < re; i++ {
			if w == ns || g.dat[i] != g.dat[w-1] {
				g.dat[w] = g.dat[i]
				w++
			}
		}
		g.off[v] = ns
	}
	g.off[n] = w
	g.dat = g.dat[:w]
}

// ccwBefore reports whether neighbour a precedes neighbour b in the
// counterclockwise rotation of v: by the angle of a−v in [−π, π] as atan2
// gives it, with directions in the same half-plane ordered by the exact
// orientation predicate — float angles tie or swap directions less than
// ~1e-16 rad apart, which breaks the rotation system — and equal directions
// by node ID.
func (g *PlanarGraph) ccwBefore(v, a, b udg.NodeID) bool {
	pv, pa, pb := g.pts[v], g.pts[a], g.pts[b]
	if ha, hb := angleHalf(pa.Sub(pv)), angleHalf(pb.Sub(pv)); ha != hb {
		return ha < hb
	}
	switch geom.Orient(pv, pa, pb) {
	case geom.CounterClockwise:
		return true
	case geom.Clockwise:
		return false
	}
	return a < b
}

// angleHalf splits directions into atan2's ranges that orientation orders
// consistently: −π, (−π, 0), [0, π) and π.
func angleHalf(d geom.Point) int {
	switch {
	case d.Y < 0:
		return 1
	case d.Y > 0 || d.X >= 0:
		return 2
	case math.Signbit(d.Y):
		return 0 // atan2(−0, x<0) = −π
	}
	return 3 // atan2(+0, x<0) = π
}

// row returns the current rotation of v: the copy-on-write override when one
// exists, otherwise a view into the frozen CSR arrays.
func (g *PlanarGraph) row(v udg.NodeID) []udg.NodeID {
	if g.mut != nil {
		if r := g.mut[v]; r != nil {
			return r
		}
	}
	return g.dat[g.off[v]:g.off[v+1]]
}

// materialize gives v a private mutable copy of its rotation (idempotent) and
// returns it.
func (g *PlanarGraph) materialize(v udg.NodeID) []udg.NodeID {
	if g.mut == nil {
		g.mut = make([][]udg.NodeID, g.N())
	}
	if g.mut[v] == nil {
		frozen := g.dat[g.off[v]:g.off[v+1]]
		g.mut[v] = append(make([]udg.NodeID, 0, len(frozen)+2), frozen...)
	}
	return g.mut[v]
}

// flatRows returns the graph's rotations as CSR arrays: the frozen arrays
// themselves when no row has been overridden, otherwise a freshly merged
// copy. Face enumeration uses the result to index directed edges densely.
func (g *PlanarGraph) flatRows() ([]int32, []udg.NodeID) {
	if g.mut == nil {
		return g.off, g.dat
	}
	n := g.N()
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int32(len(g.row(udg.NodeID(v))))
	}
	dat := make([]udg.NodeID, off[n])
	for v := 0; v < n; v++ {
		copy(dat[off[v]:off[v+1]], g.row(udg.NodeID(v)))
	}
	return off, dat
}

// N returns the number of nodes.
func (g *PlanarGraph) N() int { return len(g.pts) }

// Point returns the coordinates of node v.
func (g *PlanarGraph) Point(v udg.NodeID) geom.Point { return g.pts[v] }

// Points returns the backing point slice; callers must not modify it.
func (g *PlanarGraph) Points() []geom.Point { return g.pts }

// Neighbors returns the CCW-sorted rotation of v; callers must not modify it.
func (g *PlanarGraph) Neighbors(v udg.NodeID) []udg.NodeID { return g.row(v) }

// Degree returns the degree of v.
func (g *PlanarGraph) Degree(v udg.NodeID) int { return len(g.row(v)) }

// HasEdge reports whether the undirected edge (u, v) is present.
func (g *PlanarGraph) HasEdge(u, v udg.NodeID) bool {
	for _, w := range g.row(u) {
		if w == v {
			return true
		}
	}
	return false
}

// EdgeCount returns the number of undirected edges.
func (g *PlanarGraph) EdgeCount() int {
	if g.mut == nil {
		return len(g.dat) / 2
	}
	total := 0
	for v := 0; v < g.N(); v++ {
		total += len(g.row(udg.NodeID(v)))
	}
	return total / 2
}

// Edges returns each undirected edge once with a < b.
func (g *PlanarGraph) Edges() [][2]int {
	var out [][2]int
	for v := 0; v < g.N(); v++ {
		for _, w := range g.row(udg.NodeID(v)) {
			if udg.NodeID(v) < w {
				out = append(out, [2]int{v, int(w)})
			}
		}
	}
	return out
}

// AddEdge inserts the undirected edge (u, v) if absent and re-sorts the two
// rotations. Used to overlay convex hull edges (Definition 2.5).
func (g *PlanarGraph) AddEdge(u, v udg.NodeID) {
	if u == v || g.HasEdge(u, v) {
		return
	}
	g.mut[u] = append(g.materialize(u), v)
	g.mut[v] = append(g.materialize(v), u)
	g.sortRotationOf(u)
	g.sortRotationOf(v)
}

func (g *PlanarGraph) sortRotationOf(v udg.NodeID) {
	nbrs := g.mut[v]
	sort.Slice(nbrs, func(i, j int) bool { return g.ccwBefore(v, nbrs[i], nbrs[j]) })
}

// Clone returns a copy of the graph that shares the frozen CSR arrays (which
// are immutable after construction) and deep-copies only the copy-on-write
// row overrides, so cloning a million-node graph before a churn patch is
// O(overridden rows), not O(E).
func (g *PlanarGraph) Clone() *PlanarGraph {
	c := &PlanarGraph{pts: g.pts, off: g.off, dat: g.dat}
	if g.mut != nil {
		c.mut = make([][]udg.NodeID, len(g.mut))
		for v, r := range g.mut {
			if r != nil {
				c.mut[v] = append(make([]udg.NodeID, 0, len(r)), r...)
			}
		}
	}
	return c
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *PlanarGraph) Connected() bool {
	if g.N() <= 1 {
		return true
	}
	seen := make([]bool, g.N())
	stack := []udg.NodeID{0}
	seen[0] = true
	count := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, w := range g.row(v) {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return count == g.N()
}

// LDelK computes the k-localized Delaunay graph LDel^k(V) of the unit disk
// graph g (Definition 2.3): the union of
//
//  1. all edges of k-localized triangles — triangles (u, v, w) with all edge
//     lengths ≤ r whose circumcircle contains no node reachable within k
//     hops of u, v, or w in UDG(V), and
//  2. all Gabriel edges — UDG edges (u, v) whose diametral circle is empty.
//
// For k ≥ 2 the result is planar (Li, Călinescu, Wan). The computation is
// node-local given k-hop neighbourhood knowledge, which is what the
// distributed construction gathers in k communication rounds.
func LDelK(g *udg.Graph, k int) *PlanarGraph {
	n := g.N()
	r := g.Radius()
	r2 := r * r

	// Precompute k-hop neighbourhoods.
	khop := make([][]udg.NodeID, n)
	for v := 0; v < n; v++ {
		khop[v] = g.KHopNeighborhood(udg.NodeID(v), k)
	}

	edgeSet := make(map[[2]int]bool)
	addEdge := func(a, b udg.NodeID) {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		edgeSet[[2]int{x, y}] = true
	}

	// Gabriel edges: since every point strictly inside the diametral circle
	// of (u, v) is within distance ‖uv‖ ≤ r of u, checking u's UDG
	// neighbourhood suffices.
	for u := 0; u < n; u++ {
		pu := g.Point(udg.NodeID(u))
		for _, v := range g.Neighbors(udg.NodeID(u)) {
			if int(v) < u {
				continue
			}
			pv := g.Point(v)
			gabriel := true
			for _, w := range g.Neighbors(udg.NodeID(u)) {
				if w == v {
					continue
				}
				if geom.InDiametralCircle(pu, pv, g.Point(w)) {
					gabriel = false
					break
				}
			}
			if gabriel {
				addEdge(udg.NodeID(u), v)
			}
		}
	}

	// k-localized triangles.
	for u := 0; u < n; u++ {
		pu := g.Point(udg.NodeID(u))
		nbrs := g.Neighbors(udg.NodeID(u))
		for i := 0; i < len(nbrs); i++ {
			v := nbrs[i]
			if int(v) < u {
				continue // process each triangle from its minimum vertex
			}
			for j := i + 1; j < len(nbrs); j++ {
				w := nbrs[j]
				if int(w) < u {
					continue
				}
				pv, pw := g.Point(v), g.Point(w)
				if pv.Dist2(pw) > r2 {
					continue // edge vw exceeds the transmission range
				}
				if geom.Orient(pu, pv, pw) == geom.Collinear {
					continue
				}
				if localizedDelaunayTriangle(g, khop, udg.NodeID(u), v, w) {
					addEdge(udg.NodeID(u), v)
					addEdge(v, w)
					addEdge(udg.NodeID(u), w)
				}
			}
		}
	}

	edges := make([][2]int, 0, len(edgeSet))
	for e := range edgeSet {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i][0] != edges[j][0] {
			return edges[i][0] < edges[j][0]
		}
		return edges[i][1] < edges[j][1]
	})
	return NewPlanarGraph(g.Points(), edges)
}

// localizedDelaunayTriangle checks Definition 2.2(2): the circumcircle of
// (u, v, w) contains no node within k hops of u, v or w.
func localizedDelaunayTriangle(g *udg.Graph, khop [][]udg.NodeID, u, v, w udg.NodeID) bool {
	pu, pv, pw := g.Point(u), g.Point(v), g.Point(w)
	checked := map[udg.NodeID]bool{u: true, v: true, w: true}
	for _, base := range []udg.NodeID{u, v, w} {
		for _, x := range khop[base] {
			if checked[x] {
				continue
			}
			checked[x] = true
			if geom.InCircle(pu, pv, pw, g.Point(x)) {
				return false
			}
		}
	}
	return true
}
