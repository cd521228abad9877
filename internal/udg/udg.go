// Package udg builds and queries Unit Disk Graphs (Definition 1.1 of the
// paper): the bi-directed graph over a planar point set V containing an edge
// (u, v) whenever ‖uv‖ ≤ r for the communication radius r. The package
// provides a grid-bucketed spatial index so construction is near-linear for
// bounded-density inputs, plus connectivity queries and the Euclidean
// shortest-path oracle used as the competitiveness ground truth d(s, t).
package udg

import (
	"container/heap"
	"fmt"
	"math"

	"hybridroute/internal/geom"
	"hybridroute/internal/mem"
)

// NodeID indexes a node in the point set. IDs are dense: 0..n-1.
type NodeID int

// Graph is a unit disk graph over a fixed point set. Adjacency is stored in
// a flat CSR (compressed sparse row) layout — two contiguous arrays indexed
// by dense node IDs — so a million-node graph is a handful of allocations;
// the graph is immutable after Build. The construction grid index is
// retained for spatial queries (ForNodesInBox).
type Graph struct {
	pts    []geom.Point
	radius float64
	off    []int32
	dat    []NodeID
	idx    *gridIndex
}

// Build constructs the unit disk graph of pts with communication radius r.
// It panics if r is not positive; an empty point set yields an empty graph.
func Build(pts []geom.Point, r float64) *Graph {
	if r <= 0 {
		panic(fmt.Sprintf("udg: non-positive radius %v", r))
	}
	n := len(pts)
	g := &Graph{
		pts:    append([]geom.Point(nil), pts...),
		radius: r,
		off:    make([]int32, n+1),
	}
	g.idx = newGridIndex(g.pts, r)
	r2 := r * r
	// Two passes over the same deterministic grid enumeration: count degrees,
	// then fill rows. Row order matches the historical append-based build
	// (3x3 cell scan, insertion order within cells).
	for i, p := range g.pts {
		g.idx.forNeighbors(p, func(j int) {
			if j != i && p.Dist2(g.pts[j]) <= r2 {
				g.off[i+1]++
			}
		})
	}
	for i := 1; i <= n; i++ {
		g.off[i] += g.off[i-1]
	}
	g.dat = make([]NodeID, g.off[n])
	cur := make([]int32, n)
	copy(cur, g.off[:n])
	for i, p := range g.pts {
		g.idx.forNeighbors(p, func(j int) {
			if j != i && p.Dist2(g.pts[j]) <= r2 {
				g.dat[cur[i]] = NodeID(j)
				cur[i]++
			}
		})
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.pts) }

// Radius returns the communication radius used to build the graph.
func (g *Graph) Radius() float64 { return g.radius }

// Point returns the coordinates of node v.
func (g *Graph) Point(v NodeID) geom.Point { return g.pts[v] }

// Points returns the backing point slice; callers must not modify it.
func (g *Graph) Points() []geom.Point { return g.pts }

// Neighbors returns the adjacency list of v as a view into the flat layout;
// callers must not modify it.
func (g *Graph) Neighbors(v NodeID) []NodeID { return g.dat[g.off[v]:g.off[v+1]] }

// Degree returns the number of UDG neighbours of v.
func (g *Graph) Degree(v NodeID) int { return int(g.off[v+1] - g.off[v]) }

// MaxDegree returns the maximum degree Δ of the graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(NodeID(v)); d > max {
			max = d
		}
	}
	return max
}

// HasEdge reports whether (u, v) is an edge, i.e. ‖uv‖ ≤ r and u ≠ v.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u == v {
		return false
	}
	return g.pts[u].Dist2(g.pts[v]) <= g.radius*g.radius
}

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int { return len(g.dat) / 2 }

// ForNodesInBox calls fn for every node in a grid cell overlapping the
// axis-aligned box [lo, hi] — a superset of the nodes inside the box, each
// reported once, in deterministic (cell-sweep, insertion) order. Callers do
// their own exact filtering.
func (g *Graph) ForNodesInBox(lo, hi geom.Point, fn func(NodeID)) {
	kx0 := int(math.Floor(lo.X / g.idx.cell))
	ky0 := int(math.Floor(lo.Y / g.idx.cell))
	kx1 := int(math.Floor(hi.X / g.idx.cell))
	ky1 := int(math.Floor(hi.Y / g.idx.cell))
	for kx := kx0; kx <= kx1; kx++ {
		for ky := ky0; ky <= ky1; ky++ {
			for _, j := range g.idx.points([2]int{kx, ky}) {
				fn(NodeID(j))
			}
		}
	}
}

// Connected reports whether the graph is connected (true for n ≤ 1).
func (g *Graph) Connected() bool {
	if g.N() <= 1 {
		return true
	}
	return len(g.Component(0)) == g.N()
}

// Component returns the set of nodes reachable from start via BFS, in
// visitation order.
func (g *Graph) Component(start NodeID) []NodeID {
	seen := make([]bool, g.N())
	queue := []NodeID{start}
	seen[start] = true
	var order []NodeID
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return order
}

// LargestComponent returns the node set of the largest connected component.
func (g *Graph) LargestComponent() []NodeID {
	seen := make([]bool, g.N())
	var best []NodeID
	for v := 0; v < g.N(); v++ {
		if seen[v] {
			continue
		}
		comp := g.Component(NodeID(v))
		for _, u := range comp {
			seen[u] = true
		}
		if len(comp) > len(best) {
			best = comp
		}
	}
	return best
}

// HopDistances returns the BFS hop distance from start to every node;
// unreachable nodes get -1.
func (g *Graph) HopDistances(start NodeID) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[start] = 0
	queue := []NodeID{start}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// KHopNeighborhood returns all nodes within k hops of v (excluding v),
// ordered by discovery. This is the N_k(v) set the distributed LDel^k
// construction gathers in k rounds.
func (g *Graph) KHopNeighborhood(v NodeID, k int) []NodeID {
	seen := make(map[NodeID]bool, 16)
	seen[v] = true
	frontier := []NodeID{v}
	var out []NodeID
	for hop := 0; hop < k; hop++ {
		var next []NodeID
		for _, u := range frontier {
			for _, w := range g.Neighbors(u) {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
					out = append(out, w)
				}
			}
		}
		frontier = next
	}
	return out
}

// ShortestPath returns the Euclidean-weight shortest path from s to t in the
// graph, as a node sequence including both endpoints, plus its length. The
// boolean is false when t is unreachable. This is the ground-truth d(s, t)
// used to measure c-competitiveness.
func (g *Graph) ShortestPath(s, t NodeID) ([]NodeID, float64, bool) {
	dist, prev := g.dijkstra(s, t)
	if math.IsInf(dist[t], 1) {
		return nil, 0, false
	}
	var path []NodeID
	for v := t; ; v = prev[v] {
		path = append(path, v)
		if v == s {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, dist[t], true
}

// ShortestDistances returns Euclidean-weight shortest-path distances from s
// to all nodes (+Inf for unreachable).
func (g *Graph) ShortestDistances(s NodeID) []float64 {
	dist, _ := g.dijkstra(s, -1)
	return dist
}

func (g *Graph) dijkstra(s, target NodeID) ([]float64, []NodeID) {
	n := g.N()
	dist := make([]float64, n)
	prev := make([]NodeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prev[i] = -1
	}
	dist[s] = 0
	pq := &nodeHeap{{s, 0}}
	for pq.Len() > 0 {
		item := heap.Pop(pq).(nodeDist)
		if item.d > dist[item.v] {
			continue
		}
		if item.v == target {
			break
		}
		pv := g.pts[item.v]
		for _, w := range g.Neighbors(item.v) {
			nd := item.d + pv.Dist(g.pts[w])
			if nd < dist[w] {
				dist[w] = nd
				prev[w] = item.v
				heap.Push(pq, nodeDist{w, nd})
			}
		}
	}
	return dist, prev
}

type nodeDist struct {
	v NodeID
	d float64
}

type nodeHeap []nodeDist

func (h nodeHeap) Len() int            { return len(h) }
func (h nodeHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h nodeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x interface{}) { *h = append(*h, x.(nodeDist)) }
func (h *nodeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// gridIndex buckets points into cells of side r so that all unit-disk
// neighbours of a point lie in its 3x3 cell neighbourhood. Each cell is a row
// of one CSR table listing its points in index order. The rows are the cells
// of the points' bounding window, column by column (cell (kx, ky) is row
// (kx-kx0)·h + ky-ky0), unless that window is much larger than the point
// count (far-flung points); then only the occupied cells get rows, found
// through the occupied map.
type gridIndex struct {
	cell     float64
	kx0, ky0 int
	w, h     int
	occupied map[[2]int]int32 // nil for a dense window
	cells    mem.CSR[int32]
}

func newGridIndex(pts []geom.Point, r float64) *gridIndex {
	idx := &gridIndex{cell: r}
	if len(pts) == 0 {
		return idx
	}
	lo := idx.key(pts[0])
	hi := lo
	for _, p := range pts[1:] {
		k := idx.key(p)
		lo[0], lo[1] = min(lo[0], k[0]), min(lo[1], k[1])
		hi[0], hi[1] = max(hi[0], k[0]), max(hi[1], k[1])
	}
	// The window's size in float64, so far-flung keys cannot overflow it.
	w := float64(hi[0]) - float64(lo[0]) + 1
	h := float64(hi[1]) - float64(lo[1]) + 1
	var rows int
	if w*h <= float64(4*len(pts)+1024) {
		idx.kx0, idx.ky0, idx.w, idx.h = lo[0], lo[1], int(w), int(h)
		rows = idx.w * idx.h
	} else {
		idx.occupied = make(map[[2]int]int32)
		for _, p := range pts {
			k := idx.key(p)
			if _, ok := idx.occupied[k]; !ok {
				idx.occupied[k] = int32(len(idx.occupied))
			}
		}
		rows = len(idx.occupied)
	}
	b := mem.NewCSRBuilder[int32](rows)
	for _, p := range pts {
		b.Count(idx.row(idx.key(p)))
	}
	b.Seal()
	for i, p := range pts {
		b.Put(idx.row(idx.key(p)), int32(i))
	}
	idx.cells = b.Done()
	return idx
}

func (idx *gridIndex) key(p geom.Point) [2]int {
	return [2]int{int(math.Floor(p.X / idx.cell)), int(math.Floor(p.Y / idx.cell))}
}

// row returns the table row of cell k, or -1 when the table has none: k lies
// outside the dense window, or no point lies in it under the sparse layout.
func (idx *gridIndex) row(k [2]int) int {
	if idx.occupied != nil {
		if r, ok := idx.occupied[k]; ok {
			return int(r)
		}
		return -1
	}
	x, y := k[0]-idx.kx0, k[1]-idx.ky0
	if x < 0 || x >= idx.w || y < 0 || y >= idx.h {
		return -1
	}
	return x*idx.h + y
}

// points returns the points of cell k in index order.
func (idx *gridIndex) points(k [2]int) []int32 {
	if r := idx.row(k); r >= 0 {
		return idx.cells.Row(r)
	}
	return nil
}

func (idx *gridIndex) forNeighbors(p geom.Point, fn func(j int)) {
	k := idx.key(p)
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for _, j := range idx.points([2]int{k[0] + dx, k[1] + dy}) {
				fn(int(j))
			}
		}
	}
}
