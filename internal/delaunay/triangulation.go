// Package delaunay implements the triangulation substrate of the paper: the
// full Delaunay triangulation (used for the Overlay Delaunay Graph of convex
// hull nodes, Theorem 4.8), the k-localized Delaunay graph LDel^k(V) of a
// unit disk graph (Definitions 2.2 and 2.3: k-localized triangles plus
// Gabriel edges), planar face enumeration via the rotation system, and the
// detection of inner and outer radio holes (Definitions 2.4 and 2.5).
package delaunay

import (
	"fmt"
	"math"

	"hybridroute/internal/geom"
)

// Triangulation is a Delaunay triangulation of a point set built with the
// incremental Bowyer–Watson algorithm, walking point location, and robust
// geometric predicates.
type Triangulation struct {
	pts   []geom.Point // input points followed by 3 super-triangle vertices
	n     int          // number of real points
	tris  []tri
	free  []int32           // indices of dead triangle slots for reuse
	edges map[dirEdge]int32 // directed edge (u→v) -> triangle with u,v in CCW order
	last  int32             // last created triangle, walk start hint
}

type tri struct {
	v     [3]int32
	alive bool
}

type dirEdge struct{ a, b int32 }

// Triangulate builds the Delaunay triangulation of pts. Duplicate points are
// tolerated (later duplicates are skipped). The paper assumes non-pathological
// inputs (no 4 co-circular points); exact predicate fallbacks keep the
// construction consistent even near degeneracy.
func Triangulate(pts []geom.Point) *Triangulation {
	n := len(pts)
	t := &Triangulation{
		pts:   make([]geom.Point, 0, n+3),
		n:     n,
		edges: make(map[dirEdge]int32, 6*n),
		last:  -1,
	}
	t.pts = append(t.pts, pts...)

	// Super-triangle comfortably containing the bounding box.
	box := geom.BoundingBox(pts)
	if n == 0 {
		box = geom.Box{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}
	}
	cx, cy := box.Center().X, box.Center().Y
	span := math.Max(box.Width(), box.Height())
	if span == 0 {
		span = 1
	}
	m := span * 64
	t.pts = append(t.pts,
		geom.Pt(cx-3*m, cy-m),
		geom.Pt(cx+3*m, cy-m),
		geom.Pt(cx, cy+3*m),
	)
	s0, s1, s2 := int32(n), int32(n+1), int32(n+2)
	t.addTri(s0, s1, s2)

	seen := make(map[geom.Point]bool, n)
	for i := 0; i < n; i++ {
		if seen[pts[i]] {
			continue
		}
		seen[pts[i]] = true
		t.insert(int32(i))
	}
	return t
}

func (t *Triangulation) addTri(a, b, c int32) int32 {
	// Normalize to CCW.
	if geom.Orient(t.pts[a], t.pts[b], t.pts[c]) == geom.Clockwise {
		b, c = c, b
	}
	var id int32
	if len(t.free) > 0 {
		id = t.free[len(t.free)-1]
		t.free = t.free[:len(t.free)-1]
		t.tris[id] = tri{v: [3]int32{a, b, c}, alive: true}
	} else {
		id = int32(len(t.tris))
		t.tris = append(t.tris, tri{v: [3]int32{a, b, c}, alive: true})
	}
	t.edges[dirEdge{a, b}] = id
	t.edges[dirEdge{b, c}] = id
	t.edges[dirEdge{c, a}] = id
	t.last = id
	return id
}

func (t *Triangulation) removeTri(id int32) {
	tr := &t.tris[id]
	if !tr.alive {
		return
	}
	tr.alive = false
	a, b, c := tr.v[0], tr.v[1], tr.v[2]
	delete(t.edges, dirEdge{a, b})
	delete(t.edges, dirEdge{b, c})
	delete(t.edges, dirEdge{c, a})
	t.free = append(t.free, id)
}

// neighbor returns the triangle on the other side of the directed edge a→b,
// i.e. the triangle containing the directed edge b→a, or -1.
func (t *Triangulation) neighbor(a, b int32) int32 {
	if id, ok := t.edges[dirEdge{b, a}]; ok {
		return id
	}
	return -1
}

// locate finds a live triangle whose closed interior contains p by walking.
func (t *Triangulation) locate(p geom.Point) int32 {
	cur := t.last
	if cur < 0 || !t.tris[cur].alive {
		cur = -1
		for i := range t.tris {
			if t.tris[i].alive {
				cur = int32(i)
				break
			}
		}
		if cur < 0 {
			panic("delaunay: no live triangle")
		}
	}
	for steps := 0; steps < 4*len(t.tris)+16; steps++ {
		tr := t.tris[cur]
		moved := false
		for e := 0; e < 3; e++ {
			a, b := tr.v[e], tr.v[(e+1)%3]
			if geom.Orient(t.pts[a], t.pts[b], p) == geom.Clockwise {
				next := t.neighbor(a, b)
				if next >= 0 {
					cur = next
					moved = true
					break
				}
			}
		}
		if !moved {
			return cur
		}
	}
	// Walk failed to converge (can only happen on numerically hostile input):
	// fall back to an exhaustive scan.
	for i := range t.tris {
		if !t.tris[i].alive {
			continue
		}
		tr := t.tris[i]
		inside := true
		for e := 0; e < 3; e++ {
			a, b := tr.v[e], tr.v[(e+1)%3]
			if geom.Orient(t.pts[a], t.pts[b], p) == geom.Clockwise {
				inside = false
				break
			}
		}
		if inside {
			return int32(i)
		}
	}
	panic(fmt.Sprintf("delaunay: point %v not located", p))
}

func (t *Triangulation) insert(pi int32) {
	p := t.pts[pi]
	seed := t.locate(p)

	// Grow the cavity: all triangles whose circumcircle strictly contains p,
	// found by BFS from the containing triangle. The containing triangle is
	// always part of the cavity (p lies inside it, hence inside its
	// circumcircle, except exactly-on-circle degeneracies which the exact
	// predicate resolves consistently). The cavity is kept in discovery
	// order, with a membership set beside it, so the new triangles (and
	// Edges' order) depend on the input alone.
	cavity := []int32{seed}
	inCavity := map[int32]bool{seed: true}
	stack := []int32{seed}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		tr := t.tris[id]
		for e := 0; e < 3; e++ {
			a, b := tr.v[e], tr.v[(e+1)%3]
			nb := t.neighbor(a, b)
			if nb < 0 || inCavity[nb] {
				continue
			}
			nt := t.tris[nb]
			if geom.InCircle(t.pts[nt.v[0]], t.pts[nt.v[1]], t.pts[nt.v[2]], p) {
				cavity = append(cavity, nb)
				inCavity[nb] = true
				stack = append(stack, nb)
			}
		}
	}

	// Boundary of the cavity: directed edges of cavity triangles whose
	// opposite triangle is outside the cavity.
	type bedge struct{ a, b int32 }
	var boundary []bedge
	for _, id := range cavity {
		tr := t.tris[id]
		for e := 0; e < 3; e++ {
			a, b := tr.v[e], tr.v[(e+1)%3]
			nb := t.neighbor(a, b)
			if nb < 0 || !inCavity[nb] {
				boundary = append(boundary, bedge{a, b})
			}
		}
	}
	for _, id := range cavity {
		t.removeTri(id)
	}
	for _, e := range boundary {
		t.addTri(e.a, e.b, pi)
	}
}

// N returns the number of input points.
func (t *Triangulation) N() int { return t.n }

// Point returns input point i.
func (t *Triangulation) Point(i int) geom.Point { return t.pts[i] }

// Triangles returns all Delaunay triangles over the real input points (super
// triangle vertices excluded), each as a CCW index triple.
func (t *Triangulation) Triangles() [][3]int {
	var out [][3]int
	for _, tr := range t.tris {
		if !tr.alive {
			continue
		}
		if tr.v[0] >= int32(t.n) || tr.v[1] >= int32(t.n) || tr.v[2] >= int32(t.n) {
			continue
		}
		out = append(out, [3]int{int(tr.v[0]), int(tr.v[1]), int(tr.v[2])})
	}
	return out
}

// Edges returns the undirected Delaunay edges between real input points,
// each once with a < b.
func (t *Triangulation) Edges() [][2]int {
	seen := make(map[[2]int]bool)
	var out [][2]int
	for _, tr := range t.Triangles() {
		for e := 0; e < 3; e++ {
			a, b := tr[e], tr[(e+1)%3]
			if a > b {
				a, b = b, a
			}
			k := [2]int{a, b}
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	return out
}

// Adjacency returns the undirected adjacency lists of the Delaunay graph on
// the real points.
func (t *Triangulation) Adjacency() [][]int {
	adj := make([][]int, t.n)
	for _, e := range t.Edges() {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	return adj
}
