package delaunay

import (
	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
)

// Face is a face of the planar embedding, given by its directed boundary
// cycle. Bounded faces are traced counterclockwise (positive area); the
// single unbounded outer face is traced clockwise (negative area).
type Face struct {
	Cycle []udg.NodeID // boundary walk; may repeat nodes at cut vertices
}

// DistinctNodes returns the number of distinct nodes on the face boundary.
func (f Face) DistinctNodes() int {
	c := f.Cycle
	// Faces are overwhelmingly triangles and quads; a quadratic scan beats a
	// map allocation until cycles get long (hole rings).
	if len(c) <= 12 {
		n := 0
		for i, v := range c {
			dup := false
			for j := 0; j < i; j++ {
				if c[j] == v {
					dup = true
					break
				}
			}
			if !dup {
				n++
			}
		}
		return n
	}
	set := make(map[udg.NodeID]bool, len(c))
	for _, v := range c {
		set[v] = true
	}
	return len(set)
}

// area returns the signed area of the face's boundary walk. The shoelace sum
// replicates geom.PolygonArea's operation order exactly (same additions in
// the same sequence) so the result is bit-identical without materializing the
// polygon.
func (f Face) area(g *PlanarGraph) float64 {
	n := len(f.Cycle)
	sum := 0.0
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		sum += g.pts[f.Cycle[i]].Cross(g.pts[f.Cycle[j]])
	}
	return sum / 2
}

// Polygon returns the face boundary as points.
func (f Face) Polygon(g *PlanarGraph) []geom.Point {
	poly := make([]geom.Point, len(f.Cycle))
	for i, v := range f.Cycle {
		poly[i] = g.Point(v)
	}
	return poly
}

// HasEdge reports whether the undirected edge (a, b) appears on the face
// boundary.
func (f Face) HasEdge(a, b udg.NodeID) bool {
	n := len(f.Cycle)
	for i := 0; i < n; i++ {
		u, v := f.Cycle[i], f.Cycle[(i+1)%n]
		if (u == a && v == b) || (u == b && v == a) {
			return true
		}
	}
	return false
}

// Faces enumerates all faces of the planar embedding using the rotation
// system: from the directed edge (u, v), the next boundary edge is (v, w)
// where w precedes u in the counterclockwise rotation of v. With this rule
// every bounded face is traced counterclockwise (interior to the left) and
// the outer face clockwise. Every directed edge lies on exactly one face.
//
// Directed edges are identified by their dense position in the CSR layout of
// the rotations, so the visited set is a flat slice rather than a hash map,
// and finding the predecessor of u in v's rotation also yields the next
// directed-edge index for free. Enumeration order (node ascending, rotation
// order within each node) matches the historical map-based implementation
// exactly.
func (g *PlanarGraph) Faces() []Face {
	faces, _, _ := g.FaceIndex()
	return faces
}

// FaceIndex enumerates the faces like Faces and also returns which face lies
// to the left of every directed edge: the edge u → Neighbors(u)[i] has index
// off[u]+i, and left[off[u]+i] is the face whose boundary walk traverses it.
func (g *PlanarGraph) FaceIndex() (faces []Face, off, left []int32) {
	off, dat := g.flatRows()
	left = make([]int32, len(dat))
	for i := range left {
		left[i] = -1 // not yet visited
	}

	for u := 0; u < g.N(); u++ {
		for k := int(off[u]); k < int(off[u+1]); k++ {
			if left[k] >= 0 {
				continue
			}
			var cycle []udg.NodeID
			cu, ck := udg.NodeID(u), k
			for left[ck] < 0 {
				left[ck] = int32(len(faces))
				cycle = append(cycle, cu)
				cv := dat[ck]
				row := dat[off[cv]:off[cv+1]]
				pi := -1
				for i, w := range row {
					if w == cu {
						pi = i
						break
					}
				}
				if pi < 0 {
					panic("delaunay: rotation lookup for absent edge")
				}
				ni := (pi - 1 + len(row)) % len(row)
				cu, ck = cv, int(off[cv])+ni
			}
			faces = append(faces, Face{Cycle: cycle})
		}
	}
	return faces, off, left
}

// OuterFaceIndex returns the index of the unbounded face in faces: the one
// with the most negative signed area. Returns -1 for an empty graph.
func (g *PlanarGraph) OuterFaceIndex(faces []Face) int {
	best, idx := 0.0, -1
	for i, f := range faces {
		if a := f.area(g); a < best {
			best, idx = a, i
		}
	}
	return idx
}
