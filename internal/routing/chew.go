package routing

import "hybridroute/internal/geom"

// Chew routes from s to t along the faces of the triangulation intersected
// by the segment st, the strategy of Theorem 2.10/2.11: on Delaunay-type
// triangulations the walk is 5.9-competitive. When the segment crosses a
// non-triangle face (a radio hole, Definition 2.4/2.5, or the outer face),
// the walk stops at a boundary node of that face and reports HoleHit — this
// is exactly how the routing protocol of Section 3/4.3 discovers that the
// target is not visible and switches to hull-node waypoint routing.
func (r *Router) Chew(s, t NodeID) Result {
	if s == t {
		return Result{Path: []NodeID{s}, Reached: true}
	}
	if r.g.HasEdge(s, t) {
		return Result{Path: []NodeID{s, t}, Reached: true}
	}
	if r.gbar.Degree(s) == 0 || r.gbar.Degree(t) == 0 {
		// An isolated endpoint (a crashed node) is no face's vertex, so no
		// corridor leads from or to it.
		return r.fallback(s, t)
	}
	prefix, holeFace := r.walk(s, t)
	if len(prefix) == 0 && holeFace < 0 {
		// Degenerate: the segment crosses no face (it runs along edges).
		return r.fallback(s, t)
	}

	L := geom.Seg(r.g.Point(s), r.g.Point(t))
	left, right := r.corridorChains(L, s, t, prefix, holeFace)

	if holeFace >= 0 {
		// Stop at the boundary of the blocking face: the last chain vertex
		// lying on that face.
		res := r.holeHitResult(s, left, right, holeFace)
		return res
	}

	lv := r.validChain(left)
	rv := r.validChain(right)
	switch {
	case lv && rv:
		if chainLength(r, left) <= chainLength(r, right) {
			return Result{Path: left, Reached: true}
		}
		return Result{Path: right, Reached: true}
	case lv:
		return Result{Path: left, Reached: true}
	case rv:
		return Result{Path: right, Reached: true}
	default:
		return r.fallback(s, t)
	}
}

// ChewVia routes along a waypoint sequence (s = w0, w1, …, wk = t), applying
// Chew's algorithm between consecutive waypoints (Sections 3 and 4.3). Legs
// are expected to be visible pairs; a leg that hits a hole anyway falls back
// to the graph shortest path for that leg, flagged in the result.
func (r *Router) ChewVia(waypoints []NodeID) Result {
	if len(waypoints) == 0 {
		return Result{}
	}
	out := Result{Path: []NodeID{waypoints[0]}, Reached: true}
	for i := 1; i < len(waypoints); i++ {
		leg := r.Chew(waypoints[i-1], waypoints[i])
		if !leg.Reached {
			leg = r.fallback(waypoints[i-1], waypoints[i])
			if !leg.Reached {
				out.Reached = false
				return out
			}
			out.Fallback = true
		}
		if leg.Fallback {
			out.Fallback = true
		}
		out.Path = append(out.Path, leg.Path[1:]...)
	}
	return out
}

// walk returns the triangles that segment st passes through, in order, up
// to the first face that is not a triangle, and that face (-1 when the
// segment reaches t through triangles alone): the straight walk of
// Devillers, Pion and Teillaud ("Walking in a triangulation", 2002) through
// the hull-augmented embedding gbar. It leaves s through the wedge of its
// rotation that contains t, or along an edge lying exactly on st, then
// crosses one shared edge per step, the side of st the triangle's third
// vertex lies on choosing the exit edge, and pivots through every vertex
// lying exactly on st. A segment never leaves CH(V), so the walk never
// enters the outer face.
func (r *Router) walk(s, t NodeID) (prefix []int, holeFace int) {
	ps, pt := r.g.Point(s), r.g.Point(t)
	v := s // the last vertex of gbar met on st
	// Each step enters a new face or vertex; the budget only guards against
	// an embedding that is not plane.
	for budget := len(r.faces) + r.g.N(); budget > 0; {
		w, f := r.leave(v, pt)
		switch {
		case w == t:
			return prefix, -1
		case w >= 0:
			v = w
			budget--
			continue
		case f < 0:
			return nil, -1 // no wedge holds t: gbar is not plane
		}
		// f lies in the wedge at v; cross faces until st meets a vertex.
		var a, b NodeID // the crossed edge, a left of st and b right of it
		atVertex := true
	cross:
		for ; budget > 0; budget-- {
			c := r.faces[f].Cycle
			// A longer cycle on three distinct nodes exists only off a plane
			// embedding; the walk stops there too.
			if !r.IsTriangleFace(f) || len(c) != 3 {
				return prefix, f
			}
			prefix = append(prefix, f)
			if atVertex { // entered at v: the far edge is the exit
				i := indexOf(c, v)
				b, a = c[(i+1)%3], c[(i+2)%3]
				atVertex = false
			} else {
				x := c[(indexOf(c, a)+2)%3] // the cycle runs a → b → x
				switch geom.Orient(ps, pt, r.g.Point(x)) {
				case geom.CounterClockwise:
					a = x
				case geom.Clockwise:
					b = x
				default:
					v = x
					break cross
				}
			}
			f = int(r.left[r.edge(a, b)])
		}
		if v == t {
			return prefix, -1
		}
	}
	return nil, -1
}

// leave finds how segment st continues from a vertex v lying on it: along
// the edge to neighbour w when that edge lies on st (f = -1), otherwise into
// the face f in the wedge of v's rotation that contains t (w = -1). It
// gives (-1, -1) only when no wedge holds t, which a plane gbar rules out.
func (r *Router) leave(v NodeID, pt geom.Point) (w NodeID, f int) {
	pv := r.g.Point(v)
	nbrs := r.gbar.Neighbors(v)
	for i, x := range nbrs {
		px := r.g.Point(x)
		ox := geom.Orient(pv, px, pt)
		if ox == geom.Collinear && px.Sub(pv).Dot(pt.Sub(pv)) > 0 {
			return x, -1
		}
		// Is t strictly inside the counterclockwise wedge from x to y?
		py := r.g.Point(nbrs[(i+1)%len(nbrs)])
		oy := geom.Orient(pv, py, pt)
		in := len(nbrs) == 1
		switch geom.Orient(pv, px, py) {
		case geom.CounterClockwise:
			in = ox == geom.CounterClockwise && oy == geom.Clockwise
		case geom.Clockwise:
			in = ox == geom.CounterClockwise || oy == geom.Clockwise
		default: // a straight angle, or the single edge's full turn
			in = in || ox == geom.CounterClockwise
		}
		if in {
			return -1, int(r.left[int(r.eoff[v])+i])
		}
	}
	return -1, -1
}

// edge returns the index of the directed edge u → v of gbar.
func (r *Router) edge(u, v NodeID) int {
	return int(r.eoff[u]) + indexOf(r.gbar.Neighbors(u), v)
}

func indexOf(xs []NodeID, x NodeID) int {
	for i, y := range xs {
		if y == x {
			return i
		}
	}
	return -1
}

// corridorChains builds the left and right boundary chains of the triangle
// corridor. Each chain starts at s; when the corridor is complete (no
// blocking face) it ends at t.
func (r *Router) corridorChains(L geom.Segment, s, t NodeID, prefix []int, holeFace int) (left, right []NodeID) {
	dir := L.B.Sub(L.A)
	len2 := dir.Dot(dir)
	paramOf := func(p geom.Point) float64 { return p.Sub(L.A).Dot(dir) / len2 }

	left = []NodeID{s}
	right = []NodeID{s}
	// A vertex may come back after a gap (st can leave its star and
	// re-enter), so the dedupe is exact. seen hashes every chain vertex to
	// one of 8192 bits on the stack: a clear bit proves v is new, and only a
	// set bit scans the chain, from the tail, where a repeat (one of the two
	// vertices a triangle shares with the previous one) almost always sits.
	var seen [128]uint64
	appendSide := func(chain []NodeID, v NodeID) []NodeID {
		h := uint32(v) * 2654435761 >> 19
		if seen[h>>6]&(1<<(h&63)) != 0 {
			for i := len(chain) - 1; i >= 0; i-- {
				if chain[i] == v {
					return chain
				}
			}
		}
		seen[h>>6] |= 1 << (h & 63)
		return append(chain, v)
	}
	for _, fi := range prefix {
		// Order the triangle's vertices by their projection along the segment
		// so chains grow front to back. The walk only yields 3-cycles.
		var buf [3]NodeID
		verts := buf[:copy(buf[:], r.faces[fi].Cycle)]
		sortByParam(verts, func(v NodeID) float64 { return paramOf(r.g.Point(v)) })
		for _, v := range verts {
			if v == s || v == t {
				continue
			}
			switch geom.Orient(L.A, L.B, r.g.Point(v)) {
			case geom.CounterClockwise:
				left = appendSide(left, v)
			case geom.Clockwise:
				right = appendSide(right, v)
			default:
				// A vertex exactly on the segment belongs to both chains.
				left = appendSide(left, v)
				right = appendSide(right, v)
			}
		}
	}
	if holeFace < 0 {
		left = append(left, t)
		right = append(right, t)
	}
	return left, right
}

// holeHitResult routes to a boundary node of the blocking face along
// whichever chain reaches one, preferring the shorter.
func (r *Router) holeHitResult(s NodeID, left, right []NodeID, holeFace int) Result {
	onFace := map[NodeID]bool{}
	for _, v := range r.faces[holeFace].Cycle {
		onFace[v] = true
	}
	trim := func(chain []NodeID) []NodeID {
		// Truncate the chain at its first vertex on the blocking face.
		for i, v := range chain {
			if onFace[v] {
				return chain[:i+1]
			}
		}
		return nil
	}
	cands := [][]NodeID{}
	if c := trim(left); c != nil && r.validChain(c) {
		cands = append(cands, c)
	}
	if c := trim(right); c != nil && r.validChain(c) {
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		// s itself may already be on the face.
		if onFace[s] {
			return Result{Path: []NodeID{s}, HoleHit: true, HitNode: s, HoleFace: holeFace}
		}
		// Degenerate configuration: walk via graph shortest path to the
		// nearest face vertex.
		best := Result{}
		bestLen := -1.0
		for _, v := range r.faces[holeFace].Cycle {
			if path, l, ok := r.g.ShortestPath(s, v); ok && (bestLen < 0 || l < bestLen) {
				best = Result{Path: path, HoleHit: true, HitNode: v, HoleFace: holeFace, Fallback: true}
				bestLen = l
			}
		}
		return best
	}
	pick := cands[0]
	if len(cands) == 2 && chainLength(r, cands[1]) < chainLength(r, cands[0]) {
		pick = cands[1]
	}
	return Result{Path: pick, HoleHit: true, HitNode: pick[len(pick)-1], HoleFace: holeFace}
}

// validChain reports whether consecutive chain nodes are graph edges.
func (r *Router) validChain(chain []NodeID) bool {
	if len(chain) == 0 {
		return false
	}
	for i := 1; i < len(chain); i++ {
		if !r.g.HasEdge(chain[i-1], chain[i]) {
			return false
		}
	}
	return true
}

func chainLength(r *Router, chain []NodeID) float64 {
	total := 0.0
	for i := 1; i < len(chain); i++ {
		total += r.g.Point(chain[i-1]).Dist(r.g.Point(chain[i]))
	}
	return total
}

// fallback routes via the graph shortest path, flagged as a fallback; it is
// only used for degenerate geometry the corridor walk cannot classify.
func (r *Router) fallback(s, t NodeID) Result {
	path, _, ok := r.g.ShortestPath(s, t)
	if !ok {
		return Result{Path: []NodeID{s}, Stuck: true, Fallback: true}
	}
	return Result{Path: path, Reached: true, Fallback: true}
}

// sortByParam orders vertices by key, keeping the input order of equal keys
// (corridor chains depend on that stability for determinism). It is the
// insertion sort sort.SliceStable runs on short slices, without the
// reflection: it sorts a triangle's three vertices per corridor step.
func sortByParam(vs []NodeID, key func(NodeID) float64) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && key(vs[j]) < key(vs[j-1]); j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}
