// Suspect-based failover: a shared liveness table fed by the reliable
// transport's own ack telemetry. When a next hop exhausts its retransmission
// budget the sender marks it *suspected* — no oracle access to the fault
// configuration, exactly like LinkStats — and subsequent plans route around
// suspects immediately instead of burning another retry budget through them.
// Suspicion is reversible: a recovered node earns readmission through a
// probation of clean first-attempt acks, observed either on probe queries
// (a deterministic fraction of initial plans leave one suspect in place) or
// on traffic from nodes that never learned of the suspicion.

package core

import (
	"sync"

	"hybridroute/internal/sim"
)

// probationAcks is the number of consecutive clean first-attempt acks a
// suspected node must earn before it is readmitted to planning.
const probationAcks = 3

// probeEvery is the inverse probe rate: one in probeEvery (s, t, suspect)
// combinations leaves the suspect in the initial plan so its recovery can be
// observed at all. The choice is a stateless hash, not a counter, so
// concurrent engine workers see identical decisions for identical queries.
const probeEvery = 4

// Liveness is the shared suspected-node table. All methods are safe for
// concurrent use and safe on a nil receiver (a Network without the table
// behaves as if every node were trusted), mirroring how LinkStats degrades.
type Liveness struct {
	mu        sync.Mutex
	suspected []bool
	clean     []int // consecutive clean first-attempt acks while suspected
	count     int   // currently suspected nodes
}

// NewLiveness builds an all-trusted table for n nodes.
func NewLiveness(n int) *Liveness {
	return &Liveness{suspected: make([]bool, n), clean: make([]int, n)}
}

// Suspect marks v suspected and restarts its probation, reporting whether
// the suspicion is new (exactly one caller sees true per suspicion episode,
// keeping per-delivery suspect counts deterministic under parallel stepping).
// Called by the transport when a hop toward v exhausts its retransmission
// budget.
func (lv *Liveness) Suspect(v sim.NodeID) bool {
	if lv == nil || int(v) < 0 || int(v) >= len(lv.suspected) {
		return false
	}
	lv.mu.Lock()
	defer lv.mu.Unlock()
	lv.clean[v] = 0
	if lv.suspected[v] {
		return false
	}
	lv.suspected[v] = true
	lv.count++
	return true
}

// ObserveAck folds one completed transfer toward `to` into the table: a clean
// first-attempt ack advances a suspect's probation (readmitting it after
// probationAcks in a row), anything else restarts it. Observations of
// unsuspected nodes are no-ops, so the table never perturbs clean runs.
func (lv *Liveness) ObserveAck(to sim.NodeID, attempts int, acked bool) {
	if lv == nil || int(to) < 0 || int(to) >= len(lv.suspected) {
		return
	}
	lv.mu.Lock()
	defer lv.mu.Unlock()
	if !lv.suspected[to] {
		return
	}
	if acked && attempts == 1 {
		lv.clean[to]++
		if lv.clean[to] >= probationAcks {
			lv.suspected[to] = false
			lv.clean[to] = 0
			lv.count--
		}
		return
	}
	lv.clean[to] = 0
}

// Suspected reports whether v is currently suspected.
func (lv *Liveness) Suspected(v sim.NodeID) bool {
	if lv == nil || int(v) < 0 || int(v) >= len(lv.suspected) {
		return false
	}
	lv.mu.Lock()
	defer lv.mu.Unlock()
	return lv.suspected[v]
}

// SuspectCount returns the number of currently suspected nodes.
func (lv *Liveness) SuspectCount() int {
	if lv == nil {
		return 0
	}
	lv.mu.Lock()
	defer lv.mu.Unlock()
	return lv.count
}

// AvoidSet returns the hard avoid set — every current suspect except the
// endpoints s and t (a destination must stay reachable, and the source is the
// planner) — or nil when nothing is suspected. Used for mid-query replans,
// which never probe: the payload at stake just lost a retry budget.
func (lv *Liveness) AvoidSet(s, t sim.NodeID) map[sim.NodeID]bool {
	if lv == nil {
		return nil
	}
	lv.mu.Lock()
	defer lv.mu.Unlock()
	if lv.count == 0 {
		return nil
	}
	out := make(map[sim.NodeID]bool, lv.count)
	for v := range lv.suspected {
		if lv.suspected[v] && sim.NodeID(v) != s && sim.NodeID(v) != t {
			out[sim.NodeID(v)] = true
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// AvoidFor returns the initial-plan avoid set for query (s, t): the current
// suspects minus the endpoints, and minus any suspect this particular query
// is elected to probe. Election is a stateless hash of (s, t, suspect) — one
// in probeEvery queries keeps the suspect in its plan, so a recovered node's
// clean acks are eventually observed and probation can complete, while the
// decision stays deterministic under concurrent batch workers.
func (lv *Liveness) AvoidFor(s, t sim.NodeID) map[sim.NodeID]bool {
	if lv == nil {
		return nil
	}
	lv.mu.Lock()
	defer lv.mu.Unlock()
	if lv.count == 0 {
		return nil
	}
	out := make(map[sim.NodeID]bool, lv.count)
	for v := range lv.suspected {
		if !lv.suspected[v] || sim.NodeID(v) == s || sim.NodeID(v) == t {
			continue
		}
		if probeHash(s, t, sim.NodeID(v))%probeEvery == 0 {
			continue // this query probes v
		}
		out[sim.NodeID(v)] = true
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// probeHash mixes (s, t, suspect) into the probe election. Each ID is folded
// in at full width with a splitmix64 finalization between them — shifted
// XOR-packing (`s<<42 ^ t<<21 ^ v`) would silently alias IDs at or above
// 2^21, collapsing distinct queries onto one probe decision.
func probeHash(s, t, v sim.NodeID) uint64 {
	x := probeMix(uint64(s))
	x = probeMix(x ^ uint64(t))
	return probeMix(x ^ uint64(v))
}

// probeMix is the splitmix64 finalization step.
func probeMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
