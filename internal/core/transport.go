// Transport: executing a routing plan as an actual message sequence on the
// simulator. Two delivery modes share one entry point:
//
//   - Lossless (the paper's model): fire-and-forget forwarding. Used whenever
//     the simulator has no faults installed; its rounds and message counts
//     are byte-identical to the original transport.
//   - Reliable: hop-by-hop acknowledgements with a per-hop retransmission
//     budget and a query-level round deadline. When a hop exhausts its
//     budget, the stranded holder notifies the source over a long-range link
//     and the source replans around the dead hop — through the same
//     planSource path (Network or Engine plan cache) that built the original
//     plan — then hands the new remaining path back to the holder. Engaged
//     automatically when fault injection is active, or on request.
//
// Payload words never ride a long-range link in either mode: only position
// queries, failure notices and replanned waypoint lists do.

package core

import (
	"fmt"
	"slices"
	"sync"

	"hybridroute/internal/sim"
	"hybridroute/internal/trace"
)

// Plan-source labels for trace events: the hybrid planners name themselves
// (planSource.label — "network" or "engine"); the LDel² escape paths used
// when the geometric plan is unavailable or loss-detoured carry these.
const (
	planLDelAvoid    = "ldel-avoid"
	planLDelETX      = "ldel-etx"
	planLDelFallback = "ldel-fallback"
	planSuspectAvoid = "suspect-avoid"
)

// posQuery asks the destination for its coordinates over a long-range link
// (the paper's query step: the source knows the destination's ID, so it may
// contact it directly, Section 1.2).
type posQuery struct{}

// posReply carries the coordinates back.
type posReply struct{ x, y float64 }

func (posReply) Words() int { return 2 }

// dataMsg is the payload travelling over ad hoc links in the lossless mode.
// It carries the remaining waypoint/path plan, as in Section 3 ("the
// resulting shortest path is added to the message and used for forwarding").
type dataMsg struct {
	path    []sim.NodeID // remaining nodes to visit, front = next hop
	payload int          // abstract payload size in words
}

func (m dataMsg) Words() int               { return m.payload + len(m.path) }
func (m dataMsg) CarriedIDs() []sim.NodeID { return m.path }

// rdataMsg is the payload hop under the reliable transport: dataMsg plus a
// per-sender transfer sequence number (for ack matching and duplicate
// suppression after retransmissions) and the query source's ID, so any holder
// can reach the source over a long-range link when its next hop stops
// acknowledging. plan is a diagnostic tag naming the planner that produced
// the remaining path — it rides along for trace attribution only and carries
// no modeled words.
type rdataMsg struct {
	n       int
	src     sim.NodeID
	path    []sim.NodeID
	payload int
	plan    string
	// launch tags the payload with the end-to-end launch epoch it belongs to
	// (reliableRun.launch). A nack echoes it so the source can tell a live
	// corridor's distress from a relic of an epoch the relaunch already
	// replaced — resuming a stale strand would graft the abandoned corridor
	// (and whoever swallowed its payload) into the new launch's verification
	// record. Always 0 outside verified delivery, where it costs no words.
	launch int
}

func (m rdataMsg) Words() int {
	w := m.payload + len(m.path) + 2
	if m.launch > 0 {
		w++ // the launch tag rides only on relaunched corridors
	}
	return w
}
func (m rdataMsg) CarriedIDs() []sim.NodeID { return append([]sim.NodeID{m.src}, m.path...) }

// FlowSrc/FlowDst classify the hop as payload-class for the simulator's
// Byzantine intercept (sim.PayloadMessage). The flow destination is the last
// planned node; on the final hop the remaining path is empty and the receiver
// itself is the destination, signalled by -1 (the simulator substitutes the
// actual receiver). Neither accessor adds modeled words.
func (m rdataMsg) FlowSrc() sim.NodeID { return m.src }
func (m rdataMsg) FlowDst() sim.NodeID {
	if len(m.path) > 0 {
		return m.path[len(m.path)-1]
	}
	return -1
}

// hopAck confirms receipt of transfer n to the previous hop (ad hoc).
type hopAck struct{ n int }

// nackMsg tells the source its plan died in the field: the sender still holds
// the payload and the hop toward `dead` exhausted its retransmission budget.
// Long-range; seq matches the eventual resumeMsg to this holder.
type nackMsg struct {
	seq    int
	dead   sim.NodeID
	launch int // epoch of the stranded payload (see rdataMsg.launch)
}

func (m nackMsg) Words() int {
	if m.launch > 0 {
		return 3
	}
	return 2
}

// resumeMsg hands a replanned remaining path back to a stranded holder
// (long-range, source → holder). The path excludes the holder itself; plan
// tags the planner that produced it (trace attribution only, zero words).
type resumeMsg struct {
	seq  int
	path []sim.NodeID
	plan string
}

func (m resumeMsg) Words() int               { return len(m.path) + 2 }
func (m resumeMsg) CarriedIDs() []sim.NodeID { return m.path }

// TransportOptions tunes one on-simulator delivery.
type TransportOptions struct {
	// PayloadWords is the abstract payload size.
	PayloadWords int
	// Retries is the per-hop retransmission budget (also used for the
	// position handshake and failure notices); <= 0 means the default of 3.
	Retries int
	// TimeoutRounds is the query-level deadline: past it every timer stops
	// and the query is reported failed. <= 0 derives a budget from the plan
	// length and retry budget.
	TimeoutRounds int
	// Reliable forces the ack/retry protocol even on a lossless simulator.
	// By default the reliable protocol engages exactly when the simulator
	// has fault injection active.
	Reliable bool
	// LossAware selects loss-aware planning: plans and replans are biased
	// away from links whose observed loss estimate (Network.Link) makes
	// their expected transmission cost exceed a clean detour's.
	LossAware LossAwareMode
}

// LossAwareMode selects when route planning consults the link-quality
// estimates.
type LossAwareMode int

const (
	// LossAwareAuto engages loss-aware planning exactly when the simulator
	// has fault injection active — the default, mirroring how the reliable
	// protocol itself engages. On a lossless simulator it never perturbs
	// plans (and even when engaged it is inert until loss is observed).
	LossAwareAuto LossAwareMode = iota
	// LossAwareOn always consults the estimates.
	LossAwareOn
	// LossAwareOff never does: the retry-through baseline.
	LossAwareOff
)

// DefaultRetries is the per-hop retransmission budget when none is given.
const DefaultRetries = 3

// TransportReport is the measured cost of one on-simulator delivery.
type TransportReport struct {
	Outcome
	Rounds       int // communication rounds from query to delivery
	AdHocMsgs    int // ad hoc messages moved (== hops in lossless mode)
	LongMsgs     int // long-range messages (position query/response, nack/resume)
	AdHocWords   int
	LongWords    int
	DeliveredSim bool // the payload physically arrived at t in the simulation
	// Reliable-mode diagnostics (all zero in lossless mode).
	Retransmits int // timer-driven resends (data, acks excluded, handshakes included)
	Replans     int // distinct dead hops the source replanned around
	DataHops    int // successful payload handovers, replans and retries included
	Detours     int // plans replaced by loss-aware ETX detours (initial + replans)
	// Suspect-based failover diagnostics (zero unless the liveness table is
	// active and populated).
	Suspected      int // next hops this delivery newly marked suspected
	SuspectDetours int // plans diverted around suspected nodes (initial + replans)
	// Byzantine-tier diagnostics (all zero unless the simulator has
	// adversaries installed, which is when the verified-delivery protocol
	// engages).
	Verified         bool // the destination confirmed arrival end to end
	E2EResends       int  // fresh payload launches after failed verification
	MisrouteDetected int  // unforwardable payloads honest holders reported
}

// RouteOnSim executes a routing query as an actual message sequence on the
// simulator: the source asks the target for its position over a long-range
// link, then the payload travels hop by hop over ad hoc links following the
// plan computed by the hybrid protocol (which travels with the message).
// The returned report contains the plan outcome plus the genuinely measured
// rounds and per-link-class message counts. If the simulator has fault
// injection active, the reliable ack/retry/replan protocol is used.
func (nw *Network) RouteOnSim(s, t sim.NodeID, payloadWords int) (*TransportReport, error) {
	return nw.routeOnSim(nw, s, t, TransportOptions{PayloadWords: payloadWords})
}

// RouteOnSimOpt is RouteOnSim with explicit transport options.
func (nw *Network) RouteOnSimOpt(s, t sim.NodeID, opt TransportOptions) (*TransportReport, error) {
	return nw.routeOnSim(nw, s, t, opt)
}

// RouteOnSim executes the query on the simulator like Network.RouteOnSim but
// plans (and replans, under faults) through the engine's plan cache.
func (e *Engine) RouteOnSim(s, t sim.NodeID, payloadWords int) (*TransportReport, error) {
	return e.nw.routeOnSim(e, s, t, TransportOptions{PayloadWords: payloadWords})
}

// RouteOnSimOpt is Engine.RouteOnSim with explicit transport options.
func (e *Engine) RouteOnSimOpt(s, t sim.NodeID, opt TransportOptions) (*TransportReport, error) {
	return e.nw.routeOnSim(e, s, t, opt)
}

func (nw *Network) routeOnSim(planner planSource, s, t sim.NodeID, opt TransportOptions) (*TransportReport, error) {
	plan := nw.route(planner, s, t)
	rep := &TransportReport{Outcome: plan}
	if !plan.Reached {
		return rep, fmt.Errorf("core: no plan for %d->%d", s, t)
	}
	if nw.Sim.IsCrashed(s) || nw.Sim.IsCrashed(t) {
		return rep, fmt.Errorf("core: endpoint crashed (source %d: %v, target %d: %v)",
			s, nw.Sim.IsCrashed(s), t, nw.Sim.IsCrashed(t))
	}
	if s == t {
		// A self-query is answered locally: no rounds, no messages of
		// either class (matching the plan's LongRange of 0).
		rep.DeliveredSim = true
		return rep, nil
	}

	// The paper's standing assumption: (s, t) ∈ E.
	nw.Sim.Teach(s, t)

	initialPlan := planner.label()
	if rep.PlanFallback {
		initialPlan = planLDelFallback
	}
	if opt.Reliable || nw.Sim.FaultsActive() {
		lossAware := opt.LossAware == LossAwareOn ||
			(opt.LossAware == LossAwareAuto && nw.Sim.FaultsActive())
		r := nw.newReliableRun(planner, s, t, opt, rep, lossAware, initialPlan)
		r.divertInitialPlan()
		return r.deliver()
	}
	return nw.deliverLossless(s, t, opt.PayloadWords, rep, initialPlan)
}

// counterProbe snapshots the global counter totals so a delivery can report
// exactly the messages it moved. Totals suffice — the report only ever sums
// the per-node deltas — and they keep the probe allocation-free where the old
// per-node snapshot copied an n-sized counter slice per query.
type counterProbe struct {
	startRounds int
	before      sim.Counters
}

func (nw *Network) probe() counterProbe {
	return counterProbe{startRounds: nw.Sim.Rounds(), before: nw.Sim.TotalCounters()}
}

func (p counterProbe) fill(nw *Network, rep *TransportReport) {
	rep.Rounds = nw.Sim.Rounds() - p.startRounds
	after := nw.Sim.TotalCounters()
	rep.AdHocMsgs += after.AdHocMsgs - p.before.AdHocMsgs
	rep.LongMsgs += after.LongMsgs - p.before.LongMsgs
	rep.AdHocWords += after.AdHocWords - p.before.AdHocWords
	rep.LongWords += after.LongWords - p.before.LongWords
}

// deliverLossless is the paper's fire-and-forget transport, unchanged except
// that a plan exhausting at the wrong node is now recorded and reported as a
// specific misrouted-plan error instead of a generic non-arrival. planLabel
// names the planner that produced the plan, for trace attribution.
func (nw *Network) deliverLossless(s, t sim.NodeID, payloadWords int, rep *TransportReport, planLabel string) (*TransportReport, error) {
	path := rep.Path
	pr := nw.probe()
	tr := nw.tracer

	// Scalar flags replace the old n-sized per-node scratch slices (~1 MB per
	// query at 10⁶ nodes): started is written only from s's step and
	// delivered only from t's, so parallel stepping stays race-free without
	// per-node storage. Misrouted holders — any node, error path only — go
	// into a small mutex-guarded sparse set instead.
	var started, delivered bool
	var misMu sync.Mutex
	var misroutedAt []sim.NodeID
	nw.Sim.SetAllProtos(func(v sim.NodeID) sim.Proto {
		return sim.ProtoFunc(func(ctx *sim.Context, round int, inbox []sim.Envelope) {
			if v == s && !started {
				started = true
				ctx.SendLong(t, posQuery{})
				return
			}
			for _, env := range inbox {
				switch msg := env.Msg.(type) {
				case posQuery:
					p := ctx.Pos()
					ctx.SendLong(env.From, posReply{x: p.X, y: p.Y})
				case posReply:
					// Position known: launch the payload along the plan. A
					// single-node plan with s != t has nowhere to forward to
					// and must not be counted as delivery at t.
					if v == s && len(path) > 1 {
						if tr != nil {
							tr.Emit(trace.Event{Kind: trace.KindHopSend, Round: round, From: int(v), To: int(path[1]), Attempt: 1, Plan: planLabel})
						}
						ctx.SendAdHoc(path[1], dataMsg{path: path[2:], payload: payloadWords})
					}
				case dataMsg:
					if v == t && len(msg.path) == 0 {
						delivered = true
						return
					}
					if len(msg.path) > 0 {
						if tr != nil {
							tr.Emit(trace.Event{Kind: trace.KindHopSend, Round: round, From: int(v), To: int(msg.path[0]), Attempt: 1, Plan: planLabel})
						}
						ctx.SendAdHoc(msg.path[0], dataMsg{path: msg.path[1:], payload: msg.payload})
					} else {
						// Plan exhausted before reaching t: the payload is
						// stranded here. Record where for the error report.
						misMu.Lock()
						misroutedAt = append(misroutedAt, v)
						misMu.Unlock()
					}
				}
			}
		})
	})
	if _, err := nw.Sim.Run(); err != nil {
		// Run aborted (MaxRounds exhaustion or a strict-mode violation): the
		// rounds and messages spent up to the abort are real cost — fill the
		// report before returning so callers that tolerate partial failures
		// (experiment sweeps) still account the work.
		pr.fill(nw, rep)
		return rep, err
	}
	pr.fill(nw, rep)
	// Only the target's own flag counts as physical delivery; the s == t
	// case was answered before any message moved.
	rep.DeliveredSim = delivered
	if !rep.DeliveredSim {
		if len(misroutedAt) > 0 {
			// The smallest holder keeps the message deterministic regardless
			// of append order under parallel stepping.
			return rep, fmt.Errorf("core: misrouted plan: remaining path exhausted at node %d before reaching %d", slices.Min(misroutedAt), t)
		}
		return rep, fmt.Errorf("core: payload did not arrive at %d", t)
	}
	return rep, nil
}

// --- reliable transport ---

// ackWait is the rounds a sender waits before declaring an attempt lost: one
// round for its message to arrive, one for the answer to come back.
const ackWait = 2

// verifyWait is the cadence of end-to-end verification polls: the source asks
// the destination over the long-range edge whether the payload arrived, on
// this period, until it hears yes (or gives the launch up).
const verifyWait = 2 * ackWait

// verifyQuery polls the destination end to end: "did my payload arrive?" —
// the freeloader-detection probe a forged hop acknowledgement cannot answer
// (PAPERS.md: "send messages through the suspect node and see if they are
// delivered"). n tags the payload launch being verified. Long-range.
type verifyQuery struct{ n int }

func (verifyQuery) Words() int { return 1 }

// verifyReply is the destination's answer. A colluding adversarial
// destination forges delivered=true for flows a fellow adversary discarded.
type verifyReply struct {
	n         int
	delivered bool
}

func (verifyReply) Words() int { return 2 }

// rpending is an outstanding transfer awaiting its hop acknowledgement.
type rpending struct {
	to       sim.NodeID
	msg      rdataMsg
	sentAt   int
	attempts int
}

// rstrand is a payload parked at a holder whose next hop died, waiting for a
// replanned path from the source.
type rstrand struct {
	seq      int
	payload  int
	sentAt   int
	attempts int
	dead     sim.NodeID
	launch   int // epoch of the held payload (see rdataMsg.launch)
}

// linkObs is one completed transfer's outcome over a directed ad hoc link,
// recorded by the sending node and folded into Network.Link after the run
// (per-node slices keep recording race-free under parallel stepping; the
// fold happens in node order, so the estimates are deterministic).
type linkObs struct {
	to       sim.NodeID
	attempts int
	acked    bool
}

// rnode is the per-node reliable-transport state. Each node's state is
// touched only by its own protocol step, so parallel stepping stays
// race-free; the driver reads it after the run has quiesced.
type rnode struct {
	pends     []*rpending
	strands   []*rstrand
	nextN     int
	seen      map[sim.NodeID]map[int]bool
	delivered bool
	misrouted bool
	hopsIn    int // fresh (non-duplicate) payload receipts
	retrans   int
	suspects  int // next hops this node marked suspected (retry exhaustion)
	misdetect int // unforwardable payloads this (honest) holder reported
	obs       []linkObs
	// abandoned records a strand this holder gave up on after its failure
	// notices to the source went unanswered — the payload is gone, and the
	// query error must say where and why instead of "did not arrive".
	abandoned *rstrand
}

// reliableRun is one query under the ack/retry/replan protocol. Every node's
// protocol step is reliableRun.step; it dispatches each message kind and each
// timer to a method of its own. The source fields are touched only by s's
// step and each rnode only by its own node's, so parallel stepping stays
// race-free; the driver reads everything after the run has quiesced.
type reliableRun struct {
	nw          *Network
	planner     planSource
	s, t        sim.NodeID
	opt         TransportOptions
	rep         *TransportReport
	tr          *trace.Tracer
	lossAware   bool   // replans consult the link-quality estimates
	initialPlan string // planner label of the starting plan, for trace attribution
	// verif engages the end-to-end verified-delivery protocol exactly when
	// the simulator has Byzantine adversaries installed: hop-by-hop acks are
	// trustworthy against plain loss and crashes, and keeping the protocol
	// off then preserves those runs byte for byte.
	verif    bool
	retries  int
	timeout  int
	deadline int
	// launchBudget is how long the source lets one launch stay unverified
	// (and itself idle) before relaunching end to end: a clean traversal of
	// the plan plus one retransmission round trip per hop.
	launchBudget int
	st           []rnode

	// Source state.
	posSentAt   int
	posAttempts int
	havePos     bool
	dead        map[sim.NodeID]bool
	failure     string
	// Verified-delivery state (engaged only under adversaries).
	verSentAt  int // round of the last verification poll (-1: none yet)
	verFails   int // "not delivered" replies since the current launch
	launch     int // payload launch number (0 = initial)
	launchedAt int // round the current launch (or its last resume) started
	// launchSeen holds the interior nodes handed a leg of the current
	// launch: probation credit requires membership, and a relaunch steers
	// around them.
	launchSeen map[sim.NodeID]bool
	// resumeBudget caps how many stranded corridors the current launch may
	// resume with a fresh path. Every resume opens a corridor that can
	// strand again (and, with retries, nack several times more), so under
	// adversarial misrouting an unbounded resume policy breeds corridors
	// faster than they die — a branching process that outlives any
	// deadline. Refilled per launch.
	resumeBudget int
}

// newReliableRun prepares the reliable delivery of rep's plan from s to t;
// initialPlan labels the planner that produced it.
func (nw *Network) newReliableRun(planner planSource, s, t sim.NodeID, opt TransportOptions, rep *TransportReport, lossAware bool, initialPlan string) *reliableRun {
	retries := opt.Retries
	if retries <= 0 {
		retries = DefaultRetries
	}
	return &reliableRun{
		nw: nw, planner: planner, s: s, t: t, opt: opt, rep: rep, tr: nw.tracer,
		lossAware: lossAware, initialPlan: initialPlan, verif: nw.Sim.AdversaryActive(), retries: retries,
		posSentAt: -1, verSentAt: -1, dead: make(map[sim.NodeID]bool),
	}
}

// divertInitialPlan adjusts the starting plan before launch. Loss-aware
// planning swaps in an ETX detour when the plan crosses links observed
// dropping messages. Suspect-based failover then diverts a plan that crosses
// a node the liveness table currently suspects, instead of burning a retry
// budget through it. AvoidFor exempts the nodes this query is elected to
// probe (so recoveries are eventually observed); if no path avoids every
// suspect the plan stands and the retry protocol adjudicates.
func (r *reliableRun) divertInitialPlan() {
	rep := r.rep
	if r.lossAware && r.nw.applyLossDetour(&rep.Outcome, r.t, nil) {
		rep.Detours++
		r.initialPlan = planLDelETX
	}
	avoid := r.nw.Live.AvoidFor(r.s, r.t)
	if len(avoid) == 0 || !pathHitsAny(rep.Path, avoid) {
		return
	}
	p, _, ok := r.escapePath(r.s, avoid)
	if !ok {
		return
	}
	rep.Path = p
	rep.Waypoints = nil
	rep.SuspectDetours++
	r.initialPlan = planSuspectAvoid
	if r.tr != nil {
		r.tr.Emit(trace.Event{Kind: trace.KindDetour, From: int(r.s), To: int(r.t), Plan: planSuspectAvoid, Value: len(avoid)})
	}
}

// deliver runs the protocol on the simulator and reports the outcome.
func (r *reliableRun) deliver() (*TransportReport, error) {
	nw := r.nw
	r.timeout = r.opt.TimeoutRounds
	if r.timeout <= 0 {
		// Budget: every hop may burn (retries+1) attempts of ackWait+1
		// rounds, plus handshake, nack/resume round trips and slack for
		// replanned (longer) paths. Verified delivery may relaunch the
		// payload end to end up to `retries` times, so its budget doubles.
		r.timeout = (len(r.rep.Path)+8)*(ackWait+1)*(r.retries+1) + 32
		if r.verif {
			r.timeout *= 2
		}
	}
	r.launchBudget = (len(r.rep.Path) + 2) * (ackWait + 1)
	pr := nw.probe()
	r.deadline = nw.Sim.Rounds() + r.timeout
	// Per-node duplicate-suppression maps are created lazily on first packet
	// receipt: only nodes the payload actually crosses pay for them.
	r.st = make([]rnode, nw.G.N())
	nw.Sim.SetAllProtos(func(v sim.NodeID) sim.Proto {
		return sim.ProtoFunc(func(ctx *sim.Context, round int, inbox []sim.Envelope) {
			r.step(v, ctx, round, inbox)
		})
	})
	_, err := nw.Sim.Run()
	// A Run abort (MaxRounds exhaustion or a strict-mode violation) still
	// spent real rounds, messages and retransmissions: the report is filled
	// either way so callers that tolerate partial failures (experiment
	// sweeps) still account the work.
	r.fillReport(pr)
	if err != nil {
		return r.rep, err
	}
	r.foldObservations()
	return r.rep, r.outcomeErr()
}

// step is node v's protocol step for one round: the source opens the
// position handshake, every message is handled by kind, and the timers run
// until the deadline passes.
func (r *reliableRun) step(v sim.NodeID, ctx *sim.Context, round int, inbox []sim.Envelope) {
	me := &r.st[v]
	if v == r.s && r.posSentAt < 0 && r.failure == "" {
		r.posSentAt = round
		r.posAttempts = 1
		ctx.SendLong(r.t, posQuery{})
	}
	for _, env := range inbox {
		switch msg := env.Msg.(type) {
		case posQuery:
			p := ctx.Pos()
			ctx.SendLong(env.From, posReply{x: p.X, y: p.Y})
		case posReply:
			if v == r.s && !r.havePos {
				r.onPosReply(ctx, me, round)
			}
		case rdataMsg:
			r.onData(ctx, me, round, env.From, msg)
		case hopAck:
			r.onHopAck(me, v, round, env.From, msg)
		case verifyQuery:
			r.onVerifyQuery(ctx, me, env.From, msg)
		case verifyReply:
			if v == r.s {
				r.onVerifyReply(msg)
			}
		case nackMsg:
			if v == r.s && r.havePos && r.failure == "" {
				r.onNack(ctx, round, env.From, msg)
			}
		case resumeMsg:
			r.onResume(ctx, me, round, msg)
		}
	}
	if round >= r.deadline {
		return // deadline passed: all timers stop, the run quiesces
	}
	if v == r.s && !r.havePos && r.failure == "" {
		r.handshakeTimer(ctx, me, round)
	}
	if v == r.s && r.verif && r.havePos && !r.rep.Verified && !me.misrouted && r.failure == "" {
		r.verifyTimer(ctx, me, round)
	}
	r.hopTimers(ctx, me, v, round)
	r.nackTimers(ctx, me, v, round)
	if len(me.pends) > 0 || len(me.strands) > 0 {
		ctx.KeepAlive()
	}
}

// onPosReply launches the payload along the plan once the source knows the
// destination's position.
func (r *reliableRun) onPosReply(ctx *sim.Context, me *rnode, round int) {
	r.havePos = true
	path := r.rep.Path
	if len(path) <= 1 {
		me.misrouted = true // a plan of one node with s != t cannot deliver
		return
	}
	r.launchedAt = round
	r.resumeBudget = len(path) + 2*r.retries
	r.noteLaunchPath(path)
	r.sendData(ctx, me, round, path[1:], r.opt.PayloadWords, r.initialPlan, r.launch)
}

// onData acknowledges a payload hop and then delivers, forwards or strands
// the payload.
func (r *reliableRun) onData(ctx *sim.Context, me *rnode, round int, from sim.NodeID, msg rdataMsg) {
	// Always acknowledge — the previous hop may be retransmitting because
	// our earlier ack was lost.
	ctx.SendAdHoc(from, hopAck{n: msg.n})
	if me.seen[from][msg.n] {
		return
	}
	if me.seen == nil {
		me.seen = make(map[sim.NodeID]map[int]bool)
	}
	if me.seen[from] == nil {
		me.seen[from] = make(map[int]bool)
	}
	me.seen[from][msg.n] = true
	me.hopsIn++
	v := ctx.ID()
	switch {
	case v == r.t && (len(msg.path) == 0 || r.verif):
		// Arrival at the destination delivers; under verification even
		// with plan leftover (a misroute can land the payload at t early).
		me.delivered = true
	case len(msg.path) == 0 && !r.verif:
		me.misrouted = true
	case len(msg.path) == 0 || (r.verif && !r.nw.G.HasEdge(v, msg.path[0])):
		// Under verification the payload was misrouted here: its plan is
		// exhausted at the wrong node, or its next hop is not our neighbor
		// (strict mode would abort the run). Blame the forwarder and ask
		// the source for a fresh remaining path; the nack/resume machinery
		// then replans around the adversary and resumes from here.
		me.misdetect++
		r.strand(ctx, me, round, msg.payload, from, msg.launch, trace.Event{Kind: trace.KindMisrouteDetected}, true)
	default:
		r.sendData(ctx, me, round, msg.path, msg.payload, msg.plan, msg.launch)
	}
}

// onHopAck settles the outstanding transfer the acknowledgement matches.
func (r *reliableRun) onHopAck(me *rnode, v sim.NodeID, round int, from sim.NodeID, msg hopAck) {
	for i, p := range me.pends {
		if p.to == from && p.msg.n == msg.n {
			if r.tr != nil {
				r.tr.Emit(trace.Event{Kind: trace.KindHopAck, Round: round, From: int(v), To: int(p.to), Seq: p.msg.n, Attempt: p.attempts, Plan: p.msg.plan})
			}
			me.obs = append(me.obs, linkObs{to: p.to, attempts: p.attempts, acked: true})
			me.pends = slices.Delete(me.pends, i, i+1)
			return
		}
	}
}

// onVerifyQuery answers an end-to-end verification poll truthfully — unless
// this node is a colluding adversary covering for a fellow adversary's
// discarded payload, in which case the confirmation is forged.
func (r *reliableRun) onVerifyQuery(ctx *sim.Context, me *rnode, from sim.NodeID, msg verifyQuery) {
	d := me.delivered
	if !d && r.verif && r.nw.Sim.AdversaryLaundered(from, ctx.ID()) {
		d = true
	}
	ctx.SendLong(from, verifyReply{n: msg.n, delivered: d})
}

// onVerifyReply records the destination's answer about the current launch.
func (r *reliableRun) onVerifyReply(msg verifyReply) {
	if msg.n != r.launch || r.rep.Verified || r.failure != "" {
		return
	}
	if msg.delivered {
		r.rep.Verified = true
	} else {
		r.verFails++
	}
}

// onNack answers a stranded holder's failure notice: the source replans
// around the dead hop and resumes the holder with the new remaining path,
// or releases the strand.
func (r *reliableRun) onNack(ctx *sim.Context, round int, holder sim.NodeID, msg nackMsg) {
	release := func() { ctx.SendLong(holder, resumeMsg{seq: msg.seq}) }
	if r.verif {
		// Past the deadline no fresh corridor may be opened. The timers
		// already stop then, but under adversaries nacks are born in inbox
		// handlers (a misrouted payload strands wherever it lands), so
		// without this gate the nack -> resume -> wander -> nack cycle would
		// outlive the deadline indefinitely instead of quiescing.
		if round >= r.deadline {
			return
		}
		if msg.launch != r.launch {
			// The strand belongs to an epoch a relaunch already replaced:
			// its corridor was abandoned, so release the payload instead of
			// resuming it. Resuming would graft the stale corridor —
			// including whoever silently swallowed its payload — into the
			// current launch's verification record, crediting nodes the
			// verified payload never touched.
			release()
			return
		}
		if r.resumeBudget <= 0 {
			// This launch already spent its corridor budget: release the
			// strand instead of opening yet another corridor, and relaunch
			// from the source with a refilled budget.
			release()
			r.forceRelaunch(round)
			return
		}
		r.resumeBudget--
	}
	// Under verification a nack's blame is unreliable — a forger whose own
	// discarded forward never got acked nacks blaming its innocent next hop,
	// including the query endpoints themselves. Letting s or t into the dead
	// set would poison every later replan (no path reaches an avoided
	// target), so endpoint blame is ignored there; without adversaries blame
	// is trustworthy and an unresponsive target rightly ends the query.
	if !r.dead[msg.dead] && (!r.verif || (msg.dead != r.s && msg.dead != r.t)) {
		r.dead[msg.dead] = true
		r.rep.Replans++
	}
	full, plan, ok := r.replanFrom(holder, nil)
	if !ok || len(full) < 2 {
		if r.verif && r.launch < r.retries {
			// The stranded corridor is unrecoverable from the holder. Under
			// verification this is not fatal: release the strand and
			// relaunch from the source. A frame-shifting forger can exhaust
			// a holder's whole neighborhood with bogus nacks without ever
			// cutting s from t.
			release()
			r.forceRelaunch(round)
			return
		}
		r.failure = fmt.Sprintf("no path from %d to %d around dead nodes %v", holder, r.t, deadList(r.dead))
		return
	}
	if r.tr != nil {
		r.tr.Emit(trace.Event{Kind: trace.KindReplan, Round: round, From: int(holder), To: int(r.t), Plan: plan, Value: len(r.dead)})
	}
	// Record the resumed leg's nodes for verification credit. Deliberately
	// NOT a relaunch-clock reset: a forger that keeps nacking (blaming its
	// own neighbors) must not be able to postpone the end-to-end relaunch
	// forever.
	r.noteLaunchPath(full)
	ctx.SendLong(holder, resumeMsg{seq: msg.seq, path: full[1:], plan: plan})
}

// onResume continues (or releases) the strand the source answered.
func (r *reliableRun) onResume(ctx *sim.Context, me *rnode, round int, msg resumeMsg) {
	for i, sd := range me.strands {
		if sd.seq != msg.seq {
			continue
		}
		me.strands = slices.Delete(me.strands, i, i+1)
		if len(msg.path) > 0 {
			r.sendData(ctx, me, round, msg.path, sd.payload, msg.plan, sd.launch)
		} else if !r.verif {
			// Without verification an empty resume means the plan cannot
			// continue from here; under verification it releases the strand
			// because the source abandoned this corridor for a fresh launch.
			me.misrouted = true
		}
		return
	}
}

// handshakeTimer retransmits the source's position query until answered.
func (r *reliableRun) handshakeTimer(ctx *sim.Context, me *rnode, round int) {
	if round >= r.posSentAt+ackWait {
		if r.posAttempts > r.retries {
			r.failure = fmt.Sprintf("position query to %d unanswered after %d attempts", r.t, r.posAttempts)
		} else {
			r.posAttempts++
			r.posSentAt = round
			me.retrans++
			ctx.SendLong(r.t, posQuery{})
		}
	}
	if r.failure == "" {
		ctx.KeepAlive()
	}
}

// verifyTimer polls the destination end to end until it confirms arrival,
// and relaunches the payload from scratch when a launch stays unverified
// past its budget with nothing left in flight at the source — the case a
// forged hop acknowledgement produces (every hop "succeeded", the payload is
// gone, and no nack will ever come).
func (r *reliableRun) verifyTimer(ctx *sim.Context, me *rnode, round int) {
	if r.verSentAt < 0 || round >= r.verSentAt+verifyWait {
		r.verSentAt = round
		ctx.SendLong(r.t, verifyQuery{n: r.launch})
	}
	if r.verFails > 0 && round >= r.launchedAt+r.launchBudget &&
		len(me.pends) == 0 && len(me.strands) == 0 {
		r.relaunch(ctx, me, round)
	}
	if r.failure == "" {
		ctx.KeepAlive()
	}
}

// relaunch gives up the current launch and sends the payload again from the
// source, down a corridor disjoint from the one that just failed where one
// exists (replanFrom readmits its nodes if nothing else clears them). A
// selective-drop adversary black-holes flows deterministically, so
// relaunching down the same corridor would fail the same way.
func (r *reliableRun) relaunch(ctx *sim.Context, me *rnode, round int) {
	if r.tr != nil {
		r.tr.Emit(trace.Event{Kind: trace.KindVerifyFail, Round: round, From: int(r.s), To: int(r.t), Attempt: r.launch + 1})
	}
	if r.launch >= r.retries {
		r.failure = fmt.Sprintf("delivery to %d unverified after %d launches", r.t, r.launch+1)
		return
	}
	full, plan, ok := r.replanFrom(r.s, r.launchSeen)
	if !ok || len(full) < 2 {
		r.failure = fmt.Sprintf("no relaunch path from %d to %d around dead nodes %v", r.s, r.t, deadList(r.dead))
		return
	}
	r.launch++
	r.verFails = 0
	r.verSentAt = round
	r.launchedAt = round
	r.resumeBudget = len(full) + 2*r.retries
	clear(r.launchSeen)
	r.noteLaunchPath(full)
	if r.tr != nil {
		r.tr.Emit(trace.Event{Kind: trace.KindE2EResend, Round: round, From: int(r.s), To: int(r.t), Plan: plan, Value: r.launch})
	}
	r.sendData(ctx, me, round, full[1:], r.opt.PayloadWords, plan, r.launch)
}

// forceRelaunch fails the current launch's verification and expires its
// budget, so the verify timer relaunches from the source on its next tick.
func (r *reliableRun) forceRelaunch(round int) {
	r.verFails++
	r.launchedAt = round - r.launchBudget
}

// hopTimers retransmits unacknowledged transfers and handles the hops whose
// retransmission budget ran out.
func (r *reliableRun) hopTimers(ctx *sim.Context, me *rnode, v sim.NodeID, round int) {
	for i := 0; i < len(me.pends); {
		p := me.pends[i]
		if round < p.sentAt+ackWait {
			i++
			continue
		}
		if p.attempts <= r.retries {
			p.attempts++
			p.sentAt = round
			me.retrans++
			if r.tr != nil {
				r.tr.Emit(trace.Event{Kind: trace.KindHopRetry, Round: round, From: int(v), To: int(p.to), Seq: p.msg.n, Attempt: p.attempts, Plan: p.msg.plan})
			}
			ctx.SendAdHoc(p.to, p.msg)
			i++
			continue
		}
		me.pends = slices.Delete(me.pends, i, i+1)
		r.hopDead(ctx, me, v, round, p)
	}
}

// hopDead handles a transfer whose budget is exhausted: the hop is dead. Its
// next hop is marked suspected in the shared liveness table, so every later
// plan — this query's replans and other queries' initial plans — routes
// around it without burning another budget. The source replans locally; any
// other holder strands the payload and raises a nack.
func (r *reliableRun) hopDead(ctx *sim.Context, me *rnode, v sim.NodeID, round int, p *rpending) {
	me.obs = append(me.obs, linkObs{to: p.to, attempts: p.attempts, acked: false})
	r.suspect(me, trace.Event{Round: round, From: int(v), To: int(p.to), Attempt: p.attempts, Plan: p.msg.plan})
	if v != r.s {
		r.strand(ctx, me, round, p.msg.payload, p.to, p.msg.launch, trace.Event{Kind: trace.KindHopNack, Attempt: 1, Plan: p.msg.plan}, false)
		return
	}
	if !r.dead[p.to] {
		r.dead[p.to] = true
		r.rep.Replans++
	}
	full, plan, ok := r.replanFrom(r.s, nil)
	if !ok || len(full) < 2 {
		if r.verif && r.launch < r.retries {
			// As in onNack: under verification an unplannable local replan
			// is not fatal — relaunch from the source instead.
			r.forceRelaunch(round)
			return
		}
		r.failure = fmt.Sprintf("no path from %d to %d around dead nodes %v", r.s, r.t, deadList(r.dead))
		return
	}
	if r.tr != nil {
		r.tr.Emit(trace.Event{Kind: trace.KindReplan, Round: round, From: int(r.s), To: int(r.t), Plan: plan, Value: len(r.dead)})
	}
	r.launchedAt = round
	r.noteLaunchPath(full)
	r.sendData(ctx, me, round, full[1:], p.msg.payload, plan, r.launch)
}

// nackTimers retransmits failure notices that the source has not answered,
// abandoning the strand once the budget runs out.
func (r *reliableRun) nackTimers(ctx *sim.Context, me *rnode, v sim.NodeID, round int) {
	for i := 0; i < len(me.strands); {
		sd := me.strands[i]
		if round < sd.sentAt+ackWait {
			i++
			continue
		}
		if sd.attempts > r.retries {
			// The source never answered: the payload is abandoned here.
			// Record the strand so the query error names the holder and the
			// dead hop instead of reporting a generic non-arrival.
			me.abandoned = sd
			me.strands = slices.Delete(me.strands, i, i+1)
			continue
		}
		sd.attempts++
		sd.sentAt = round
		me.retrans++
		if r.tr != nil {
			r.tr.Emit(trace.Event{Kind: trace.KindHopNack, Round: round, From: int(v), To: int(sd.dead), Seq: sd.seq, Attempt: sd.attempts})
		}
		ctx.SendLong(r.s, nackMsg{seq: sd.seq, dead: sd.dead, launch: sd.launch})
		i++
	}
}

// sendData starts (and registers) one transfer from the stepping node to
// rest[0], carrying rest[1:] as the remaining plan; plan tags the planner
// whose path this leg executes, launch the epoch the payload belongs to.
func (r *reliableRun) sendData(ctx *sim.Context, me *rnode, round int, rest []sim.NodeID, payload int, plan string, launch int) {
	to := rest[0]
	m := rdataMsg{n: me.nextN, src: r.s, path: rest[1:], payload: payload, plan: plan, launch: launch}
	me.nextN++
	if r.tr != nil {
		r.tr.Emit(trace.Event{Kind: trace.KindHopSend, Round: round, From: int(ctx.ID()), To: int(to), Seq: m.n, Attempt: 1, Plan: plan})
	}
	ctx.SendAdHoc(to, m)
	me.pends = append(me.pends, &rpending{to: to, msg: m, sentAt: round, attempts: 1})
}

// strand parks a payload at the stepping holder because its next hop dead
// failed, and sends the source the first failure notice. ev announces the
// strand in the trace (its route fields are filled here). With blame set the
// failed hop is also marked suspected — a misroute is detected here, while
// an exhausted hop was already suspected by hopDead. The first notice is a
// first send, not a retransmission: only nackTimers' resends count.
func (r *reliableRun) strand(ctx *sim.Context, me *rnode, round, payload int, dead sim.NodeID, launch int, ev trace.Event, blame bool) {
	me.nextN++
	sd := &rstrand{seq: me.nextN, payload: payload, sentAt: round, attempts: 1, dead: dead, launch: launch}
	me.strands = append(me.strands, sd)
	v := ctx.ID()
	if r.tr != nil {
		ev.Round, ev.From, ev.To, ev.Seq = round, int(v), int(dead), sd.seq
		r.tr.Emit(ev)
	}
	if blame {
		r.suspect(me, trace.Event{Round: round, From: int(v), To: int(dead)})
	}
	ctx.SendLong(r.s, nackMsg{seq: sd.seq, dead: dead, launch: launch})
}

// suspect marks ev.To suspected in the shared liveness table, counting and
// tracing the suspicion when it is new.
func (r *reliableRun) suspect(me *rnode, ev trace.Event) {
	if !r.nw.Live.Suspect(sim.NodeID(ev.To)) {
		return
	}
	me.suspects++
	if r.tr != nil {
		ev.Kind = trace.KindSuspect
		r.tr.Emit(ev)
	}
}

// noteLaunchPath records the interior nodes of a path handed out for the
// current launch.
func (r *reliableRun) noteLaunchPath(path []sim.NodeID) {
	for _, v := range path {
		if v == r.s || v == r.t {
			continue
		}
		if r.launchSeen == nil {
			r.launchSeen = make(map[sim.NodeID]bool)
		}
		r.launchSeen[v] = true
	}
}

// replanFrom computes a fresh hop path holder→t around the known-dead nodes,
// the liveness table's current suspects and the diversify set (the interior
// of a launch that just failed verification): first through the hybrid
// planner (Network or Engine plan cache), loss-detoured when the mode is on;
// if that plan crosses an avoided node, through escapePath. Mid-query replans
// never probe a suspect — the payload at stake just lost a retry budget — but
// suspicion stays soft: if no path avoids every suspect, the suspects are
// readmitted and only the dead set is avoided. The second return names the
// planner that produced the path, for trace attribution.
func (r *reliableRun) replanFrom(holder sim.NodeID, diversify map[sim.NodeID]bool) ([]sim.NodeID, string, bool) {
	suspects := mergeAvoid(r.nw.Live.AvoidSet(holder, r.t), diversify)
	avoid := mergeAvoid(r.dead, suspects)
	out := r.nw.route(r.planner, holder, r.t)
	if out.Reached && !pathHitsAny(out.Path, avoid) {
		plan := r.planner.label()
		if out.PlanFallback {
			plan = planLDelFallback
		}
		if r.lossAware && r.nw.applyLossDetour(&out, r.t, avoid) {
			r.rep.Detours++
			plan = planLDelETX
		}
		return out.Path, plan, true
	}
	if p, plan, ok := r.escapePath(holder, avoid); ok {
		if out.Reached && !pathHitsAny(out.Path, r.dead) {
			// Only suspects blocked the hybrid plan.
			r.rep.SuspectDetours++
			plan = planSuspectAvoid
		}
		return p, plan, true
	}
	if len(suspects) > 0 {
		if p, plan, ok := r.escapePath(holder, r.dead); ok {
			return p, plan, true
		}
	}
	if r.verif {
		// Even the dead set cuts holder from t. Under adversaries that set
		// is itself unreliable — a frame-shifting forger fills it with
		// innocent neighbors of the corridor until the target looks
		// disconnected — so as a last resort readmit it. If a readmitted
		// node really is dead the launch fails verification and the
		// relaunch machinery owns the failure; if it was framed, the query
		// gets through.
		return r.escapePath(holder, nil)
	}
	return nil, "", false
}

// escapePath plans holder→t over LDel² around the avoid set, bypassing the
// hybrid planner: ETX-weighted when loss-aware planning is engaged (so the
// escape also prefers low-loss links), plain node-avoiding otherwise. ETX
// multipliers are finite, so both searches drop exactly the avoided nodes and
// succeed or fail together. The label names the search, for trace
// attribution.
func (r *reliableRun) escapePath(holder sim.NodeID, avoid map[sim.NodeID]bool) ([]sim.NodeID, string, bool) {
	if r.lossAware {
		p, _, ok := r.nw.LDel.ShortestPathWeighted(holder, r.t, r.nw.etxWeight(r.t, avoid))
		return p, planLDelETX, ok
	}
	p, _, ok := r.nw.LDel.ShortestPathAvoiding(holder, r.t, avoid)
	return p, planLDelAvoid, ok
}

// fillReport copies the run's measured cost and diagnostics into the report.
func (r *reliableRun) fillReport(pr counterProbe) {
	rep := r.rep
	pr.fill(r.nw, rep)
	rep.DeliveredSim = r.st[r.t].delivered
	rep.E2EResends = r.launch
	for v := range r.st {
		rep.Retransmits += r.st[v].retrans
		rep.DataHops += r.st[v].hopsIn
		rep.Suspected += r.st[v].suspects
		rep.MisrouteDetected += r.st[v].misdetect
	}
}

// foldObservations feeds the ack outcomes back into the link-quality
// estimates and the liveness table's probation counters, in node order so
// the fold is deterministic. Clean first-attempt successes are no-ops inside
// Observe and ObserveAck ignores unsuspected nodes, so lossless runs leave
// both untouched. Under adversaries two corrections apply: a
// telemetry-lying node's own observations are inverted (it frames whatever
// it touched as dead), and probation credit requires end-to-end verification
// of the path the node was actually on — a forged hop ack looks clean one
// hop upstream, so it must not readmit a suspect, not even when the query
// later delivered via a relaunch around the forger.
func (r *reliableRun) foldObservations() {
	nw := r.nw
	creditTo := func(to sim.NodeID) bool {
		return !r.verif || (r.rep.Verified && (r.launchSeen[to] || to == r.t))
	}
	for v := range r.st {
		liar := r.verif && nw.Sim.AdversaryBehaviorOf(sim.NodeID(v))&sim.AdvLieTelemetry != 0
		for _, o := range r.st[v].obs {
			attempts, acked := o.attempts, o.acked
			if liar {
				attempts, acked = r.retries+1, false
			}
			if nw.Link != nil {
				nw.Link.Observe(sim.NodeID(v), o.to, attempts, acked)
			}
			nw.Live.ObserveAck(o.to, attempts, acked && creditTo(o.to))
		}
	}
}

// outcomeErr names why a finished run did not deliver (nil if it did).
func (r *reliableRun) outcomeErr() error {
	if r.rep.DeliveredSim {
		return nil
	}
	for v := range r.st {
		if r.st[v].misrouted {
			return fmt.Errorf("core: misrouted plan: remaining path exhausted at node %d before reaching %d", v, r.t)
		}
	}
	if r.failure != "" {
		return fmt.Errorf("core: delivery %d->%d failed: %s", r.s, r.t, r.failure)
	}
	for v := range r.st {
		if sd := r.st[v].abandoned; sd != nil {
			return fmt.Errorf("core: stranded payload at node %d: next hop %d dead and %d failure notices to source %d went unanswered", v, sd.dead, sd.attempts, r.s)
		}
	}
	return fmt.Errorf("core: payload did not arrive at %d within %d rounds (retries %d)", r.t, r.timeout, r.retries)
}

// mergeAvoid unions two avoid sets, reusing either when the other is empty.
func mergeAvoid(a, b map[sim.NodeID]bool) map[sim.NodeID]bool {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make(map[sim.NodeID]bool, len(a)+len(b))
	for v := range a {
		out[v] = true
	}
	for v := range b {
		out[v] = true
	}
	return out
}

// pathHitsAny reports whether any node of path is in the set.
func pathHitsAny(path []sim.NodeID, set map[sim.NodeID]bool) bool {
	for _, v := range path {
		if set[v] {
			return true
		}
	}
	return false
}

// deadList renders a dead set deterministically (sorted) for error messages.
func deadList(set map[sim.NodeID]bool) []sim.NodeID {
	out := make([]sim.NodeID, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}
