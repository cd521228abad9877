package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hybridroute/internal/core"
	"hybridroute/internal/serve"
	"hybridroute/internal/sim"
	"hybridroute/internal/udg"
)

// churn-deliver: the simulator-built network (core.Preprocess, n = 500,
// 5% ad hoc loss) driven in-process through serve.Server by one caller in a
// closed loop of epochs. Each epoch is one write (a Churn crash of a seeded
// victim, or its recovery), then churnDelivers reliable deliveries of fresh
// seeded pairs, then churnReads reads of a small hot pair set, which the
// plan cache answers except for the first read of each pair after the
// epoch's write and deliveries (a repair, and loss the transport observes,
// both invalidate cached plans). At most one node is down at a time, and no
// read or delivery names a victim as an endpoint.
//
// The write rate is E19's: its heaviest churn row replays 8 crash/recover
// pairs, 16 membership changes, under a batch of 48 deliveries, one write
// per 3 deliveries. Nothing in the repository fixes the number of reads; 40
// per epoch is an open choice. It sets how much of the loop's time, and so
// of route_qps, is churn repair: the run prints each operation kind's share
// of the loop time, and README.md records it.

const (
	churnLoss     = 0.05
	churnHot      = 8
	churnReads    = 40
	churnDelivers = 3
)

// op kinds of the churn-deliver loop.
const (
	opRead = iota
	opDeliver
	opChurn
)

type churnOp struct {
	kind   int
	p      pair // read/deliver endpoints; p.s is the churned node
	up     bool // churn: recover (true) or crash (false)
	at, ms float64
	resp   serve.Response
	err    error
	traced bool
}

func runChurnDeliver(cfg runConfig) (*outcome, error) {
	sc, err := churnScenario()
	if err != nil {
		return nil, err
	}
	nw, setupS, heapPerNode, err := setup(sc, buildSimulated)
	if err != nil {
		return nil, err
	}
	o := &outcome{metrics: metrics{}}
	if cfg.rec != nil { // before the workload fills the heap
		if err := buildLedger(sc, cfg.rec, o.metrics); err != nil {
			return nil, err
		}
	}
	if err := nw.Sim.SetFaults(sim.FaultConfig{AdHocLoss: churnLoss, Seed: uint64(cfg.seed)}); err != nil {
		return nil, err
	}
	// The victims and the hot set belong to the deployment (deploySeed), so
	// every seed churns and reads the same nodes; the seed draws the
	// delivery pairs, the read order and the loss stream.
	drng := rand.New(rand.NewSource(deploySeed))
	victims := safeVictims(nw.G, drng)
	isVictim := make(map[sim.NodeID]bool, len(victims))
	for _, v := range victims {
		isVictim[v] = true
	}
	excluded := func(v sim.NodeID) bool { return isVictim[v] }
	hot := distinctPairs(drng, nw.G, churnHot, coldMinDist, excluded)
	rng := rand.New(rand.NewSource(cfg.seed))
	// Enough fresh delivery pairs for any plausible epoch count.
	fresh := distinctPairs(rng, nw.G, churnDelivers*int(cfg.duration.Seconds()*40)+ledgerCold, coldMinDist, excluded)

	eng := core.NewEngine(nw, core.EngineConfig{})
	srv, err := serve.New(eng, serve.Config{InstanceID: "churn"})
	if err != nil {
		return nil, err
	}
	srv.Start()
	repairs0 := nw.RepairReport()

	var ops []churnOp
	run := func(op churnOp, start time.Time) {
		t0 := time.Now()
		r0 := cfg.rec.now()
		switch op.kind {
		case opChurn:
			op.err = srv.Churn(op.p.s, op.up)
		default:
			op.resp, op.err = srv.Do(serve.Request{S: op.p.s, T: op.p.t, Deliver: op.kind == opDeliver})
		}
		op.at, op.ms = t0.Sub(start).Seconds(), float64(time.Since(t0))/1e6
		if op.traced {
			cfg.rec.add([...]string{"serve.do", "serve.deliver", "serve.churn"}[op.kind], 0, int64(len(ops)+1), r0, cfg.rec.now())
		}
		if op.err == nil {
			op.err = opFailure(op)
		}
		if op.err == nil {
			if err := checkOp(nw, op); err != nil {
				o.fail("%v", err)
			}
		}
		ops = append(ops, op)
	}
	start := time.Now()
	nextFresh, down := 0, sim.NodeID(-1)
	for epoch := 0; time.Since(start) < cfg.duration; epoch++ {
		traced := cfg.rec != nil && (epoch/2)%2 == 1 // a crash and its recovery per block
		if down >= 0 {
			run(churnOp{kind: opChurn, p: pair{s: down}, up: true, traced: traced}, start)
			down = -1
		} else {
			down = victims[(epoch/2)%len(victims)]
			run(churnOp{kind: opChurn, p: pair{s: down}, traced: traced}, start)
		}
		for k := 0; k < churnDelivers; k++ {
			run(churnOp{kind: opDeliver, p: fresh[nextFresh%len(fresh)], traced: traced}, start)
			nextFresh++
		}
		for k := 0; k < churnReads; k++ {
			run(churnOp{kind: opRead, p: hot[rng.Intn(len(hot))], traced: traced}, start)
		}
	}
	wall := time.Since(start).Seconds()
	if down >= 0 { // leave every node up for the checks below
		if err := srv.Churn(down, true); err != nil {
			return nil, fmt.Errorf("final recovery of node %d: %w", down, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = srv.Shutdown(ctx)
	cancel()
	if err != nil {
		o.fail("churn server drain: %v", err)
	} else if st := srv.ServerStats(); st.Accepted != st.Completed {
		o.fail("churn server drained with accepted %d != completed %d", st.Accepted, st.Completed)
	}

	var readAt, readUs, ratios, churnMs, deliverMs, rounds []float64
	var tracedMs, plainMs []float64
	var nRead, nDeliver, nChurn, reached, delivered int
	var tried [3]int
	var spent [3]float64    // ms per operation kind
	seen := map[pair]bool{} // len ratios count each distinct pair once
	var retrans, replans, adhoc, dataHops, finalHops int
	for _, op := range ops {
		o.attempted++
		tried[op.kind]++
		spent[op.kind] += op.ms
		if op.err != nil {
			o.failOp("%v", op.err)
			continue
		}
		switch {
		case op.kind != opRead:
		case op.traced:
			tracedMs = append(tracedMs, op.ms)
		default:
			plainMs = append(plainMs, op.ms)
		}
		switch op.kind {
		case opChurn:
			nChurn++
			churnMs = append(churnMs, op.ms)
		case opRead:
			nRead++
			readAt = append(readAt, op.at)
			readUs = append(readUs, op.ms*1e3)
			reached++
			if !seen[op.p] {
				seen[op.p] = true
				ratios = append(ratios, lenRatio(nw.G, op.p.s, op.p.t, op.resp.Outcome.Path))
			}
		case opDeliver:
			nDeliver++
			tr := op.resp.Transport
			deliverMs = append(deliverMs, op.ms)
			reached++
			delivered++
			ratios = append(ratios, lenRatio(nw.G, op.p.s, op.p.t, tr.Path))
			rounds = append(rounds, float64(tr.Rounds))
			retrans += tr.Retransmits
			replans += tr.Replans
			adhoc += tr.AdHocMsgs
			dataHops += tr.DataHops
			finalHops += len(tr.Path) - 1
		}
	}
	httpCheck(nw, cfg, append(append([]pair(nil), hot...), fresh[:httpCheckPairs/4]...), o)
	fmt.Printf("churn-deliver: %d nodes, %d epochs in %.2fs: %d churn ops, %d deliveries, %d reads\n",
		nw.G.N(), nChurn, wall, nChurn, nDeliver, nRead)
	fmt.Printf("churn-deliver: share of the loop time: churn %.3f, deliveries %.3f, reads %.3f\n",
		spent[opChurn]/1e3/wall, spent[opDeliver]/1e3/wall, spent[opRead]/1e3/wall)

	if cfg.rec == nil {
		m := o.metrics
		m.set("setup_s", setupS, "s")
		m.set("heap_bytes_per_node", heapPerNode, "B")
		latencyMetrics(m, "churn-deliver", readAt, readUs, cfg.duration.Seconds())
		m.set("route_qps", float64(nRead)/wall, "1/s")
		m.set("ok_rate", float64(o.attempted-o.failed)/float64(o.attempted), "ratio")
		m.set("reached_rate", ratio(float64(reached), float64(tried[opRead]+tried[opDeliver])), "ratio")
		m.set("len_ratio_p50", quantile(ratios, 0.5), "ratio")
		m.set("len_ratio_p99", quantile(ratios, 0.99), "ratio")
		fmt.Printf("churn-deliver: churn p50 %.2f ms p90 %.2f ms, delivery p50 %.2f ms p90 %.2f ms\n",
			quantile(churnMs, 0.5), quantile(churnMs, 0.9), quantile(deliverMs, 0.5), quantile(deliverMs, 0.9))
		return o, nil
	}

	m := o.metrics
	m.set("churn_p50_ms", quantile(churnMs, 0.5), "ms")
	m.set("churn_p90_ms", quantile(churnMs, 0.9), "ms")
	m.set("deliver_p50_ms", quantile(deliverMs, 0.5), "ms")
	m.set("deliver_p90_ms", quantile(deliverMs, 0.9), "ms")
	m.set("delivered_rate", ratio(float64(delivered), float64(tried[opDeliver])), "ratio")
	m.set("error_rate", ratio(float64(o.failed), float64(o.attempted)), "ratio")
	m.set("bench.trace_overhead_pct", 100*(quantile(tracedMs, 0.5)/quantile(plainMs, 0.5)-1), "%")
	rep := nw.RepairReport()
	nRep := float64(rep.Repairs - repairs0.Repairs)
	m.set("core.repair_incremental_share", ratio(float64(rep.Incremental-repairs0.Incremental), nRep), "ratio")
	m.set("core.holes_reused_per_repair", ratio(float64(rep.HolesReused-repairs0.HolesReused), nRep), "count")
	m.set("core.transport_rounds_p50", quantile(rounds, 0.5), "count")
	m.set("core.retransmits_per_delivery", ratio(float64(retrans), float64(nDeliver)), "count")
	m.set("core.replans_per_delivery", ratio(float64(replans), float64(nDeliver)), "count")
	m.set("sim.adhoc_msgs_per_delivery", ratio(float64(adhoc), float64(nDeliver)), "count")
	m.set("core.useful_hop_ratio", ratio(float64(finalHops), float64(dataHops)), "ratio")
	cacheMetrics([]*core.Engine{eng}, m)
	ledger := fresh[len(fresh)-ledgerCold:]
	coldCounts(nw, ledger, m)
	runtime.GC() // so no collection of the workload's garbage lands in a replay
	led := core.NewEngine(nw, core.EngineConfig{Workers: 1})
	for i, p := range ledger {
		routeTraced(led, cfg.rec, int64(1<<41+i), p)
	}
	queryLayerMetrics(cfg.rec.snapshot(), m)
	warmAllocs(nw, hot, m)
	return o, nil
}

// opFailure reports an operation that did not succeed: a read that was not
// answered with a reached route, a delivery that did not arrive.
func opFailure(op churnOp) error {
	switch op.kind {
	case opRead:
		if op.resp.Err != nil || !op.resp.Outcome.Reached {
			return fmt.Errorf("read %d->%d: reached=%v err=%v", op.p.s, op.p.t, op.resp.Outcome.Reached, op.resp.Err)
		}
	case opDeliver:
		if op.resp.Err != nil || op.resp.Transport == nil || !op.resp.Transport.DeliveredSim {
			return fmt.Errorf("delivery %d->%d did not arrive: %v", op.p.s, op.p.t, op.resp.Err)
		}
	}
	return nil
}

// checkOp checks a successful operation's output: the route a read returned,
// and the path a delivery took, must be walks over the live LDel² from s to
// t.
func checkOp(nw *core.Network, op churnOp) error {
	switch op.kind {
	case opRead:
		return checkWalk(nw, op.p.s, op.p.t, op.resp.Outcome.Path)
	case opDeliver:
		return checkWalk(nw, op.p.s, op.p.t, op.resp.Transport.Path)
	}
	return nil
}

// safeVictims returns, in seeded order, the nodes whose crash leaves the UDG
// connected, so a crash never cuts a pair off and no operation has to fail.
func safeVictims(g *udg.Graph, rng *rand.Rand) []sim.NodeID {
	var out []sim.NodeID
	for v := 0; v < g.N(); v++ {
		if connectedWithout(g, sim.NodeID(v)) {
			out = append(out, sim.NodeID(v))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if len(out) > 64 {
		out = out[:64]
	}
	return out
}

// connectedWithout reports whether g minus node x is connected.
func connectedWithout(g *udg.Graph, x sim.NodeID) bool {
	start := sim.NodeID(0)
	if x == 0 {
		start = 1
	}
	seen := make([]bool, g.N())
	seen[x], seen[start] = true, true
	stack := []sim.NodeID{start}
	count := 2
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.N()
}
