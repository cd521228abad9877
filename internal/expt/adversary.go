package expt

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"hybridroute/internal/core"
	"hybridroute/internal/sim"
	"hybridroute/internal/stats"
	"hybridroute/internal/trace"
)

// e22Outcome is everything one E22 arm produced.
type e22Outcome struct {
	reports []*core.TraceReport
	events  []trace.Event
	nw      *core.Network
}

// e22Run routes the shared query batch on a fresh network with the given
// adversary population installed (frac <= 0 and no colluders leaves the fault
// model out entirely). Queries run sequentially, so the link-quality and
// liveness tables learn across the batch.
func e22Run(opt Options, n int, pairs [][2]sim.NodeID, frac float64, behaviors sim.AdversaryBehavior, colluders []sim.NodeID, exempt []sim.NodeID) (*e22Outcome, error) {
	nw, _, err := preprocessScenario(opt, n)
	if err != nil {
		return nil, err
	}
	tr := trace.New(0)
	nw.SetTracer(tr)
	if frac > 0 || len(colluders) > 0 {
		cfg := sim.FaultConfig{
			Seed: uint64(opt.seed()) + 22,
			Adversary: sim.AdversaryConfig{
				Fraction:  frac,
				Behaviors: behaviors,
				Nodes:     colluders,
				Exempt:    exempt,
				Collude:   len(colluders) > 0,
			},
		}
		if err := nw.Sim.SetFaults(cfg); err != nil {
			return nil, err
		}
	}
	queries := make([]core.Query, len(pairs))
	for i, p := range pairs {
		queries[i] = core.Query{S: p[0], T: p[1]}
	}
	reports, err := nw.TraceBatch(queries, core.TransportOptions{PayloadWords: 32})
	if err != nil {
		return nil, err
	}
	return &e22Outcome{reports: reports, events: tr.Events(), nw: nw}, nil
}

// e22Laundered counts queries whose source believes delivery was verified
// while the payload never physically arrived — the colluding-endpoint forgery
// the sweep's last row demonstrates.
func e22Laundered(reports []*core.TraceReport) int {
	laundered := 0
	for _, r := range reports {
		if r != nil && r.Verified && !r.Delivered {
			laundered++
		}
	}
	return laundered
}

// e22Artifacts writes the sweep summary plus the heaviest row's Byzantine
// event stream as E22_adversary.json.
func e22Artifacts(dir string, rowsOut []map[string]interface{}, heavy *e22Outcome) error {
	reg := trace.NewRegistry()
	reg.MergeEvents(heavy.events)
	var byzantine []trace.Event
	for _, ev := range heavy.events {
		switch ev.Kind {
		case trace.KindMisroute, trace.KindAdvDrop, trace.KindForgedAck,
			trace.KindMisrouteDetected, trace.KindVerifyFail, trace.KindE2EResend,
			trace.KindSuspect:
			byzantine = append(byzantine, ev)
		}
	}
	blob, err := json.MarshalIndent(struct {
		Rows      []map[string]interface{} `json:"rows"`
		Metrics   *trace.Registry          `json:"metrics"`
		Byzantine []trace.Event            `json:"byzantine_events"`
	}{rowsOut, reg, byzantine}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "E22_adversary.json"), append(blob, '\n'), 0o644)
}

// E22 measures routing against Byzantine adversaries: a seeded fraction of
// nodes misroutes payloads, black-holes selected flows, forges hop
// acknowledgements and lies in its telemetry, while a traced query batch runs
// with end-to-end verified delivery engaged. The resilience gate is a
// delivery-rate floor at every adversarial fraction up to 30%. The
// adversary-0 row must be byte-identical (per-hop) to a run on a network that
// never had a fault config installed, and a final colluding-endpoints row
// demonstrates the known limit of endpoint verification: a colluding
// destination forges confirmations, which the harness surfaces as
// verified-but-undelivered queries. With Options.TraceDir set the sweep and
// the heaviest row's Byzantine events are written out as E22_adversary.json.
func E22(opt Options) (*Result, error) {
	res := &Result{
		ID:    "E22",
		Title: "Byzantine adversaries: verified delivery",
		Claim: "end-to-end verification sustains delivery under misrouting/dropping/ack-forging/telemetry-lying adversaries: delivery rate holds a floor at every fraction up to 30% adversarial nodes; the adversary-0 row is byte-identical to a never-faulted network; colluding endpoints are surfaced as verified-but-undelivered",
	}
	n, q := 420, 48
	floorRate := 0.85
	if opt.Quick {
		n, q = 240, 20
		// The quick network is small enough that 30% adversaries can sever
		// whole neighborhoods outright; the floor relaxes with the scale.
		floorRate = 0.60
	}
	fracs := []float64{0, 0.10, 0.20, 0.30}

	// Learn the node count, then draw the query set all rows share.
	// Endpoints are exempt from the adversary election so every row answers
	// the same answerable pairs; the collude row deliberately removes that
	// protection for its designated destinations.
	nw0, _, err := preprocessScenario(opt, n)
	if err != nil {
		return nil, err
	}
	nodes := nw0.G.N()
	rng := rand.New(rand.NewSource(opt.seed() + 22))
	pairs := samplePairs(rng, nodes, q)
	exempt := make([]sim.NodeID, 0, 2*len(pairs))
	for _, p := range pairs {
		exempt = append(exempt, p[0], p[1])
	}

	// Baseline: the batch on a network that never saw a fault config.
	base, err := e22Run(opt, n, pairs, 0, sim.AdvAll, nil, nil)
	if err != nil {
		return nil, err
	}

	res.Table = stats.NewTable("adversaries", "delivered", "rate", "verified", "mean ratio", "e2e resends", "misroute det", "adv actions")

	identical := true
	floorOK := true
	var heavy *e22Outcome
	var rowsOut []map[string]interface{}
	for _, frac := range fracs {
		// The 0% row installs no fault config, so it must reproduce the
		// never-faulted baseline exactly (checked below).
		out, err := e22Run(opt, n, pairs, frac, sim.AdvAll, nil, exempt)
		if err != nil {
			return nil, err
		}
		heavy = out // the last, 30% row is the heaviest

		delivered, verified, resends, misdet := 0, 0, 0, 0
		var ratioSum float64
		ratioN := 0
		for _, r := range out.reports {
			if r == nil {
				continue
			}
			resends += r.E2EResends
			misdet += r.MisrouteDetected
			if !r.Delivered {
				continue
			}
			delivered++
			if r.Verified {
				verified++
			}
			if r.CompetitiveRatio > 0 {
				ratioSum += r.CompetitiveRatio
				ratioN++
			}
		}
		adv := out.nw.Sim.AdversaryCounters()
		actions := adv.Misrouted + adv.ForgedAcks + adv.SelectiveDrops
		rate := float64(delivered) / float64(len(pairs))
		res.Table.AddRow(fmt.Sprintf("%.0f%%", frac*100),
			fmt.Sprintf("%d/%d", delivered, len(pairs)),
			fmt.Sprintf("%.3f", rate), verified,
			fmt.Sprintf("%.3f", ratioSum/float64(max(ratioN, 1))),
			resends, misdet, actions)
		rowsOut = append(rowsOut, map[string]interface{}{
			"fraction": frac, "delivered": delivered,
			"queries": len(pairs), "rate": rate, "verified": verified,
			"mean_ratio":  ratioSum / float64(max(ratioN, 1)),
			"e2e_resends": resends, "misroute_detected": misdet,
			"adversary_actions": actions,
		})
		if rate < floorRate {
			floorOK = false
		}

		if frac == 0 {
			for i := range out.reports {
				if !traceReportsEqual(base.reports[i], out.reports[i]) {
					identical = false
					break
				}
			}
		}
	}

	// Colluding endpoints: the destinations of every fourth pair join the
	// adversary, covering for discarded payloads with forged confirmations.
	var colluders []sim.NodeID
	for i, p := range pairs {
		if i%4 == 0 {
			colluders = append(colluders, p[1])
		}
	}
	coll, err := e22Run(opt, n, pairs, 0.20, sim.AdvAll, colluders, exempt)
	if err != nil {
		return nil, err
	}
	laundered := e22Laundered(coll.reports)
	collDelivered := 0
	for _, r := range coll.reports {
		if r != nil && r.Delivered {
			collDelivered++
		}
	}
	res.Table.AddRow("20% +collusion",
		fmt.Sprintf("%d/%d", collDelivered, len(pairs)),
		fmt.Sprintf("%.3f", float64(collDelivered)/float64(len(pairs))),
		laundered, "-", "-", "-", "-")
	rowsOut = append(rowsOut, map[string]interface{}{
		"fraction": 0.20, "collusion": true,
		"delivered": collDelivered, "queries": len(pairs), "laundered": laundered,
	})

	// The heavy row must have genuinely exercised the tier.
	advTotal := sim.AdvCounters{}
	verifyFails := 0
	if heavy != nil {
		advTotal = heavy.nw.Sim.AdversaryCounters()
		for _, ev := range heavy.events {
			if ev.Kind == trace.KindVerifyFail {
				verifyFails++
			}
		}
	}
	exercised := heavy != nil &&
		advTotal.Misrouted+advTotal.ForgedAcks+advTotal.SelectiveDrops > 0 && verifyFails > 0

	res.note("adversary-0 row byte-identical (per-hop) to a never-faulted network: %v", identical)
	res.note("delivery rate >= %.2f at every fraction through 30%% adversaries: %v", floorRate, floorOK)
	res.note("heaviest row (30%%): %d misroutes, %d forged acks, %d selective drops, %d verify failures",
		advTotal.Misrouted, advTotal.ForgedAcks, advTotal.SelectiveDrops, verifyFails)
	res.note("colluding endpoints: %d/%d queries verified-but-undelivered (forged confirmations surfaced, not hidden)",
		laundered, len(pairs))
	res.Pass = identical && floorOK && exercised && laundered > 0

	if opt.TraceDir != "" && heavy != nil {
		if err := e22Artifacts(opt.TraceDir, rowsOut, heavy); err != nil {
			return nil, fmt.Errorf("e22: artifacts: %w", err)
		}
		res.note("adversary artifacts written to %s", opt.TraceDir)
	}
	return res, nil
}
