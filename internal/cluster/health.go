// Health polling: the gateway's live-replica set. Each backend is probed on
// /readyz — not /healthz — because the gateway must stop sending to a backend
// that is alive but warming up or draining, and liveness deliberately stays
// green through both. A probe failure (refused, reset, timeout, any non-200)
// marks the backend not-ready immediately; requests consult the bit before
// every attempt, so failover starts at most one poll interval after a
// backend goes dark even if no request has burned a timeout against it yet.

package cluster

import (
	"context"
	"net/http"
	"time"
)

// healthLoop polls every backend until Close.
func (g *Gateway) healthLoop() {
	defer g.bg.Done()
	tick := time.NewTicker(g.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-g.stop:
			return
		case <-tick.C:
			g.CheckHealth()
		}
	}
}

// CheckHealth runs one synchronous probe pass over all backends and updates
// the live-replica set and the ready-backends gauge. Exported so tests and
// the chaos harness can force a re-poll instead of sleeping out the interval.
func (g *Gateway) CheckHealth() {
	ready := 0
	for _, b := range g.backends {
		ok := g.probe(b)
		b.ready.Store(ok)
		if ok {
			ready++
		}
	}
	g.reg.SetGauge("hybridroute_cluster_ready_backends", float64(ready))
}

// probe asks one backend's /readyz. The probe deadline is half the polling
// interval so a wedged backend cannot stall the whole pass past its cadence.
func (g *Gateway) probe(b *backendRef) bool {
	timeout := g.cfg.HealthInterval / 2
	if timeout < 50*time.Millisecond {
		timeout = 50 * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return false
	}
	drainClose(resp.Body)
	return resp.StatusCode == http.StatusOK
}

// ReadyBackends counts backends the last health pass found ready.
func (g *Gateway) ReadyBackends() int {
	n := 0
	for _, b := range g.backends {
		if b.ready.Load() {
			n++
		}
	}
	return n
}
