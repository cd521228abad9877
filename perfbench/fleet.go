package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"hybridroute/internal/cluster"
	"hybridroute/internal/core"
	"hybridroute/internal/serve"
)

const fleetBackends = 3

// fleet is the HTTP deployment: fleetBackends serve.Server backends, each
// with its own engine over the shared network and its own listener, behind a
// cluster.Gateway (R = 2, no hedging, no chaos). The benchmark owns every
// http.Server, so it wraps each backend's and the gateway's Handler() to time
// them, and counts the connections each hop accepts through ConnState.
type fleet struct {
	nw       *core.Network
	engines  []*core.Engine
	servers  []*serve.Server
	backends []*http.Server
	gw       *cluster.Gateway
	gwServer *http.Server
	url      string
	client   *http.Client
	rec      *recorder

	// tracing toggles span recording at run time, so a traced run can
	// alternate traced and untraced blocks over the same fleet.
	tracing atomic.Bool

	backendConns atomic.Int64 // connections the backends accepted
	clientConns  atomic.Int64 // connections the gateway accepted
	gwRequests   atomic.Int64 // /route requests the gateway served
	beRequests   atomic.Int64 // /route requests the backends served
	gwNanos      atomic.Int64 // time inside the gateway's /route handler
	beNanos      atomic.Int64 // time inside the backends' /route handlers
}

func startFleet(nw *core.Network, seed int64, rec *recorder) (*fleet, error) {
	f := &fleet{nw: nw, rec: rec}
	f.tracing.Store(rec != nil)
	listen := func(h http.Handler, conns *atomic.Int64) (*http.Server, string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", err
		}
		hs := &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       60 * time.Second,
			ConnState: func(_ net.Conn, st http.ConnState) {
				if st == http.StateNew {
					conns.Add(1)
				}
			},
		}
		go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed at Shutdown
		return hs, "http://" + ln.Addr().String(), nil
	}
	var infos []cluster.BackendInfo
	for i := 0; i < fleetBackends; i++ {
		eng := core.NewEngine(nw, core.EngineConfig{})
		srv, err := serve.New(eng, serve.Config{InstanceID: fmt.Sprintf("i%d", i)})
		if err != nil {
			f.abort()
			return nil, err
		}
		srv.Start()
		f.engines = append(f.engines, eng)
		f.servers = append(f.servers, srv)
		hs, url, err := listen(f.timed("serve.handler", srv.Handler(), &f.beRequests, &f.beNanos), &f.backendConns)
		if err != nil {
			f.abort()
			return nil, err
		}
		f.backends = append(f.backends, hs)
		infos = append(infos, cluster.BackendInfo{ID: fmt.Sprintf("i%d", i), URL: url})
	}
	gw, err := cluster.NewGateway(nw, infos, cluster.Config{Replicas: 2, Seed: uint64(seed)})
	if err != nil {
		f.abort()
		return nil, err
	}
	gw.Start()
	f.gw = gw
	hs, url, err := listen(f.timed("cluster.gateway", gw.Handler(), &f.gwRequests, &f.gwNanos), &f.clientConns)
	if err != nil {
		f.abort()
		return nil, err
	}
	f.gwServer, f.url = hs, url
	conns := runtime.NumCPU()
	tr := &http.Transport{
		DialContext:           (&net.Dialer{Timeout: 2 * time.Second, KeepAlive: 30 * time.Second}).DialContext,
		MaxIdleConns:          conns,
		MaxIdleConnsPerHost:   conns,
		MaxConnsPerHost:       conns,
		IdleConnTimeout:       60 * time.Second,
		ResponseHeaderTimeout: 10 * time.Second,
	}
	f.client = &http.Client{Transport: tr, Timeout: 15 * time.Second}
	return f, nil
}

// timed wraps a handler: /route requests are counted and timed, and while
// tracing they also get a span named name, correlated to the client's request
// by the "rid" field of the JSON body (which the gateway forwards verbatim).
func (f *fleet) timed(name string, h http.Handler, count, nanos *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/route" {
			h.ServeHTTP(w, r)
			return
		}
		var rid int64
		if f.tracing.Load() {
			raw, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
				return
			}
			rid = ridOf(raw)
			r.Body = io.NopCloser(bytes.NewReader(raw))
		}
		start := time.Now()
		var t0 int64
		if rid != 0 {
			t0 = f.rec.now()
		}
		h.ServeHTTP(w, r)
		count.Add(1)
		nanos.Add(int64(time.Since(start)))
		if rid != 0 {
			f.rec.add(name, 0, rid, t0, f.rec.now())
		}
	})
}

// ridOf extracts the integer "rid" field of a request body (0 if absent).
func ridOf(raw []byte) int64 {
	i := bytes.Index(raw, []byte(`"rid":`))
	if i < 0 {
		return 0
	}
	j := i + len(`"rid":`)
	k := j
	for k < len(raw) && raw[k] >= '0' && raw[k] <= '9' {
		k++
	}
	v, _ := strconv.ParseInt(string(raw[j:k]), 10, 64) // digits only; overflow yields 0, i.e. untraced
	return v
}

// answer is the decoded /route response.
type answer struct {
	status    int
	Reached   bool  `json:"reached"`
	Case      int   `json:"case"`
	Path      []int `json:"path"`
	QueuedUS  int64 `json:"queued_us"`
	LatencyUS int64 `json:"latency_us"`
	Error     string
}

// post sends one query through the gateway and reads the whole response
// body, so the keep-alive connection is reused. A non-200 status is returned
// as an answer with that status, not as an error.
func (f *fleet) post(ctx context.Context, rid int64, p pair) (answer, error) {
	body := fmt.Sprintf(`{"s":%d,"t":%d,"rid":%d}`, p.s, p.t, rid)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url+"/route", bytes.NewReader([]byte(body)))
	if err != nil {
		return answer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		return answer{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return answer{}, fmt.Errorf("reading response: %w", err)
	}
	a := answer{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		a.Error = string(bytes.TrimSpace(raw))
		return a, nil
	}
	if err := json.Unmarshal(raw, &a); err != nil {
		return answer{}, fmt.Errorf("decoding response: %w", err)
	}
	return a, nil
}

// abort tears down a partially started fleet.
func (f *fleet) abort() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = f.close(ctx)
}

// close drains the fleet: the gateway stops polling, every backend drains
// its queue, and every listener shuts down. It returns the backends whose
// accepted and completed counts differ after the drain.
func (f *fleet) close(ctx context.Context) []string {
	var bad []string
	if f.gwServer != nil {
		_ = f.gwServer.Shutdown(ctx)
	}
	if f.gw != nil {
		f.gw.Close()
	}
	for i, srv := range f.servers {
		if err := srv.Shutdown(ctx); err != nil {
			bad = append(bad, fmt.Sprintf("backend i%d drain: %v", i, err))
			continue
		}
		if st := srv.ServerStats(); st.Accepted != st.Completed {
			bad = append(bad, fmt.Sprintf("backend i%d drained with accepted %d != completed %d", i, st.Accepted, st.Completed))
		}
	}
	for _, hs := range f.backends {
		_ = hs.Shutdown(ctx)
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
	return bad
}

// metrics reports the serve and cluster layers from the answers the
// client decoded and the handler wrappers' spans and counters.
func (f *fleet) metrics(answers []answer, m metrics) {
	var queued, ans []float64
	for _, a := range answers {
		if a.status == http.StatusOK {
			queued = append(queued, float64(a.QueuedUS))
			ans = append(ans, float64(a.LatencyUS))
		}
	}
	dur, _ := layerTimes(f.rec.snapshot())
	handler := dur["serve.handler"]
	gateway := dur["cluster.gateway"]
	m.set("serve.queued_us_p50", quantile(queued, 0.5), "us")
	m.set("serve.queued_us_p99", quantile(queued, 0.99), "us")
	m.set("serve.answer_us_p50", quantile(ans, 0.5), "us")
	m.set("serve.handler_us_p50", quantile(handler, 0.5), "us")
	m.set("serve.handler_us_p99", quantile(handler, 0.99), "us")
	m.set("serve.codec_us_mean", mean(handler)-mean(ans), "us")
	m.set("cluster.gateway_us_p50", quantile(gateway, 0.5), "us")
	m.set("cluster.gateway_us_p99", quantile(gateway, 0.99), "us")
	gwReq := float64(f.gwRequests.Load())
	m.set("cluster.self_us_mean", ratio(float64(f.gwNanos.Load()-f.beNanos.Load())/1e3, gwReq), "us")
	m.set("cluster.attempts_per_request", ratio(float64(f.beRequests.Load()), gwReq), "count")
	m.set("cluster.backend_conns_per_1k", ratio(1000*float64(f.backendConns.Load()), gwReq), "count")
	m.set("bench.client_conns_per_1k", ratio(1000*float64(f.clientConns.Load()), gwReq), "count")
}

// httpCheck asks a seeded sample of pairs through a fresh fleet over the
// workload's network and checks each answer against Network.Route for the
// same pair; the fleet must then drain with accepted == completed on every
// backend. In a traced run the sample's spans give the serve and cluster
// layers of this workload.
func httpCheck(nw *core.Network, cfg runConfig, pairs []pair, o *outcome) {
	f, err := startFleet(nw, cfg.seed, cfg.rec)
	if err != nil {
		o.fail("http check: starting fleet: %v", err)
		return
	}
	answers := make([]answer, 0, len(pairs))
	for i, p := range pairs {
		rid := int64(1<<40 + i)
		t0 := cfg.rec.now()
		a, err := f.post(context.Background(), rid, p)
		cfg.rec.add("bench.request", 0, rid, t0, cfg.rec.now())
		o.attempted++
		if err == nil && a.status != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", a.status, a.Error)
		}
		if err != nil {
			o.failOp("http check %d->%d: %v", p.s, p.t, err)
			continue
		}
		if err := sameAsNetwork(nw, p, a); err != nil {
			o.fail("http check: %v", err)
		}
		answers = append(answers, a)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, bad := range f.close(ctx) {
		o.fail("http check: %s", bad)
	}
	if cfg.rec != nil {
		cfg.rec.link("cluster.gateway", "bench.request")
		cfg.rec.link("serve.handler", "cluster.gateway")
		f.metrics(answers, o.metrics)
	}
}

// sameAsNetwork checks an HTTP answer against Network.Route for its pair.
func sameAsNetwork(nw *core.Network, p pair, a answer) error {
	ref := nw.Route(p.s, p.t)
	if a.Reached != ref.Reached || a.Case != ref.Case || len(a.Path) != len(ref.Path) {
		return fmt.Errorf("%d->%d: answer (reached=%v case=%d hops=%d) differs from Network.Route (reached=%v case=%d hops=%d)",
			p.s, p.t, a.Reached, a.Case, len(a.Path), ref.Reached, ref.Case, len(ref.Path))
	}
	for i, v := range ref.Path {
		if a.Path[i] != int(v) {
			return fmt.Errorf("%d->%d: answer path differs from Network.Route at hop %d", p.s, p.t, i)
		}
	}
	return nil
}
