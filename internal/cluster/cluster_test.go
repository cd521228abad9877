package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybridroute/internal/core"
	"hybridroute/internal/geom"
	"hybridroute/internal/serve"
	"hybridroute/internal/workload"
)

// testNetwork preprocesses the same jittered-grid-around-a-star-hole scene
// the serve tests use, so cluster answers are comparable with single-server
// answers over identical geometry.
func testNetwork(t testing.TB) *core.Network {
	t.Helper()
	star := workload.StarPolygon(geom.Pt(5, 5), 2.6, 1.1, 5, 0)
	sc, err := workload.JitteredGrid(0.5, 10, 10, 1, [][]geom.Point{star})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := core.Preprocess(sc.Build(), core.Config{Strict: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// spawnCluster brings up n in-process backends plus a started gateway and
// registers teardown.
func spawnCluster(t *testing.T, nw *core.Network, n int, cfg Config) ([]*Instance, *Gateway) {
	t.Helper()
	instances, err := SpawnInstances(nw, n, InstanceOptions{Workers: 2, QueueSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, in := range instances {
			in.Kill()
		}
	})
	g, err := NewGateway(nw, FromInstances(instances), cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	t.Cleanup(g.Close)
	return instances, g
}

// postRoute sends one query through a handler and returns the recorder.
func postRoute(h http.Handler, s, t int) *httptest.ResponseRecorder {
	body := fmt.Sprintf(`{"s":%d,"t":%d}`, s, t)
	req := httptest.NewRequest(http.MethodPost, "/route", bytes.NewReader([]byte(body)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// normalizeAnswer decodes a /route body, zeroes the per-request timing
// fields (queue wait and latency are the only legitimately nondeterministic
// fields), and re-encodes canonically.
func normalizeAnswer(t *testing.T, body []byte) []byte {
	t.Helper()
	var ans routeAnswer
	if err := json.Unmarshal(body, &ans); err != nil {
		t.Fatalf("bad answer body %q: %v", body, err)
	}
	ans.QueuedUS, ans.LatencyUS = 0, 0
	out, err := json.Marshal(ans)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGatewayByteIdentity is the no-chaos contract: a chaos-free cluster is
// indistinguishable from a single serve.Server — every query's routing
// outcome (everything but queue/latency timing) is byte-identical, nothing
// is degraded, and the backend that answered is named in the header.
func TestGatewayByteIdentity(t *testing.T) {
	nw := testNetwork(t)
	_, g := spawnCluster(t, nw, 3, Config{Replicas: 2, HealthInterval: 50 * time.Millisecond})
	gh := g.Handler()

	eng := core.NewEngine(nw, core.EngineConfig{Workers: 2})
	single, err := serve.New(eng, serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	single.Start()
	defer single.Shutdown(context.Background())
	sh := single.Handler()

	rng := rand.New(rand.NewSource(7))
	n := nw.G.N()
	for i := 0; i < 40; i++ {
		s, tt := rng.Intn(n), rng.Intn(n)
		grec := postRoute(gh, s, tt)
		srec := postRoute(sh, s, tt)
		if grec.Code != http.StatusOK || srec.Code != http.StatusOK {
			t.Fatalf("query %d (%d->%d): gateway %d, single %d", i, s, tt, grec.Code, srec.Code)
		}
		if grec.Header().Get("X-Cluster-Degraded") != "" {
			t.Fatalf("query %d: healthy cluster answered degraded", i)
		}
		if grec.Header().Get("X-Cluster-Backend") == "" {
			t.Fatalf("query %d: missing X-Cluster-Backend", i)
		}
		gBody := normalizeAnswer(t, grec.Body.Bytes())
		sBody := normalizeAnswer(t, srec.Body.Bytes())
		if !bytes.Equal(gBody, sBody) {
			t.Fatalf("query %d (%d->%d): cluster %s != single %s", i, s, tt, gBody, sBody)
		}
	}
	if st := g.Stats(); st.Degraded != 0 || st.Shed != 0 {
		t.Fatalf("healthy run counted degraded=%d shed=%d", st.Degraded, st.Shed)
	}
}

// TestGatewayShardingStable pins that a region's queries keep landing on the
// same primary backend (the plan-cache-affinity property of the shard map).
func TestGatewayShardingStable(t *testing.T) {
	nw := testNetwork(t)
	_, g := spawnCluster(t, nw, 3, Config{Replicas: 2, HealthInterval: 50 * time.Millisecond})
	h := g.Handler()
	first := postRoute(h, 0, 99).Header().Get("X-Cluster-Backend")
	if first == "" {
		t.Fatal("no backend header")
	}
	for i := 0; i < 5; i++ {
		if got := postRoute(h, 0, 42+i).Header().Get("X-Cluster-Backend"); got != first {
			t.Fatalf("same-source query moved backends: %q then %q", first, got)
		}
	}
}

// fakeBackend is a scriptable backend for failover/backpressure/hedging
// tests: always ready, with a pluggable /route.
func fakeBackend(t *testing.T, route http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write([]byte("ready\n")) })
	mux.HandleFunc("/route", route)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

const okAnswer = `{"reached":true,"case":1,"path":[0,1],"hops":1,"queued_us":0,"latency_us":0}`

func okRoute(id string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(okAnswer))
	}
}

// newFakeGateway wires a gateway over pre-made fake backends with the health
// loop replaced by one synchronous pass (no timing dependence).
func newFakeGateway(t *testing.T, cfg Config, urls ...string) *Gateway {
	t.Helper()
	nw := testNetwork(t)
	backends := make([]BackendInfo, len(urls))
	for i, u := range urls {
		backends[i] = BackendInfo{ID: fmt.Sprintf("f%d", i), URL: u}
	}
	g, err := NewGateway(nw, backends, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.CheckHealth()
	return g
}

// TestGatewayFailover pins bounded retry against the next replica: the
// primary hard-fails, the standby answers, the failover is counted.
func TestGatewayFailover(t *testing.T) {
	var primaryHits, backupHits atomic.Int32
	primary := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		primaryHits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	backup := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		backupHits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(okAnswer))
	})
	g := newFakeGateway(t, Config{Replicas: 2, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond}, primary.URL, backup.URL)

	rec := postRoute(g.Handler(), 0, 1)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	if rec.Header().Get("X-Cluster-Backend") != "f1" {
		t.Fatalf("answered by %q, want f1", rec.Header().Get("X-Cluster-Backend"))
	}
	if primaryHits.Load() != 1 || backupHits.Load() != 1 {
		t.Fatalf("hits primary=%d backup=%d, want 1/1", primaryHits.Load(), backupHits.Load())
	}
	if st := g.Stats(); st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}
}

// TestGatewayBreakerCutsOff pins that a persistently failing backend stops
// receiving attempts: after the breaker trips, requests go straight to the
// standby without burning an attempt on the open circuit.
func TestGatewayBreakerCutsOff(t *testing.T) {
	var badHits atomic.Int32
	bad := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		badHits.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	good := fakeBackend(t, okRoute("good"))
	g := newFakeGateway(t, Config{
		Replicas: 2, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		Breaker: BreakerConfig{FailThreshold: 3, Cooldown: time.Hour},
	}, bad.URL, good.URL)
	h := g.Handler()

	for i := 0; i < 6; i++ {
		if rec := postRoute(h, 0, 1); rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, rec.Code)
		}
	}
	// 3 failures tripped the breaker; the remaining queries must not touch it.
	if got := badHits.Load(); got != 3 {
		t.Fatalf("failing backend saw %d attempts, want exactly 3 before cutoff", got)
	}
	counters := g.Registry().Counters()
	if counters["hybridroute_cluster_breaker_open_total"] != 1 {
		t.Fatalf("breaker_open_total = %d, want 1", counters["hybridroute_cluster_breaker_open_total"])
	}
	if st := g.Stats(); st.Backends[0].Breaker != "open" {
		t.Fatalf("backend 0 breaker %q, want open", st.Backends[0].Breaker)
	}
}

// TestGatewayBackpressurePropagation pins the 429 contract: a saturated
// replica is never retried into, and when the whole set is saturated the
// client gets 429 with the largest backend Retry-After hint.
func TestGatewayBackpressurePropagation(t *testing.T) {
	var hitsA, hitsB atomic.Int32
	a := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		hitsA.Add(1)
		w.Header().Set("Retry-After", "3")
		http.Error(w, "queue full", http.StatusTooManyRequests)
	})
	b := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		hitsB.Add(1)
		w.Header().Set("Retry-After", "7")
		http.Error(w, "queue full", http.StatusTooManyRequests)
	})
	g := newFakeGateway(t, Config{Replicas: 2, Retries: 5, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond}, a.URL, b.URL)

	rec := postRoute(g.Handler(), 0, 1)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want the largest backend hint 7", got)
	}
	// Retries=5 allowed up to 6 attempts, but each saturated replica must be
	// hit exactly once — backpressure is propagated, not amplified.
	if hitsA.Load() != 1 || hitsB.Load() != 1 {
		t.Fatalf("hits a=%d b=%d, want 1/1", hitsA.Load(), hitsB.Load())
	}
	if st := g.Stats(); st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}
	// Saturation must not have tripped breakers: the backends are healthy.
	for i, bs := range g.Stats().Backends {
		if bs.Breaker != "closed" {
			t.Fatalf("backend %d breaker %q after 429s, want closed", i, bs.Breaker)
		}
	}
}

// TestGatewayHedge pins tail hedging: a dawdling primary is raced by a
// duplicate to the standby, the standby's answer wins and is marked hedged,
// and the client still receives exactly one response.
func TestGatewayHedge(t *testing.T) {
	slow := fakeBackend(t, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(okAnswer))
	})
	fast := fakeBackend(t, okRoute("fast"))
	g := newFakeGateway(t, Config{Replicas: 2, HedgeDelay: 20 * time.Millisecond}, slow.URL, fast.URL)

	start := time.Now()
	rec := postRoute(g.Handler(), 0, 1)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, want 200", rec.Code)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("hedged answer took %v — the hedge did not win", took)
	}
	if rec.Header().Get("X-Cluster-Hedged") != "1" {
		t.Fatal("want X-Cluster-Hedged on a hedge win")
	}
	if rec.Header().Get("X-Cluster-Backend") != "f1" {
		t.Fatalf("answered by %q, want the hedge target f1", rec.Header().Get("X-Cluster-Backend"))
	}
	st := g.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("hedges=%d wins=%d, want 1/1", st.Hedges, st.HedgeWins)
	}
}

// TestGatewayDegraded pins graceful degradation with every replica down:
// a previously answered pair comes back from the stale cache, an unseen
// pair gets the long-range-only fallback — both 200, both tagged.
func TestGatewayDegraded(t *testing.T) {
	nw := testNetwork(t)
	instances, g := spawnCluster(t, nw, 2, Config{
		Replicas: 2, HealthInterval: time.Hour, // manual health passes only
		Retries: 1, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		AttemptTimeout: 500 * time.Millisecond,
	})
	h := g.Handler()

	warm := postRoute(h, 3, 96)
	if warm.Code != http.StatusOK {
		t.Fatalf("warmup status %d", warm.Code)
	}
	wantStale := normalizeAnswer(t, warm.Body.Bytes())

	for _, in := range instances {
		in.Kill()
	}
	g.CheckHealth()
	if g.ReadyBackends() != 0 {
		t.Fatalf("ready backends = %d after killing all", g.ReadyBackends())
	}

	stale := postRoute(h, 3, 96)
	if stale.Code != http.StatusOK {
		t.Fatalf("stale answer status %d, want 200", stale.Code)
	}
	if stale.Header().Get("X-Cluster-Degraded") != "1" {
		t.Fatal("stale answer must carry X-Cluster-Degraded")
	}
	var staleAns routeAnswer
	if err := json.Unmarshal(stale.Body.Bytes(), &staleAns); err != nil {
		t.Fatal(err)
	}
	if !staleAns.Degraded || staleAns.DegradedSource != "stale" {
		t.Fatalf("stale answer tagged %+v, want degraded_source=stale", staleAns)
	}
	// Apart from the tags the stale answer is the cached one.
	staleAns.Degraded, staleAns.DegradedSource = false, ""
	reenc, _ := json.Marshal(staleAns)
	if !bytes.Equal(normalizeAnswer(t, reenc), wantStale) {
		t.Fatalf("stale body %s does not match the cached answer %s", reenc, wantStale)
	}

	lr := postRoute(h, 7, 55)
	if lr.Code != http.StatusOK {
		t.Fatalf("longrange answer status %d, want 200", lr.Code)
	}
	var lrAns routeAnswer
	if err := json.Unmarshal(lr.Body.Bytes(), &lrAns); err != nil {
		t.Fatal(err)
	}
	if !lrAns.Degraded || lrAns.DegradedSource != "longrange" {
		t.Fatalf("longrange answer tagged %+v", lrAns)
	}
	if len(lrAns.Path) != 2 || lrAns.Path[0] != 7 || lrAns.Path[1] != 55 || lrAns.Hops != 1 {
		t.Fatalf("longrange path %v hops %d, want [7 55] / 1", lrAns.Path, lrAns.Hops)
	}

	counters := g.Registry().Counters()
	if counters["hybridroute_cluster_degraded_answers_total"] != 2 {
		t.Fatalf("degraded_answers_total = %d, want 2", counters["hybridroute_cluster_degraded_answers_total"])
	}
	if counters["hybridroute_cluster_degraded_stale_total"] != 1 || counters["hybridroute_cluster_degraded_longrange_total"] != 1 {
		t.Fatalf("degraded split stale=%d longrange=%d, want 1/1",
			counters["hybridroute_cluster_degraded_stale_total"], counters["hybridroute_cluster_degraded_longrange_total"])
	}
	// Gateway readiness reflects the dead fleet while /route stays useful.
	rz := httptest.NewRecorder()
	h.ServeHTTP(rz, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rz.Code != http.StatusServiceUnavailable {
		t.Fatalf("gateway /readyz = %d with no live backends, want 503", rz.Code)
	}
}

// TestGatewayRejectsDeliver pins that simulated delivery cannot be issued
// through the gateway (replicas share one simulator; a hedged deliver would
// transmit twice).
func TestGatewayRejectsDeliver(t *testing.T) {
	g := newFakeGateway(t, Config{Replicas: 1}, fakeBackend(t, okRoute("a")).URL)
	req := httptest.NewRequest(http.MethodPost, "/route", bytes.NewReader([]byte(`{"s":0,"t":1,"deliver":true}`)))
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("deliver through gateway = %d, want 400", rec.Code)
	}
}

// TestGatewayChaosKill is the headline resilience contract (ISSUE
// acceptance): 3 backends at R=2 under continuous traffic, one backend
// killed mid-run by a chaos schedule. Every accepted query completes exactly
// once — no query lost, no duplicate answer — availability stays >= 99% of
// offered load, and the surviving backends drain to accepted == completed.
func TestGatewayChaosKill(t *testing.T) {
	nw := testNetwork(t)
	instances, g := spawnCluster(t, nw, 3, Config{
		Replicas: 2, HealthInterval: 25 * time.Millisecond,
		BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
		AttemptTimeout: 2 * time.Second,
	})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	sch, err := ParseChaosSpec("kill@150ms:1", len(instances))
	if err != nil {
		t.Fatal(err)
	}
	chaosDone := make(chan struct{})
	go func() { defer close(chaosDone); sch.Apply(nil, instances) }()

	const clients, perClient = 8, 40
	offered := clients * perClient
	var ok200, answers atomic.Int64
	rng := rand.New(rand.NewSource(11))
	n := nw.G.N()
	pairs := make([][2]int, offered)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				p := pairs[c*perClient+i]
				body := fmt.Sprintf(`{"s":%d,"t":%d}`, p[0], p[1])
				resp, err := http.Post(ts.URL+"/route", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					continue // a lost query: counted against availability
				}
				buf, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				answers.Add(1)
				if resp.StatusCode == http.StatusOK {
					var ans routeAnswer
					if json.Unmarshal(buf, &ans) != nil {
						t.Errorf("client %d query %d: bad body %q", c, i, buf)
						return
					}
					ok200.Add(1)
				}
				time.Sleep(2 * time.Millisecond) // spread traffic across the kill
			}
		}(c)
	}
	wg.Wait()
	<-chaosDone

	if !instances[1].Killed() {
		t.Fatal("chaos schedule did not kill instance 1")
	}
	if got := answers.Load(); got != int64(offered) {
		t.Fatalf("answers = %d, want exactly %d (one response per query)", got, offered)
	}
	if avail := float64(ok200.Load()) / float64(offered); avail < 0.99 {
		t.Fatalf("availability %.4f < 0.99 (%d/%d ok)", avail, ok200.Load(), offered)
	}

	// Drain the survivors: the serve invariant must hold through the chaos.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	lost := uint64(0)
	for i, in := range instances {
		if i == 1 {
			continue
		}
		if err := in.Drain(ctx); err != nil {
			t.Fatalf("drain instance %d: %v", i, err)
		}
		st := in.Server.ServerStats()
		if st.Accepted != st.Completed {
			t.Fatalf("instance %d: accepted %d != completed %d", i, st.Accepted, st.Completed)
		}
		lost += st.Accepted - st.Completed
	}
	if lost != 0 {
		t.Fatalf("lost %d accepted queries", lost)
	}
}

// TestGatewayDrainUnderTraffic is the graceful-drain satellite: a backend is
// drained (the SIGTERM path) while requests are in flight through the
// gateway. The drained backend finishes what it accepted (accepted ==
// completed), traffic keeps answering through the survivor, and every client
// gets exactly one response.
func TestGatewayDrainUnderTraffic(t *testing.T) {
	nw := testNetwork(t)
	instances, g := spawnCluster(t, nw, 2, Config{
		Replicas: 2, HealthInterval: 25 * time.Millisecond,
		BackoffBase: time.Millisecond, BackoffMax: 5 * time.Millisecond,
	})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	const offered = 120
	var answers, ok200 atomic.Int64
	var wg sync.WaitGroup
	rng := rand.New(rand.NewSource(5))
	n := nw.G.N()
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < offered/6; i++ {
				body := fmt.Sprintf(`{"s":%d,"t":%d}`, r.Intn(n), r.Intn(n))
				resp, err := http.Post(ts.URL+"/route", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				if resp.StatusCode == http.StatusOK {
					ok200.Add(1)
				}
				resp.Body.Close()
				answers.Add(1)
				time.Sleep(time.Millisecond)
			}
		}(rng.Int63())
	}

	// Drain backend 1 mid-traffic: the SIGTERM path a rolling restart takes.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := instances[1].Drain(ctx); err != nil {
		t.Fatalf("drain under traffic: %v", err)
	}
	st := instances[1].Server.ServerStats()
	if st.Accepted != st.Completed {
		t.Fatalf("drained backend: accepted %d != completed %d", st.Accepted, st.Completed)
	}
	wg.Wait()

	if got := answers.Load(); got != offered {
		t.Fatalf("answers = %d, want exactly %d", got, offered)
	}
	if avail := float64(ok200.Load()) / float64(offered); avail < 0.99 {
		t.Fatalf("availability through drain %.4f < 0.99", avail)
	}
}

// TestInstancePauseResume pins the gray-failure shim: a paused instance
// parks requests (they complete after resume), slow injects latency.
func TestInstancePauseResume(t *testing.T) {
	nw := testNetwork(t)
	instances, err := SpawnInstances(nw, 1, InstanceOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := instances[0]
	defer in.Kill()

	in.Pause()
	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(in.URL() + "/healthz")
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case code := <-done:
		t.Fatalf("request completed (%d) while instance paused", code)
	case <-time.After(100 * time.Millisecond):
	}
	in.Resume()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Fatalf("post-resume status %d", code)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("request still parked after resume")
	}

	in.Slow(80 * time.Millisecond)
	start := time.Now()
	resp, err := http.Get(in.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if took := time.Since(start); took < 80*time.Millisecond {
		t.Fatalf("slowed request took %v, want >= 80ms", took)
	}
	in.Slow(0)
}

// TestGatewayReusesBackendConnections pins the gateway's keep-alive pool:
// sequential queries and health passes, whose /readyz bodies must be read to
// EOF, open at most the pool's size of connections to each backend instead
// of one per request.
func TestGatewayReusesBackendConnections(t *testing.T) {
	pool := connsPerBackend()
	requests := pool + 20
	var conns [2]atomic.Int32
	urls := make([]string, len(conns))
	for i := range conns {
		mux := http.NewServeMux()
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { _, _ = w.Write([]byte("ready\n")) })
		mux.HandleFunc("/route", okRoute(""))
		ts := httptest.NewUnstartedServer(mux)
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				conns[i].Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	g := newFakeGateway(t, Config{Replicas: 2}, urls...)
	defer g.Close()
	for i := 0; i < requests; i++ {
		if rec := postRoute(g.Handler(), i%20, (i+7)%20); rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, rec.Code)
		}
		g.CheckHealth()
	}
	for i := range conns {
		if got := int(conns[i].Load()); got > pool {
			t.Errorf("backend %d: %d connections for %d queries and health passes, want at most %d", i, got, requests, pool)
		}
	}
}
