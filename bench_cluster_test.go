// Gateway overhead benchmark for cluster mode: the same closed-loop /route
// workload measured against a single serve.Server and against the sharding
// gateway fronting three backends (R=2), with and without hedging. The delta
// between the direct and gateway legs is the price of the resilience tier on
// the happy path — one extra HTTP hop, shard lookup, breaker bookkeeping —
// which the E23 sweep then justifies under chaos:
//
//	BenchmarkClusterGateway/direct      qps
//	BenchmarkClusterGateway/cluster3    qps
//	BenchmarkClusterGateway/cluster3-hedged  qps
package hybridroute_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hybridroute/internal/cluster"
	"hybridroute/internal/core"
	"hybridroute/internal/serve"
)

// benchClusterLoop drives b.N sequential queries against a /route endpoint
// over real HTTP and reports achieved qps. The loop is sequential, so one
// pooled keep-alive connection carries every query once each body is read
// to EOF: the legs measure the HTTP hop and the gateway, not TCP connects.
func benchClusterLoop(b *testing.B, url string, nodes int) {
	b.Helper()
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := (i * 7919) % nodes
		t := (i*104729 + 1) % nodes
		body := fmt.Sprintf(`{"s":%d,"t":%d}`, s, t)
		resp, err := client.Post(url+"/route", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("query %d: status %d", i, resp.StatusCode)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "qps")
}

func BenchmarkClusterGateway(b *testing.B) {
	nw := benchServeNetwork(b)
	nodes := nw.G.N()

	b.Run("direct", func(b *testing.B) {
		eng := core.NewEngine(nw, core.EngineConfig{Workers: 4})
		srv, err := serve.New(eng, serve.Config{Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		srv.Start()
		defer srv.Shutdown(context.Background())
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		benchClusterLoop(b, ts.URL, nodes)
	})

	gatewayLeg := func(hedge time.Duration) func(b *testing.B) {
		return func(b *testing.B) {
			instances, err := cluster.SpawnInstances(nw, 3, cluster.InstanceOptions{Workers: 4})
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				for _, in := range instances {
					in.Kill()
				}
			}()
			g, err := cluster.NewGateway(nw, cluster.FromInstances(instances), cluster.Config{
				Replicas: 2, HedgeDelay: hedge,
			})
			if err != nil {
				b.Fatal(err)
			}
			g.Start()
			defer g.Close()
			ts := httptest.NewServer(g.Handler())
			defer ts.Close()
			benchClusterLoop(b, ts.URL, nodes)
		}
	}
	b.Run("cluster3", gatewayLeg(0))
	b.Run("cluster3-hedged", gatewayLeg(10*time.Millisecond))
}
