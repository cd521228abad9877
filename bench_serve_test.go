// Sustained-throughput benchmark for serve mode: an open-loop arrival process
// offers queries at a fixed rate against the long-running server, and the leg
// reports what the paper's preprocessing/query split buys at runtime — serving
// latency quantiles under load, achieved throughput, and how much the bounded
// admission queue sheds once the offered rate exceeds capacity:
//
//	BenchmarkServeSustained/rate=2000    p50_us, p99_us, qps, offered_qps, shed_rate
//
// Open-loop means the submitter never waits for answers: arrivals follow the
// wall clock (with catch-up, so a slow scheduler tick does not silently lower
// the offered rate), which is what makes the shed rate an honest overload
// signal rather than a closed-loop artifact. One op per leg is one full
// multi-second window; each window runs against a fresh server over the shared
// prebuilt network. `make bench-serve` runs the series with -benchtime=1x and
// merges the rows into BENCH_results.json.
package hybridroute_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"hybridroute/internal/core"
	"hybridroute/internal/serve"
)

var benchServeState struct {
	once sync.Once
	nw   *core.Network
	err  error
}

// benchServeNetwork builds (once) the serving substrate: the same fixed-hole
// bordered grid as the scale series at the ~2.5k-node size, through the static
// pipeline — serve-mode routing needs no simulator.
func benchServeNetwork(b *testing.B) *core.Network {
	b.Helper()
	s := &benchServeState
	s.once.Do(func() {
		g := benchScaleGraph(b, "serve", 27.5, false) // 51×51 grid ≈ 2.5k nodes
		s.nw, s.err = core.PreprocessStatic(g, core.Config{})
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.nw
}

func BenchmarkServeSustained(b *testing.B) {
	nw := benchServeNetwork(b)
	queries := scaleQueries(nw.G.N(), 512)
	eng := core.NewEngine(nw, core.EngineConfig{})
	const window = 2 * time.Second

	for _, rate := range []int{2000, 20000, 200000} {
		rate := rate
		b.Run(fmt.Sprintf("rate=%d", rate), func(b *testing.B) {
			for iter := 0; iter < b.N; iter++ {
				srv, err := serve.New(eng, serve.Config{QueueSize: 512})
				if err != nil {
					b.Fatal(err)
				}
				srv.Start()

				total := rate * int(window/time.Second)
				latencies := make([]int64, total) // -1: shed, 0: pending
				for i := range latencies {
					latencies[i] = -1
				}
				start := time.Now()
				submitted := 0
				for submitted < total {
					// Open-loop with catch-up: offer exactly rate*elapsed
					// arrivals regardless of how late this tick fired.
					due := int(float64(rate) * time.Since(start).Seconds())
					if due > total {
						due = total
					}
					for ; submitted < due; submitted++ {
						i := submitted
						q := queries[i%len(queries)]
						_ = srv.Submit(serve.Request{S: q.S, T: q.T}, func(r serve.Response) {
							latencies[i] = int64(r.Latency) // distinct index per request
						})
					}
					time.Sleep(time.Millisecond)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				err = srv.Shutdown(ctx)
				cancel()
				if err != nil {
					b.Fatal(err)
				}
				wall := time.Since(start).Seconds()

				done := make([]int64, 0, total)
				for _, l := range latencies {
					if l >= 0 {
						done = append(done, l)
					}
				}
				st := srv.ServerStats()
				if int(st.Completed) != len(done) {
					b.Fatalf("completed %d but %d callbacks recorded", st.Completed, len(done))
				}
				sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
				if len(done) == 0 {
					b.Fatal("no queries completed")
				}
				b.ReportMetric(float64(done[len(done)*50/100])/1e3, "p50_us")
				b.ReportMetric(float64(done[len(done)*99/100])/1e3, "p99_us")
				b.ReportMetric(float64(len(done))/wall, "qps")
				b.ReportMetric(float64(rate), "offered_qps")
				b.ReportMetric(float64(st.ShedFull+st.ShedFair)/float64(total), "shed_rate")
			}
		})
	}
}
