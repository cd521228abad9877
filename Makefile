# Tier-1 verification (referenced from ROADMAP.md): gofmt check + vet + build
# + full test suite + a race-detector pass over the packages with concurrent
# query paths.
.PHONY: tier1 fmt vet build test race fuzz bench bench-scale bench-serve ci

tier1: fmt vet build test race

# Fail when any Go file is not gofmt-clean, listing the files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: not formatted:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...

build:
	go build ./...

test:
	go test ./...

# The batch engine serves queries from many goroutines over one shared
# Network, the simulator's fault injection must stay deterministic under
# parallel stepping, the tracer takes concurrent emits from the worker
# pool, churn repair patches the shared triangulation between engine
# batches, the hole abstraction backends are read concurrently by every
# routing worker, engine workers walk Chew corridors concurrently over one
# shared Router, the mem arenas back the engine's pooled query scratch and
# the LDel² build's mark sets, the serve layer mixes live churn repair with
# in-flight queries and concurrent scrapes, the cluster gateway
# races hedged attempts against breaker state while chaos kills
# backends under it, and every visibility domain's seen memo is filled
# and read by concurrent plans; keep all ten packages race-clean.
race:
	go test -race ./internal/abstraction/... ./internal/cluster/... ./internal/core/... ./internal/delaunay/... ./internal/mem/... ./internal/routing/... ./internal/serve/... ./internal/sim/... ./internal/trace/... ./internal/vis/...

# Fuzz the degenerate-geometry targets, 20 s each: FuzzChewWalk (the Chew
# corridor walk against its full-scan reference), FuzzDomainVisible (the
# culled visibility domain, its convex-hull obstacles' separating-edge
# certificate and its planners, one-source included, against their unculled
# reference), FuzzConvexHull (the hull and its boundary walk) and
# FuzzSegmentPredicates (the segment predicates, also against their
# orientation-first formulas, and the one-pass PointInPolygon against its
# two-pass formula). Go fuzzes one target per invocation. A walk or domain
# input costs milliseconds, so their new inputs are minimized for 5 s, not
# the default 60 s that would use up the whole run; so are the predicates'.
fuzz:
	go test ./internal/routing -run '^$$' -fuzz '^FuzzChewWalk$$' -fuzztime 20s -fuzzminimizetime 5s
	go test ./internal/vis -run '^$$' -fuzz '^FuzzDomainVisible$$' -fuzztime 20s -fuzzminimizetime 5s
	go test ./internal/geom -run '^$$' -fuzz '^FuzzConvexHull$$' -fuzztime 20s
	go test ./internal/geom -run '^$$' -fuzz '^FuzzSegmentPredicates$$' -fuzztime 20s -fuzzminimizetime 5s

# Benchmarks stream through cmd/benchjson, which passes the benchstat-friendly
# text through unchanged and archives a JSON summary for CI artifacts. -merge
# folds the new rows into an existing BENCH_results.json (first run: no-op),
# so the scale series below and the quick series land in one document.
bench:
	go test -bench=. -benchmem -run '^$$' | go run ./cmd/benchjson -merge -o BENCH_results.json

# Scale benchmark series (n = 10^4, 10^5, 10^6): static build time, bytes per
# node and warm/cold query throughput. -benchtime=1x — one build per size is
# the measurement. The 10^6 leg needs ~8 GB RSS and several minutes.
bench-scale:
	HYBRIDROUTE_SCALE=1 go test -bench='BenchmarkScale' -benchmem -benchtime=1x -timeout 60m -run '^$$' | go run ./cmd/benchjson -merge -o BENCH_results.json

# Sustained serve-mode throughput: open-loop arrivals at three offered rates
# against the long-running server, reporting p50/p99 serving latency, achieved
# qps and the admission shed rate. -benchtime=1x — one multi-second window per
# rate is the measurement.
bench-serve:
	go test -bench='BenchmarkServeSustained' -benchtime=1x -timeout 20m -run '^$$' | go run ./cmd/benchjson -merge -o BENCH_results.json

ci: tier1 bench
