package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file from current output")

// TestConvertGolden pins the full JSON schema benchjson emits — environment
// header, parsed benchmark lines (malformed ones skipped) and the embedded
// metrics block — against testdata/golden.json. Run with -update to regenerate
// after an intentional schema change.
func TestConvertGolden(t *testing.T) {
	in, err := os.ReadFile(filepath.Join("testdata", "bench.txt"))
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := os.ReadFile(filepath.Join("testdata", "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var echo bytes.Buffer
	doc, err := convert(bytes.NewReader(in), &echo, metrics)
	if err != nil {
		t.Fatal(err)
	}
	// The text stream must pass through byte-for-byte for benchstat.
	if !bytes.Equal(echo.Bytes(), in) {
		t.Error("echoed text differs from input")
	}

	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("JSON schema drifted from golden file (run `go test ./cmd/benchjson -update` if intentional):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestConvertWithoutMetrics checks the metrics block is absent (not null)
// when no metrics file is given.
func TestConvertWithoutMetrics(t *testing.T) {
	var echo bytes.Buffer
	doc, err := convert(bytes.NewReader([]byte("BenchmarkX-4 10 100 ns/op\n")), &echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, []byte(`"metrics"`)) {
		t.Errorf("metrics key must be omitted when not provided: %s", blob)
	}
	if len(doc.Benchmarks) != 1 || doc.Benchmarks[0].Name != "BenchmarkX" || doc.Benchmarks[0].Procs != 4 {
		t.Errorf("parsed %+v", doc.Benchmarks)
	}
}

// TestConvertRejectsInvalidMetrics pins the error path for a corrupt file.
func TestConvertRejectsInvalidMetrics(t *testing.T) {
	var echo bytes.Buffer
	if _, err := convert(bytes.NewReader(nil), &echo, []byte("{not json")); err == nil {
		t.Fatal("invalid metrics JSON must be rejected")
	}
}

// TestDeriveChurnOverhead pins the derived churn block: the invalidation
// overhead appears only when both the churned and the stable engine-batch
// lines are present, and carries the repair cycle time alongside.
func TestDeriveChurnOverhead(t *testing.T) {
	in := "BenchmarkChurnRepair-8 100 2000000 ns/op\n" +
		"BenchmarkEngineBatchChurned-8 50 30000000 ns/op\n" +
		"BenchmarkEngineBatchStable-8 200 10000000 ns/op\n"
	var echo bytes.Buffer
	doc, err := convert(bytes.NewReader([]byte(in)), &echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Derived["churn_invalidation_overhead"]; got != 3 {
		t.Errorf("churn_invalidation_overhead = %v, want 3", got)
	}
	if got := doc.Derived["churn_repair_ns_per_cycle"]; got != 2000000 {
		t.Errorf("churn_repair_ns_per_cycle = %v, want 2000000", got)
	}

	// Without the stable control the block must be absent entirely.
	doc, err = convert(bytes.NewReader([]byte("BenchmarkEngineBatchChurned-8 50 30000000 ns/op\n")), &echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Derived != nil {
		t.Errorf("derived block must be omitted without both batch lines: %v", doc.Derived)
	}
}

// TestDeriveAbstractionOverhead pins the derived abstraction block: the bbox
// route overhead appears only when both backend route lines are present.
func TestDeriveAbstractionOverhead(t *testing.T) {
	in := "BenchmarkAbstractionRouteHull-8 100 10000000 ns/op\n" +
		"BenchmarkAbstractionRouteBBox-8 100 15000000 ns/op\n"
	var echo bytes.Buffer
	doc, err := convert(bytes.NewReader([]byte(in)), &echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Derived["abstraction_bbox_route_overhead"]; got != 1.5 {
		t.Errorf("abstraction_bbox_route_overhead = %v, want 1.5", got)
	}

	doc, err = convert(bytes.NewReader([]byte("BenchmarkAbstractionRouteBBox-8 100 15000000 ns/op\n")), &echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Derived != nil {
		t.Errorf("derived block must be omitted without the hull control: %v", doc.Derived)
	}
}

// TestParseCustomMetrics pins that b.ReportMetric units land in the custom
// block and that non-finite values are dropped instead of poisoning the
// document (json.Marshal rejects NaN/Inf).
func TestParseCustomMetrics(t *testing.T) {
	in := "BenchmarkScaleBuild/n=1e5-8 1 2000000000 ns/op 152.4 bytes/node 91234 queries/sec NaN broken/unit +Inf also/broken\n"
	var echo bytes.Buffer
	doc, err := convert(bytes.NewReader([]byte(in)), &echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Custom["bytes/node"] != 152.4 || b.Custom["queries/sec"] != 91234 {
		t.Errorf("custom metrics = %v", b.Custom)
	}
	if _, ok := b.Custom["broken/unit"]; ok {
		t.Error("NaN metric must be dropped")
	}
	if _, ok := b.Custom["also/broken"]; ok {
		t.Error("Inf metric must be dropped")
	}
	if _, err := json.Marshal(doc); err != nil {
		t.Fatalf("document with custom metrics must marshal: %v", err)
	}
}

// TestMergePriorFirstRun is the first-run golden: merging against a missing
// or empty prior file must leave the document byte-identical to not merging
// at all — no error, no NaN, no stray fields.
func TestMergePriorFirstRun(t *testing.T) {
	in := "goos: linux\nBenchmarkX-4 10 100 ns/op\n"
	var echo bytes.Buffer
	fresh, err := convert(bytes.NewReader([]byte(in)), &echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(fresh, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	for name, setup := range map[string]func(string) error{
		"missing": func(string) error { return nil },
		"empty":   func(p string) error { return os.WriteFile(p, nil, 0o644) },
		"blank":   func(p string) error { return os.WriteFile(p, []byte(" \n\t\n"), 0o644) },
	} {
		t.Run(name, func(t *testing.T) {
			prior := filepath.Join(dir, name+".json")
			if err := setup(prior); err != nil {
				t.Fatal(err)
			}
			doc := fresh
			if err := mergePrior(&doc, prior); err != nil {
				t.Fatalf("first-run merge must not fail: %v", err)
			}
			got, err := json.MarshalIndent(doc, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("first-run merge changed the document:\n--- got ---\n%s\n--- want ---\n%s", got, want)
			}
		})
	}
}

// TestMergePriorKeepsAndOverrides pins the merge semantics: prior lines
// survive unless re-measured, re-measured lines take the fresh value, and
// derived ratios are recomputed over the merged set.
func TestMergePriorKeepsAndOverrides(t *testing.T) {
	prior := benchFile{
		GoOS: "linux",
		Benchmarks: []benchResult{
			{Name: "BenchmarkAbstractionRouteHull", Procs: 8, Iterations: 100, NsPerOp: 10000000},
			{Name: "BenchmarkOld", Procs: 8, Iterations: 5, NsPerOp: 42},
		},
	}
	path := filepath.Join(t.TempDir(), "prior.json")
	buf, err := json.Marshal(prior)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	in := "BenchmarkAbstractionRouteBBox-8 100 15000000 ns/op\n" +
		"BenchmarkOld-8 7 99 ns/op\n"
	var echo bytes.Buffer
	doc, err := convert(bytes.NewReader([]byte(in)), &echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mergePrior(&doc, path); err != nil {
		t.Fatal(err)
	}
	byName := map[string]benchResult{}
	for _, b := range doc.Benchmarks {
		byName[b.Name] = b
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("merged %d benchmarks, want 3: %+v", len(doc.Benchmarks), doc.Benchmarks)
	}
	if byName["BenchmarkOld"].NsPerOp != 99 {
		t.Errorf("re-measured line must take the fresh value, got %v", byName["BenchmarkOld"].NsPerOp)
	}
	if byName["BenchmarkAbstractionRouteHull"].NsPerOp != 10000000 {
		t.Error("prior-only line must survive the merge")
	}
	// Cross-benchmark ratio now derivable from one prior and one fresh line.
	if got := doc.Derived["abstraction_bbox_route_overhead"]; got != 1.5 {
		t.Errorf("derived over merged set = %v, want 1.5", got)
	}
	if doc.GoOS != "linux" {
		t.Errorf("environment must fall back to prior when unset, got %q", doc.GoOS)
	}
}

// TestMergePriorKeepsRowCPU merges documents measured on three CPUs, one
// after another: every row keeps the CPU of the run that measured it, while
// the document-level cpu names the latest run.
func TestMergePriorKeepsRowCPU(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	run := func(in string) benchFile {
		t.Helper()
		var echo bytes.Buffer
		doc, err := convert(bytes.NewReader([]byte(in)), &echo, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := mergePrior(&doc, path); err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	run("cpu: CPU A\nBenchmarkX-2 10 100 ns/op\nBenchmarkY-2 10 100 ns/op\n")
	run("cpu: CPU B\nBenchmarkY-2 10 200 ns/op\nBenchmarkZ-2 10 200 ns/op\n")
	doc := run("cpu: CPU C\nBenchmarkW-2 10 300 ns/op\n")
	want := map[string]string{"BenchmarkX": "CPU A", "BenchmarkY": "CPU B", "BenchmarkZ": "CPU B", "BenchmarkW": "CPU C"}
	if len(doc.Benchmarks) != len(want) {
		t.Fatalf("merged %d rows, want %d: %+v", len(doc.Benchmarks), len(want), doc.Benchmarks)
	}
	for _, b := range doc.Benchmarks {
		if b.CPU != want[b.Name] {
			t.Errorf("%s: cpu %q, want %q", b.Name, b.CPU, want[b.Name])
		}
	}
	if doc.CPU != "CPU C" {
		t.Errorf("document cpu %q, want the latest run's", doc.CPU)
	}
}

// TestClusterRollupGolden pins the cluster rollup schema: per-instance
// registry snapshots (one bare, one -trace-wrapped) merged with counters
// summed and gauges maxed, against testdata/cluster_rollup_golden.json.
func TestClusterRollupGolden(t *testing.T) {
	roll, err := rollupInstances([]string{
		filepath.Join("testdata", "instance_i0.json"),
		filepath.Join("testdata", "instance_i1.json"),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(roll, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "cluster_rollup_golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("cluster rollup drifted from golden file (run `go test ./cmd/benchjson -update` if intentional):\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The semantic invariants behind the golden bytes: counters summed
	// (120+95), gauges maxed (31 beats 12, 950.5 beats 410.25), and a counter
	// present in only one instance survives.
	if roll.Instances != 2 {
		t.Errorf("instances = %d, want 2", roll.Instances)
	}
	if roll.Counters["hybridroute_serve_requests_total"] != 215 {
		t.Errorf("summed requests = %d, want 215", roll.Counters["hybridroute_serve_requests_total"])
	}
	if roll.Counters["hybridroute_engine_cache_evictions_total"] != 7 {
		t.Errorf("single-instance counter must survive, got %d", roll.Counters["hybridroute_engine_cache_evictions_total"])
	}
	if roll.Gauges["hybridroute_engine_queue_depth_max"] != 31 {
		t.Errorf("maxed queue depth = %v, want 31", roll.Gauges["hybridroute_engine_queue_depth_max"])
	}
	if roll.Gauges["hybridroute_serve_drain_rate"] != 950.5 {
		t.Errorf("maxed drain rate = %v, want 950.5", roll.Gauges["hybridroute_serve_drain_rate"])
	}
}

// TestClusterRollupErrors pins the failure modes: unreadable file, invalid
// JSON, and a document with neither counters nor gauges.
func TestClusterRollupErrors(t *testing.T) {
	if _, err := rollupInstances([]string{filepath.Join("testdata", "nope.json")}); err == nil {
		t.Error("missing file must fail")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := rollupInstances([]string{bad}); err == nil {
		t.Error("invalid JSON must fail")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"events": 3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := rollupInstances([]string{empty}); err == nil {
		t.Error("snapshot without registry data must fail")
	}
}

// TestMergePriorKeepsCluster pins that a merge without a fresh -instances
// rollup preserves the prior one.
func TestMergePriorKeepsCluster(t *testing.T) {
	prior := benchFile{
		Benchmarks: []benchResult{{Name: "BenchmarkX", Procs: 1, Iterations: 1, NsPerOp: 1}},
		Cluster:    &clusterRollup{Instances: 3, Counters: map[string]uint64{"c": 9}},
	}
	path := filepath.Join(t.TempDir(), "prior.json")
	buf, err := json.Marshal(prior)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var echo bytes.Buffer
	doc, err := convert(bytes.NewReader([]byte("BenchmarkY-1 2 50 ns/op\n")), &echo, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mergePrior(&doc, path); err != nil {
		t.Fatal(err)
	}
	if doc.Cluster == nil || doc.Cluster.Instances != 3 || doc.Cluster.Counters["c"] != 9 {
		t.Fatalf("prior cluster rollup lost in merge: %+v", doc.Cluster)
	}
}
