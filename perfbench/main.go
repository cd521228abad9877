// Command perfbench is the repository benchmark. One process runs one named
// workload for a fixed measuring time, checks every output it measured, and
// prints each metric by name with its unit; the last line of standard output
// is the machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation. With -trace 1 the same workload runs again with spans
// recorded around every call the benchmark makes into a layer, and the
// metrics are the per-layer ledger (see README.md for the layer map). Spans
// are kept in memory and written to .bench_build/trace/ when the run ends.
//
// Usage (from the repository root, or through run.py which builds it):
//
//	perfbench -workload cold-holes -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a run's named metrics.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the final JSON line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed     int64
	duration time.Duration
	rec      *recorder // nil: untraced run
}

// outcome is what a workload hands back: the counts, the metrics for the
// requested mode, every output-check failure it found (a wrong answer makes
// the run incorrect) and the operations that failed or were refused (they
// count in failed, not against correctness).
type outcome struct {
	attempted, failed int64
	metrics           metrics
	problems          []string
	failures          []string
}

// fail records an output-check failure.
func (o *outcome) fail(format string, args ...interface{}) {
	o.problems = appendCapped(o.problems, fmt.Sprintf(format, args...))
}

// failOp counts one failed or refused operation.
func (o *outcome) failOp(format string, args ...interface{}) {
	o.failed++
	o.failures = appendCapped(o.failures, fmt.Sprintf(format, args...))
}

// appendCapped keeps a message list to a readable length.
func appendCapped(list []string, msg string) []string {
	const max = 20
	switch {
	case len(list) < max:
		return append(list, msg)
	case len(list) == max:
		return append(list, "further messages omitted")
	}
	return list
}

// loadDeclared reads the metric names and units the benchmark definition
// declares for the run's mode: per_layer for a traced run, end_to_end
// otherwise.
func loadDeclared(path string, traced bool) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition: %w", err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	list := def.EndToEnd
	if traced {
		list = def.PerLayer
	}
	out := make(map[string]string, len(list))
	for _, d := range list {
		out[d.Name] = d.Unit
	}
	return out, nil
}

// conform checks the measured metrics against the declared ones: every
// measured metric must be declared with the same unit. A declared per-layer
// metric the workload does not exercise (the churn and transport layers in a
// workload without churn, the generator lag in a closed loop) is reported as
// 0; a missing end-to-end metric is an error.
func (m metrics) conform(declared map[string]string, traced bool) error {
	for name, v := range m {
		unit, ok := declared[name]
		if !ok {
			return fmt.Errorf("metric %s is not declared for this mode", name)
		}
		if unit != v.Unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", name, v.Unit, unit)
		}
	}
	for name, unit := range declared {
		if _, ok := m[name]; ok {
			continue
		}
		if !traced {
			return fmt.Errorf("end-to-end metric %s was not measured", name)
		}
		m.set(name, 0, unit)
	}
	return nil
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"cold-holes":    runColdHoles,
	"hot-gateway":   runHotGateway,
	"churn-deliver": runChurnDeliver,
}

func main() {
	name := flag.String("workload", "", "workload name: cold-holes, hot-gateway or churn-deliver")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 10, "measuring time of the run")
	traced := flag.Int("trace", 0, "1: traced run reporting the per-layer ledger; 0: untraced end-to-end run")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, duration: time.Duration(*seconds * float64(time.Second))}
	if *traced == 1 {
		cfg.rec = newRecorder()
	}
	declared, err := loadDeclared("BENCHMARK.json", *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := run(cfg)
	if err == nil {
		err = out.metrics.conform(declared, *traced == 1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cfg.rec != nil {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := writeSpans(path, cfg.rec.snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	for _, f := range out.failures {
		fmt.Printf("operation failed: %s\n", f)
	}
	for _, p := range out.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.6g %s\n", n, out.metrics[n].Value, out.metrics[n].Unit)
	}
	line, err := json.Marshal(result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
