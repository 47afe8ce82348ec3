// Command perfbench is the repository's benchmark. One run executes one
// workload for a fixed number of seconds, checks every output it
// produces, and prints the workload's metrics by name with their
// units. An untraced run (-trace 0) reports the end-to-end metrics; a
// traced run (-trace 1) reports the per-layer metrics, measured by
// spans the benchmark records around each call into a layer. See
// README.md in this directory for the workload and metric catalogue.
//
// Run it through run.sh from the repository root, which builds it
// first:
//
//	bash perfbench/run.sh --workload table56-s953 --seed 1 --seconds 15 --trace 0
//
// Standard output ends with two JSON lines: the full record (host
// facts, every metric with its ratio base or sample count, digests and
// failures) and then the result line
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 7.1, "unit": "s"}, ...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// runEnv is what a workload run is given.
type runEnv struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool
	outDir   string // where spans and scratch data go
}

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(*runEnv) (*Result, error)
}

var workloads = []workload{
	{"table56-s953", flowWorkload(flowSpec{circuit: "s953"})},
	{"table7-s820", flowWorkload(flowSpec{circuit: "s820", translate: true})},
	{"jobs-mix", jobsMix(jobsMixConfig{})},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run: "+workloadNames())
		seed    = fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = fs.Float64("seconds", 15, "how long to measure")
		trace   = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (want %s)", *name, workloadNames())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	outDir := os.Getenv("PERFBENCH_OUT")
	if outDir == "" {
		outDir = ".bench_build"
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	env := &runEnv{
		workload: w.name,
		seed:     *seed,
		budget:   time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		outDir:   outDir,
	}
	res, err := w.run(env)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	metrics, err := res.report(env.traced)
	if err != nil {
		return err
	}
	failed := len(res.Failures)
	fr := Ratio{Num: float64(failed), Base: float64(res.Attempted)}
	res.Details["failed_ratio"] = Detail{Value: fr.Value(), Unit: "ratio", Ratio: &fr}
	for _, why := range res.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", why)
	}
	record := map[string]any{
		"workload": w.name,
		"seed":     *seed,
		"seconds":  *seconds,
		"trace":    *trace,
		"host":     hostFacts(),
		"metrics":  res.Details,
		"info":     res.Info,
		"failures": res.Failures,
	}
	if err := printJSON(record); err != nil {
		return err
	}
	return printJSON(map[string]any{
		"correct":   failed == 0,
		"attempted": res.Attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
}

func printJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
