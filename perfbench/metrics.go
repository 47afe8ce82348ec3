package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	Name, Unit string
}

// endToEnd lists the metrics an untraced run reports, in BENCHMARK.json
// order. Every workload reports all of them.
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"test_cycles", "cycles"},
	{"scan_cycles", "cycles"},
	{"detected_faults", "count"},
	{"jobs_per_s", "1/s"},
	{"job_latency_p50_s", "s"},
	{"job_latency_p90_s", "s"},
}

// perLayer lists the metrics a traced run reports, in BENCHMARK.json
// order. A layer the workload does not exercise reads 0.
var perLayer = []metricSpec{
	{"core.flow_s", "s"},
	{"core.setup_s", "s"},
	{"core.unattributed_s", "s"},
	{"seqatpg.generate_s", "s"},
	{"seqatpg.attempts", "count"},
	{"seqatpg.attempt_success_ratio", "ratio"},
	{"seqatpg.frames", "count"},
	{"seqatpg.ns_per_frame", "ns"},
	{"seqatpg.flush_vectors", "count"},
	{"combatpg.podem_calls", "count"},
	{"combatpg.podem_backtracks", "count"},
	{"combatpg.backtracks_per_call", "ratio"},
	{"baseline.generate_s", "s"},
	{"baseline.tests", "count"},
	{"translate.translate_s", "s"},
	{"translate.vectors", "count"},
	{"compact.restore_s", "s"},
	{"compact.restore_trials", "count"},
	{"compact.restore_simulations", "count"},
	{"compact.restore_batch_steps", "count"},
	{"compact.restore_kept_ratio", "ratio"},
	{"compact.restore_ns_per_batch_step", "ns"},
	{"compact.omit_s", "s"},
	{"compact.omit_trials", "count"},
	{"compact.omit_removed_ratio", "ratio"},
	{"compact.omit_simulations", "count"},
	{"compact.omit_batch_steps", "count"},
	{"compact.omit_window_memo_hits", "count"},
	{"compact.omit_reconv_cutoffs", "count"},
	{"compact.omit_ns_per_batch_step", "ns"},
	{"sim.run_s", "s"},
	{"sim.grade_s", "s"},
	{"sim.grade_ns_per_batch_step", "ns"},
	{"sim.batch_steps", "count"},
	{"sim.fastforward_ratio", "ratio"},
	{"sim.trace_hit_ratio", "ratio"},
	{"sim.pool_hit_ratio", "ratio"},
	{"sim.trace_prefix_hits", "count"},
	{"jobs.submit_s", "s"},
	{"jobs.queue_wait_s", "s"},
	{"jobs.claim_s", "s"},
	{"jobs.claim_hit_ratio", "ratio"},
	{"jobs.heartbeat_s", "s"},
	{"jobs.heartbeats", "count"},
	{"jobs.heartbeat_ckpt_bytes", "B"},
	{"jobs.result_upload_s", "s"},
	{"jobs.task_exec_s", "s"},
	{"jobs.tasks", "count"},
	{"jobs.reclaims", "count"},
	{"runctl.ckpt_bytes", "B"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Detail is a metric's full record: its value plus whatever explains
// it — a ratio's base, a percentile's sample counts, a note.
type Detail struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Ratio *Ratio  `json:"ratio,omitempty"`
	Tail  *Tail   `json:"tail,omitempty"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// Result is one benchmark run's outcome.
type Result struct {
	Attempted int
	Failures  []string
	Details   map[string]Detail
	// Info holds workload facts outside the metric catalogue: digests,
	// the committed rows checked against, reference counts.
	Info map[string]any
}

func newResult() *Result {
	return &Result{Details: make(map[string]Detail), Info: make(map[string]any)}
}

// fail records one failed operation.
func (r *Result) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// set records a plain metric value.
func (r *Result) set(name string, v float64) {
	r.Details[name] = Detail{Value: v, Unit: unitOf(name)}
}

// setN records a metric taken over n samples.
func (r *Result) setN(name string, v float64, n int) {
	r.Details[name] = Detail{Value: v, Unit: unitOf(name), N: n}
}

// ratio records a ratio metric together with its base.
func (r *Result) ratio(name string, x Ratio) {
	r.Details[name] = Detail{Value: x.Value(), Unit: unitOf(name), Ratio: &x}
}

// note attaches an explanation to an already recorded metric.
func (r *Result) note(name, text string) {
	d := r.Details[name]
	d.Note = text
	r.Details[name] = d
}

func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("perfbench: metric " + name + " is not in the catalogue")
}

// report returns the catalogue's metrics for the run's mode, filling
// the ones the workload left unset with 0 (per-layer only; an unset
// end-to-end metric is a bug in the workload).
func (r *Result) report(traced bool) (map[string]Metric, error) {
	list := endToEnd
	if traced {
		list = perLayer
	}
	out := make(map[string]Metric, len(list))
	var missing []string
	for _, m := range list {
		d, ok := r.Details[m.Name]
		if !ok && !traced {
			missing = append(missing, m.Name)
		}
		out[m.Name] = Metric{Value: d.Value, Unit: m.Unit}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("perfbench: workload left %s unset", strings.Join(missing, ", "))
	}
	return out, nil
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's peak resident set size in MiB.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// HostFacts labels every record with the machine and build it ran on.
type HostFacts struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model"`
	Commit      string `json:"commit"`
	FlowWorkers int    `json:"flow_workers"`
}

func hostFacts() HostFacts {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" || commit == "unknown" {
		commit = sourceDigest()
	}
	return HostFacts{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    cpuModel(),
		Commit:      commit,
		FlowWorkers: runtime.GOMAXPROCS(0),
	}
}

// sourceDigest identifies the code when no git commit is at hand (a
// checkout without history): "src:" and a SHA-256 over go.mod and every
// .go file under the current directory, in path order.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, .bench_build
		}
		if d.IsDir() || (path != "go.mod" && !strings.HasSuffix(path, ".go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
