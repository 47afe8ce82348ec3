package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/jobs"
)

// The workloads read the committed result tables from the repository
// root, as they do when run from there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func samples(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the rule must sort
	}
	return xs
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		ok     bool
		p      float64
		value  float64
		beyond int
	}{
		{n: 9, ok: false},
		{n: 20, ok: true, p: 50, value: 10, beyond: 10},
		{n: 99, ok: true, p: 50, value: 50, beyond: 49}, // p90 would leave only 9 beyond
		{n: 100, ok: true, p: 90, value: 90, beyond: 10},
		{n: 999, ok: true, p: 90, value: 900, beyond: 99}, // p99 would leave 9
		{n: 1000, ok: true, p: 99, value: 990, beyond: 10},
		{n: 10000, ok: true, p: 99.9, value: 9990, beyond: 10},
	} {
		got, ok := tailPercentile(samples(tc.n), minTailBeyond)
		if ok != tc.ok {
			t.Errorf("n=%d: ok=%v, want %v", tc.n, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		want := Tail{P: tc.p, Value: tc.value, Beyond: tc.beyond, N: tc.n}
		if got != want {
			t.Errorf("n=%d: got %+v, want %+v", tc.n, got, want)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := medianIndex([]float64{9, 1, 5, 7}); got != 2 {
		t.Errorf("medianIndex = %d, want the index of 5", got)
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{10, 90, 9.1},
		{5, 90, 4.6},
		{5, 50, 3},
		{1, 90, 1},
		{4, 100, 4},
	} {
		if got := percentile(samples(tc.n), tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("p%v of 1..%d = %v, want %v", tc.p, tc.n, got, tc.want)
		}
	}
}

func TestRatioCarriesBase(t *testing.T) {
	r := newResult()
	r.ratio("sim.pool_hit_ratio", Ratio{Num: 3, Base: 4})
	r.ratio("sim.trace_hit_ratio", Ratio{Num: 0, Base: 0})
	d := r.Details["sim.pool_hit_ratio"]
	if d.Value != 0.75 || d.Ratio == nil || d.Ratio.Num != 3 || d.Ratio.Base != 4 || d.Unit != "ratio" {
		t.Errorf("pool hit ratio recorded as %+v", d)
	}
	z := r.Details["sim.trace_hit_ratio"]
	if z.Value != 0 || z.Ratio == nil || z.Ratio.Base != 0 {
		t.Errorf("a zero base must read 0 and still carry its base: %+v", z)
	}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"value":0.75,"unit":"ratio","ratio":{"num":3,"base":4}}` {
		t.Errorf("record line form: %s", data)
	}
}

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "flow", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // only 90..100 lies inside flow
		{ID: 5, Parent: 3, Name: "b.inner", Start: 25, End: 35},
		{ID: 6, Name: "other-root", Start: 0, End: 7},
	}
	self := SelfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 30, 5: 10, 6: 7}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *Tracer
	id := tr.Start("x", 0, "")
	tr.End(id)
	tr.SetTrace(id, "job")
	if id != 0 || tr.Spans() != nil {
		t.Fatal("a nil tracer must record nothing")
	}
}

func TestLinkJobsAttachesWorkerSpansAndQueueWait(t *testing.T) {
	spans := []Span{
		{ID: 1, Trace: "job-1", Name: "jobs.job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "jobs.submit", Start: 1, End: 5},
		{ID: 3, Trace: "job-1", Name: "jobs.claim", Start: 8, End: 12},
		{ID: 4, Trace: "job-1", Name: "jobs.task_exec", Start: 12, End: 60},
		{ID: 5, Parent: 4, Trace: "job-1", Name: "jobs.heartbeat", Start: 30, End: 31},
		{ID: 6, Name: "jobs.claim", Start: 70, End: 71}, // an empty claim: stays a root
	}
	got := linkJobs(spans)
	byID := make(map[int]Span)
	for _, s := range got {
		byID[s.ID] = s
	}
	if byID[2].Trace != "job-1" || byID[3].Parent != 1 || byID[4].Parent != 1 || byID[5].Parent != 4 || byID[6].Parent != 0 {
		t.Errorf("links wrong: %+v", got)
	}
	qw := got[len(got)-1]
	if qw.Name != "jobs.queue_wait" || qw.Parent != 1 || qw.Start != 5 || qw.End != 12 {
		t.Errorf("queue wait span = %+v, want submit end 5 to first claim 12", qw)
	}
}

// TestCatalogueMatchesBENCHMARK keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestCatalogueMatchesBENCHMARK(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, program has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	for _, c := range []struct {
		name string
		file []struct{ Name, Unit string }
		prog []metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", c.name, len(c.file), len(c.prog))
			continue
		}
		for i := range c.file {
			if c.file[i].Name != c.prog[i].Name || c.file[i].Unit != c.prog[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", c.name, i, c.file[i], c.prog[i])
			}
		}
	}
}

func TestCommittedRows(t *testing.T) {
	for _, tc := range []struct {
		f    flowSpec
		want committedRow
	}{
		{flowSpec{circuit: "s953"}, committedRow{Lens: rowLens{913, 555, 837, 514, 555, 370}, Detected: 1183}},
		{flowSpec{circuit: "s820", translate: true}, committedRow{Lens: rowLens{461, 310, 345, 232, 286, 184}}},
		{flowSpec{circuit: "s5378"}, committedRow{Lens: rowLens{6709, 6005, 4985, 4429, 4702, 4176}, Detected: 5130}},
	} {
		got, err := loadCommitted(tc.f)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.f.circuit, got, tc.want)
		}
	}
	if _, err := loadCommitted(flowSpec{circuit: "s27", translate: true}); err == nil {
		t.Error("s27 has no Table 7 row; loading one must fail")
	}
}

// smokeRun runs one workload shape briefly and checks it succeeded and
// reported every metric of its mode.
func smokeRun(t *testing.T, name string, run func(*runEnv) (*Result, error), traced bool) *Result {
	t.Helper()
	env := &runEnv{workload: name, seed: 2, budget: time.Millisecond, traced: traced, outDir: t.TempDir()}
	res, err := run(env)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", name, traced, err)
	}
	if len(res.Failures) > 0 {
		t.Fatalf("%s traced=%v failed: %v", name, traced, res.Failures)
	}
	if res.Attempted < 1 {
		t.Fatalf("%s traced=%v attempted nothing", name, traced)
	}
	metrics, err := res.report(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !traced {
		for _, m := range endToEnd {
			if metrics[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", name, m.Name, metrics[m.Name].Value)
			}
		}
	}
	if _, err := os.Stat(env.outDir + "/spans-" + name + ".json"); traced && err != nil {
		t.Errorf("%s: traced run wrote no spans: %v", name, err)
	}
	return res
}

// TestWorkloadShapesSmoke runs every workload shape on small circuits,
// untraced and traced.
func TestWorkloadShapesSmoke(t *testing.T) {
	small := jobsMixConfig{
		kinds: []jobKind{
			{name: "simulate-s27", seeded: true, spec: jobs.Spec{Flow: jobs.FlowSimulate, Circuits: []string{"s27"}, Partitions: 2}},
			{name: "compact-s27", spec: jobs.Spec{Flow: jobs.FlowCompact, Circuits: []string{"s27"}, OmitShards: 2}},
			{name: "compact-s298-long", spec: jobs.Spec{Flow: jobs.FlowCompact, Circuits: []string{"s298"}, SeqLen: 256}},
		},
		long:     "compact-s298-long",
		perBatch: 1,
		minJobs:  3,
	}
	shapes := []struct {
		name string
		run  func(*runEnv) (*Result, error)
	}{
		{"table56-s27", flowWorkload(flowSpec{circuit: "s27"})},
		{"table7-s298", flowWorkload(flowSpec{circuit: "s298", translate: true})},
		{"jobs-mix-small", jobsMix(small)},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			smokeRun(t, s.name, s.run, false)
			res := smokeRun(t, s.name, s.run, true)
			if s.name == "jobs-mix-small" {
				if res.Details["jobs.tasks"].Value < 1 || res.Details["jobs.claim_s"].Value <= 0 {
					t.Errorf("traced jobs run saw no tasks: %+v", res.Details)
				}
				return
			}
			if res.Details["core.flow_s"].Value <= 0 || res.Details["bench.trace_overhead_ratio"].Value <= 0 {
				t.Errorf("traced flow run reported no flow time: %+v", res.Details)
			}
		})
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "jobs-mix", "--trace", "2"},
		{"--workload", "jobs-mix", "--seconds", "0"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
}
