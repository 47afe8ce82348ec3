package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/sim"
)

// checker judges flow outputs: against the committed row, by an
// independent fault grade, and by digest across repetitions and across
// the core and layer-composed paths.
type checker struct {
	f      flowSpec
	want   committedRow
	digest string  // first output's digest; later outputs must match
	lens   rowLens // first output's row
	// detected is the independent grade of the first output.
	detected int
	grade    sim.Result
	gradeDur time.Duration
	// tr, when set, records the grade as a "sim.grade" span.
	tr *Tracer
}

// check judges one output; a non-empty return is the failure reason.
func (k *checker) check(out *flowOutcome, res *Result) string {
	d := digest(out.final)
	if k.digest != "" {
		if d != k.digest {
			return fmt.Sprintf("final sequence digest %s differs from the first run's %s", d[:12], k.digest[:12])
		}
		return ""
	}
	k.digest, k.lens = d, out.lens
	res.Info["final_digest"] = d
	res.Info["committed_row"] = k.want
	res.Info["row"] = out.lens
	if out.lens != k.want.Lens {
		return fmt.Sprintf("row %v does not match committed row %v", out.lens, k.want.Lens)
	}
	sp := k.tr.Start("sim.grade", 0, k.f.circuit)
	t0 := time.Now()
	k.grade = grade(out.cs, out.final, out.faults)
	k.gradeDur = time.Since(t0)
	k.tr.End(sp)
	k.detected = k.grade.NumDetected()
	if k.want.Detected > 0 && k.detected != k.want.Detected {
		return fmt.Sprintf("final sequence detects %d faults, committed row says %d", k.detected, k.want.Detected)
	}
	if k.f.translate {
		// Compaction preserves every detection of its input.
		in := grade(out.cs, out.input, out.faults)
		for i := range out.faults {
			if in.Detected(i) && !k.grade.Detected(i) {
				return fmt.Sprintf("compaction lost fault %d that the translated sequence detects", i)
			}
		}
		res.Info["translated_detected"] = in.NumDetected()
	}
	return ""
}

// final returns the test_cycles and scan_cycles figures: the length and
// scan vectors of the sequence the flow hands back.
func (k *checker) final() (length, scan int) {
	return k.lens[4], k.lens[5]
}

// minFlowRuns is the fewest flow executions an untraced run makes, even
// when one execution takes most of the run's seconds. With four, the
// interpolated p90 is not the slowest execution alone; more would not
// fit table56-s953's runs (10–20 s an execution on a loaded 2-vCPU
// host) into the time budget of all runs.
const minFlowRuns = 4

// flowWorkload runs a flow through core repeatedly for the run's
// seconds (at least minFlowRuns times) and reports the end-to-end
// metrics; the flow seed stays fixed (see flowSeed), so the run seed
// only labels the run.
func flowWorkload(f flowSpec) func(*runEnv) (*Result, error) {
	return func(env *runEnv) (*Result, error) {
		want, err := loadCommitted(f)
		if err != nil {
			return nil, err
		}
		k := &checker{f: f, want: want}
		res := newResult()
		if env.traced {
			return f.traced(env, k, res)
		}
		var walls, cpus, setups []float64
		start := time.Now()
		for len(walls) < minFlowRuns || time.Since(start) < env.budget {
			var err error
			if setups, err = sampleSetup(setups, f.setupOnce); err != nil {
				return nil, err
			}
			res.Attempted++
			// Collect the previous execution's garbage outside the timed
			// interval, so every execution starts from the same heap.
			runtime.GC()
			c0, t0 := cpuTime(), time.Now()
			out, err := f.runCore()
			wall, cpu := time.Since(t0), cpuTime()-c0
			if err != nil {
				return nil, err
			}
			walls = append(walls, wall.Seconds())
			cpus = append(cpus, cpu.Seconds())
			if why := k.check(out, res); why != "" {
				res.fail("%s run %d: %s", f.circuit, res.Attempted, why)
			}
		}
		n := len(walls)
		res.Info["walls_s"] = walls
		res.setN("setup_s", median(setups), len(setups))
		res.setN("wall_s", median(walls), n)
		res.setN("cpu_s", median(cpus), n)
		res.set("peak_rss_mib", peakRSSMiB())
		length, scanLen := k.final()
		res.set("test_cycles", float64(length))
		res.set("scan_cycles", float64(scanLen))
		res.set("detected_faults", float64(k.detected))
		// A flow workload is a closed loop of one client whose every
		// request is one flow execution.
		total := 0.0
		for _, w := range walls {
			total += w
		}
		res.ratio("jobs_per_s", Ratio{Num: float64(n), Base: total})
		res.setN("job_latency_p50_s", median(walls), n)
		res.setN("job_latency_p90_s", percentile(walls, 90), n)
		if tail, ok := tailPercentile(walls, minTailBeyond); !ok || tail.P < 90 {
			res.note("job_latency_p90_s", fmt.Sprintf("interpolated p90 of %d executions; fewer than %d lie beyond it", n, minTailBeyond))
		}
		return res, nil
	}
}

// traced alternates untraced core runs with traced layer-composed runs
// for the run's seconds (at least one pair) and reports the per-layer
// metrics of the traced run with the median flow time.
func (f flowSpec) traced(env *runEnv, k *checker, res *Result) (*Result, error) {
	tr := NewTracer()
	k.tr = tr
	var untraced, flowSecs []float64
	var runs []*tracedRun
	start := time.Now()
	for len(runs) == 0 || time.Since(start) < env.budget {
		res.Attempted += 2
		t0 := time.Now()
		out, err := f.runCore()
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, time.Since(t0).Seconds())
		if why := k.check(out, res); why != "" {
			res.fail("%s core run: %s", f.circuit, why)
		}
		run, err := f.runLayers(tr)
		if err != nil {
			return nil, err
		}
		if why := k.check(run.out, res); why != "" {
			res.fail("%s layer-composed run: %s", f.circuit, why)
		}
		runs = append(runs, run)
		flowSecs = append(flowSecs, float64(run.flowDur)/1e9)
	}

	run := runs[medianIndex(flowSecs)]
	if err := layerMetrics(run, res); err != nil {
		res.fail("%s: %v", f.circuit, err)
	}
	res.set("sim.grade_s", k.gradeDur.Seconds())
	res.ratio("sim.grade_ns_per_batch_step", Ratio{Num: float64(k.gradeDur), Base: float64(k.grade.BatchSteps)})
	res.ratio("bench.trace_overhead_ratio", Ratio{Num: median(flowSecs), Base: median(untraced)})
	res.Info["traced_runs"] = len(runs)
	if err := writeSpans(filepath.Join(env.outDir, "spans-"+env.workload+".json"), tr.Spans()); err != nil {
		return nil, err
	}
	return res, nil
}

// layerMetrics fills the per-layer metrics of one traced flow run from
// its spans and the engines' counters, and checks that the layers' self
// times plus the unattributed remainder add up to the flow span.
func layerMetrics(run *tracedRun, res *Result) error {
	self := SelfTimes(run.spans)
	byName := make(map[string]int64)
	flowDur := run.flowDur
	for _, s := range run.spans {
		if s.Parent == run.flowID {
			byName[s.Name] += self[s.ID]
		}
	}
	unattributed := self[run.flowID]
	sum := unattributed
	for _, v := range byName {
		sum += v
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	res.set("core.flow_s", sec(flowDur))
	res.set("core.unattributed_s", sec(unattributed))
	res.set("core.setup_s", sec(byName["core.setup"]))
	res.set("seqatpg.generate_s", sec(byName["seqatpg.generate"]))
	res.set("baseline.generate_s", sec(byName["baseline.generate"]))
	res.set("translate.translate_s", sec(byName["translate.translate"]))
	res.set("compact.restore_s", sec(byName["compact.restore"]))
	res.set("compact.omit_s", sec(byName["compact.omit"]))
	res.set("sim.run_s", sec(byName["sim.run"]))

	c := run.snap.Counters
	cnt := func(name string) float64 { return float64(c[name]) }
	res.set("seqatpg.attempts", cnt("generate.attempts"))
	res.ratio("seqatpg.attempt_success_ratio", Ratio{Num: cnt("generate.attempt_success"), Base: cnt("generate.attempts")})
	res.set("seqatpg.frames", cnt("generate.frames"))
	res.ratio("seqatpg.ns_per_frame", Ratio{Num: float64(byName["seqatpg.generate"]), Base: cnt("generate.frames")})
	res.set("seqatpg.flush_vectors", cnt("generate.flush_vectors"))
	res.set("combatpg.podem_calls", cnt("generate.podem_calls"))
	res.set("combatpg.podem_backtracks", cnt("generate.podem_backtracks"))
	res.ratio("combatpg.backtracks_per_call", Ratio{Num: cnt("generate.podem_backtracks"), Base: cnt("generate.podem_calls")})
	res.set("baseline.tests", float64(run.baseTests))
	res.set("translate.vectors", float64(run.translated))

	res.set("compact.restore_trials", cnt("restore.trials"))
	res.set("compact.restore_simulations", cnt("restore.simulations"))
	res.set("compact.restore_batch_steps", cnt("restore.batch_steps"))
	res.ratio("compact.restore_kept_ratio", Ratio{Num: float64(run.restoreOut), Base: float64(run.restoreIn)})
	res.ratio("compact.restore_ns_per_batch_step", Ratio{Num: float64(byName["compact.restore"]), Base: cnt("restore.batch_steps")})
	res.set("compact.omit_trials", cnt("omit.trials"))
	res.ratio("compact.omit_removed_ratio", Ratio{Num: cnt("omit.removed_vectors"), Base: cnt("omit.trials")})
	res.set("compact.omit_simulations", cnt("omit.simulations"))
	res.set("compact.omit_batch_steps", cnt("omit.batch_steps"))
	res.set("compact.omit_window_memo_hits", cnt("omit.window_memo_hits"))
	res.set("compact.omit_reconv_cutoffs", cnt("omit.reconv_cutoffs"))
	res.ratio("compact.omit_ns_per_batch_step", Ratio{Num: float64(byName["compact.omit"]), Base: cnt("omit.batch_steps")})

	res.set("sim.batch_steps", cnt("sim.batch_steps"))
	res.ratio("sim.fastforward_ratio", Ratio{Num: cnt("sim.fastforwarded"), Base: cnt("sim.batch_steps") + cnt("sim.fastforwarded")})
	res.ratio("sim.trace_hit_ratio", Ratio{Num: cnt("sim.trace_hits"), Base: cnt("sim.trace_hits") + cnt("sim.trace_misses")})
	res.ratio("sim.pool_hit_ratio", Ratio{Num: cnt("sim.pool_hits"), Base: cnt("sim.pool_hits") + cnt("sim.pool_misses")})
	res.set("sim.trace_prefix_hits", cnt("sim.trace_prefix_hits"))

	if sum != flowDur {
		return fmt.Errorf("layer self times add up to %d ns, flow span is %d ns", sum, flowDur)
	}
	return nil
}
