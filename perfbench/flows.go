package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/circuits"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/scan"
	"repro/internal/seqatpg"
	"repro/internal/sim"
	"repro/internal/translate"
)

// flowSeed is the seed every flow workload runs with: the seed of the
// committed result tables, so each run can be checked against them.
const flowSeed = 1

// translateSeedMix is the constant core.RunTranslate mixes into the
// seed it hands translate.Translate; the traced composition must use
// the same value, and the digest check catches any drift.
const translateSeedMix = 0x7A75

// flowSpec is one of the paper's flows on one catalog circuit.
type flowSpec struct {
	circuit   string
	translate bool // Table 7 flow (baseline → translation → compaction), else Table 5/6 (generation → compaction)
}

// flowOutcome is what one flow execution produced, and what the
// correctness checks need to judge it.
type flowOutcome struct {
	final  logic.Sequence // the sequence the flow hands back to the user
	input  logic.Sequence // the uncompacted sequence compaction started from
	lens   rowLens
	cs     *netlist.Circuit // C_scan
	faults []fault.Fault    // C_scan's collapsed fault universe
}

// rowLens are a flow's sequence lengths in the order of the committed
// tables: test, scan, restor, scan, omit, scan.
type rowLens [6]int

// runCore executes the flow through core, exactly as the CLIs do at
// their default worker count.
func (f flowSpec) runCore() (*flowOutcome, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = flowSeed
	if f.translate {
		row, art, err := core.RunTranslate(f.circuit, cfg)
		if err != nil {
			return nil, err
		}
		if !row.Status.Done() {
			return nil, fmt.Errorf("translate flow on %s ended %v", f.circuit, row.Status)
		}
		return &flowOutcome{
			final: art.Omitted, input: art.Translated,
			lens: rowLens{row.TestLen, row.TestScan, row.RestorLen, row.RestorScan, row.OmitLen, row.OmitScan},
			cs:   art.Scan.Scan, faults: art.ScanFaults,
		}, nil
	}
	cfg.SkipBaseline = true
	row, art, err := core.RunGenerate(f.circuit, cfg)
	if err != nil {
		return nil, err
	}
	if !row.Status.Done() {
		return nil, fmt.Errorf("generate flow on %s ended %v", f.circuit, row.Status)
	}
	return &flowOutcome{
		final: art.Omitted, input: art.Raw,
		lens: rowLens{row.TestLen, row.TestScan, row.RestorLen, row.RestorScan, row.OmitLen, row.OmitScan},
		cs:   art.Scan.ScanCircuit(), faults: art.Faults,
	}, nil
}

// tracedRun is one layer-composed execution: the spans of its calls
// and the engines' counters.
type tracedRun struct {
	out     *flowOutcome
	flowID  int
	flowDur int64 // ns
	spans   []Span
	snap    obs.Snapshot
	// Stats the counters do not carry.
	baseTests, translated int
	restoreIn, restoreOut int
}

// runLayers executes the same flow as runCore, built from the layers'
// public calls, each wrapped in a span under one "core.flow" span. It
// must stay call-for-call equal to core; the digest check compares
// their outputs on every traced run.
func (f flowSpec) runLayers(tr *Tracer) (*tracedRun, error) {
	reg := obs.NewRegistry()
	run := &tracedRun{}
	flow := tr.Start("core.flow", 0, f.circuit)
	err := f.composeLayers(tr, flow, reg, run)
	tr.End(flow)
	if err != nil {
		return nil, err
	}
	run.flowID = flow
	for _, s := range tr.Spans() {
		if s.ID >= flow {
			run.spans = append(run.spans, s)
		}
		if s.ID == flow {
			run.flowDur = s.Dur()
		}
	}
	run.snap = reg.Snapshot()
	return run, nil
}

func (f flowSpec) composeLayers(tr *Tracer, flow int, reg *obs.Registry, run *tracedRun) error {
	workers := 0 // GOMAXPROCS, the CLI default
	sp := tr.Start("core.setup", flow, f.circuit)
	c, err := circuits.Load(f.circuit)
	if err != nil {
		return err
	}
	sc, err := scan.Insert(c)
	if err != nil {
		return err
	}
	cs := sc.Scan
	faults := fault.Universe(cs, true)
	var origFaults []fault.Fault
	if f.translate {
		origFaults = fault.Universe(c, true)
	}
	s := sim.NewSimulator(cs, workers)
	s.Observe(reg)
	tr.End(sp)

	out := &flowOutcome{cs: cs, faults: faults}
	run.out = out
	var seq logic.Sequence
	var detAt []int
	if f.translate {
		sp = tr.Start("baseline.generate", flow, f.circuit)
		base := baseline.Generate(c, origFaults, baseline.Options{Seed: flowSeed, Workers: workers})
		tr.End(sp)
		run.baseTests = len(base.Tests)

		sp = tr.Start("translate.translate", flow, f.circuit)
		seq, err = translate.Translate(sc, base.Tests, flowSeed^translateSeedMix)
		tr.End(sp)
		if err != nil {
			return err
		}
		run.translated = len(seq)
	} else {
		sp = tr.Start("seqatpg.generate", flow, f.circuit)
		gen := seqatpg.Generate(sc, faults, seqatpg.Options{Seed: flowSeed, Workers: workers, Obs: reg})
		tr.End(sp)
		if !gen.Status.Done() {
			return fmt.Errorf("generator on %s ended %v: %v", f.circuit, gen.Status, gen.Err)
		}
		seq, detAt = gen.Sequence, gen.DetectedAt
	}
	out.input, out.final = seq, seq
	out.lens[0], out.lens[1] = len(seq), sc.CountScanVectors(seq)

	copts := compact.Options{Sim: s, Obs: reg}
	sp = tr.Start("compact.restore", flow, f.circuit)
	restored, rst := compact.RestoreOpts(cs, seq, faults, copts)
	tr.End(sp)
	if rst.Status != runctl.Complete {
		return fmt.Errorf("restoration on %s ended %v: %v", f.circuit, rst.Status, rst.Err)
	}
	run.restoreIn, run.restoreOut = len(seq), len(restored)

	sp = tr.Start("compact.omit", flow, f.circuit)
	omitted, ost := compact.OmitOpts(cs, restored, faults, copts)
	tr.End(sp)
	if ost.Status != runctl.Complete {
		return fmt.Errorf("omission on %s ended %v: %v", f.circuit, ost.Status, ost.Err)
	}
	out.final = omitted
	out.lens[2], out.lens[3] = len(restored), sc.CountScanVectors(restored)
	out.lens[4], out.lens[5] = len(omitted), sc.CountScanVectors(omitted)

	if !f.translate {
		// core's extra-detection check: the generator's undetected
		// faults against the final sequence.
		var sub []fault.Fault
		for fi, at := range detAt {
			if at == sim.NotDetected {
				sub = append(sub, faults[fi])
			}
		}
		if len(sub) > 0 {
			sp = tr.Start("sim.run", flow, f.circuit)
			s.Run(omitted, sub, sim.Options{})
			tr.End(sp)
		}
	}
	return nil
}

// setupOnce times one flow set-up: circuit load/synthesis, scan
// insertion, the fault universe(s) and simulator construction.
func (f flowSpec) setupOnce() (time.Duration, error) {
	t0 := time.Now()
	c, err := circuits.Load(f.circuit)
	if err != nil {
		return 0, err
	}
	sc, err := scan.Insert(c)
	if err != nil {
		return 0, err
	}
	faults := fault.Universe(sc.Scan, true)
	var orig []fault.Fault
	if f.translate {
		orig = fault.Universe(c, true)
	}
	s := sim.NewSimulator(sc.Scan, 0)
	d := time.Since(t0)
	runtime.KeepAlive(faults)
	runtime.KeepAlive(orig)
	runtime.KeepAlive(s)
	return d, nil
}

// Set-up is fast and noisy, so a run times it repeatedly and reports
// the median. A flow run takes a round before each execution, so the
// samples span the run; jobs-mix takes setupRounds rounds first thing. A round takes at least setupRoundReps samples adding
// up to setupRoundTotal, and at most setupRoundMax.
const (
	setupRoundReps  = 3
	setupRoundTotal = 100 * time.Millisecond
	setupRoundMax   = 150
	setupRounds     = 3
)

// sampleSetup appends one round of set-up timings, in seconds, to xs.
func sampleSetup(xs []float64, once func() (time.Duration, error)) ([]float64, error) {
	var total time.Duration
	for n := 0; n < setupRoundMax && (n < setupRoundReps || total < setupRoundTotal); n++ {
		d, err := once()
		if err != nil {
			return nil, err
		}
		xs = append(xs, d.Seconds())
		total += d
	}
	return xs, nil
}

// digest identifies a sequence by content.
func digest(seq logic.Sequence) string {
	h := sha256.New()
	for _, v := range seq {
		b := make([]byte, len(v)+1)
		for i, x := range v {
			b[i] = byte(x)
		}
		b[len(v)] = 0xFF
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// grade fault-simulates seq against every fault with a fresh simulator,
// independent of the flow's own bookkeeping.
func grade(cs *netlist.Circuit, seq logic.Sequence, faults []fault.Fault) sim.Result {
	return sim.NewSimulator(cs, 0).Run(seq, faults, sim.Options{})
}
