package jobs

import (
	"fmt"

	"repro/internal/compact"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/sim"
)

// executeCompact runs one compact-flow task from plain inputs: the
// restoration pass over the circuit's seeded sequence, then omission
// over the restored sequence (compact.RestoreThenOmitOpts), both on the
// task's one checkpoint store. A stop in either pass leaves its
// boundary in the store, and a resumed run skips a finished
// restoration by its checkpoint. The result row's kept mask
// composes the two passes' checkpointed masks over the input sequence.
// Nothing server-side is touched: where the store lives and how the
// result travels is the leasing Worker's business.
func executeCompact(sp *Spec, circuit string, ctl *runctl.Control, rec obs.Observer) *taskResult {
	d, faults, err := simWorkload(circuit, sp)
	if err != nil {
		return &taskResult{Status: runctl.Failed, Error: err.Error()}
	}
	seq := TestSequence(d, sp.seed(), sp.seqLen())
	s := sim.NewSimulator(d.Scan, sp.Workers)
	s.Observe(rec)
	opts := compact.Options{
		Sim:     s,
		Order:   sp.order(),
		Control: ctl,
		Obs:     rec,
	}
	restored, out, rst, ost := compact.RestoreThenOmitOpts(d.Scan, seq, faults, opts)
	if !ost.Status.Done() {
		// A stop or failure in either pass: a restoration stop is
		// carried into ost.
		res := &taskResult{Status: ost.Status}
		if ost.Err != nil {
			res.Error = ost.Err.Error()
		}
		return res
	}

	rs, ok, err := compact.LoadRestoreState(ctl.Store, len(seq), len(faults), sp.order())
	if err != nil || !ok || !rs.Done {
		return &taskResult{Status: runctl.Failed,
			Error: fmt.Sprintf("restore checkpoint readback: ok=%v done=%v err=%v", ok, rs.Done, err)}
	}
	om, ok, err := compact.LoadOmitState(ctl.Store, len(restored), len(faults))
	if err != nil || !ok || !om.Done {
		return &taskResult{Status: runctl.Failed,
			Error: fmt.Sprintf("omit checkpoint readback: ok=%v done=%v err=%v", ok, om.Done, err)}
	}
	kept, err := compact.ComposeKept(rs.Kept, om.Kept)
	if err != nil {
		return &taskResult{Status: runctl.Failed, Error: err.Error()}
	}
	status := rst.Status
	if ost.Status != runctl.Complete {
		status = ost.Status
	}
	return &taskResult{Status: status, Compact: &CompactResult{
		Circuit:       circuit,
		SeqLen:        sp.seqLen(),
		Faults:        len(faults),
		TargetFaults:  rst.TargetFaults,
		RestoredLen:   len(restored),
		CompactedLen:  len(out),
		ExtraDetected: rst.ExtraDetected + ost.ExtraDetected,
		Kept:          kept,
	}}
}
