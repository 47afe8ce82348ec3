package xcheck

import (
	"fmt"

	"repro/internal/compact"
	"repro/internal/jobs"
	"repro/internal/logic"
	"repro/internal/runctl"
	"repro/internal/sim"
)

// checkPartitionMerge pins the jobs service's sharding protocol: the
// fault universe split into Slots-aligned partitions by
// sim.PartitionFaults, each shard simulated on its own single-worker
// simulator (as independent scand workers would), and the per-shard
// DetectedAt ranges merged by jobs.MergeShard, must reproduce the
// single-process run bit for bit at every partition count and
// concurrency. This is the invariant that makes a multi-worker scand
// job's result byte-identical to an unsharded one.
func checkPartitionMerge(w *Workload) string {
	want := sim.Run(w.Design.Scan, w.Seq, w.Faults, sim.Options{}).DetectedAt
	for _, parts := range []int{2, 3, 7} {
		for _, conc := range []int{1, 2} {
			got := jobs.ShardedDetect(w.Design.Scan, w.Seq, w.Faults, parts, conc)
			label := fmt.Sprintf("jobs/partition parts=%d conc=%d", parts, conc)
			if msg := w.diffDetAt(label, want, got, nil); msg != "" {
				return msg
			}
		}
	}
	return ""
}

// checkWorkerClaim pins what a compact-flow task does under the
// worker-claim protocol: restoration then omission on one checkpoint
// store, stopped at a poll boundary (a worker killed mid-task, its
// lease reclaimed), then resumed from that store as the next claimant
// does. The resumed run must reproduce the uninterrupted single-process
// pipeline bit for bit: both sequences, the kept mask composed from the
// store's two sections (what the job result reports), and the
// rule-determined stats, with the stop in restoration and, separately,
// in omission.
func checkWorkerClaim(w *Workload) string {
	run := func(ctl *runctl.Control) (restored, omitted logic.Sequence, rst, ost compact.Stats, kept string, err error) {
		restored, omitted, rst, ost = compact.RestoreThenOmitOpts(
			w.Design.Scan, w.Seq, w.Faults, compact.Options{Workers: 1, Control: ctl})
		if !ost.Status.Done() {
			return restored, omitted, rst, ost, "", nil
		}
		rs, _, err := compact.LoadRestoreState(ctl.Store, len(w.Seq), len(w.Faults), compact.OrderDetection)
		if err != nil {
			return restored, omitted, rst, ost, "", err
		}
		om, _, err := compact.LoadOmitState(ctl.Store, len(restored), len(w.Faults))
		if err != nil {
			return restored, omitted, rst, ost, "", err
		}
		kept, err = compact.ComposeKept(rs.Kept, om.Kept)
		return restored, omitted, rst, ost, kept, err
	}
	wantR, wantO, wantRst, wantOst, wantKept, err := run(&runctl.Control{Store: runctl.NewMemStore()})
	if err != nil {
		return fmt.Sprintf("worker-claim: reference kept mask: %v", err)
	}
	if wantRst.Status != runctl.Complete || wantOst.Status != runctl.Complete {
		return fmt.Sprintf("worker-claim: reference pipeline status %v/%v", wantRst.Status, wantOst.Status)
	}
	if got, err := compact.ApplyMask(w.Seq, wantKept); err != nil || !seqEqual(wantO, got) {
		return fmt.Sprintf("worker-claim: reference kept mask does not select the compacted sequence (err %v)", err)
	}

	// Restoration polls once per target fault, omission at least once
	// per window: one stop lands in each pass.
	rng := w.rng(10)
	stops := []int64{
		int64(1 + rng.Intn(max(wantRst.TargetFaults, 1))),
		int64(wantRst.TargetFaults + 1 + rng.Intn(4)),
	}
	for _, polls := range stops {
		store := runctl.NewMemStore()
		restored, omitted, rst, ost, kept, err := run(resumeControl(store, polls))
		label := fmt.Sprintf("worker-claim stop at poll %d", polls)
		if err != nil {
			return fmt.Sprintf("%s: %v", label, err)
		}
		if !ost.Status.Done() {
			if ost.Status != runctl.Canceled {
				return fmt.Sprintf("%s: interrupted task status %v/%v, want canceled", label, rst.Status, ost.Status)
			}
			restored, omitted, rst, ost, kept, err = run(&runctl.Control{Store: store, Resume: true})
			if err != nil {
				return fmt.Sprintf("%s: resumed: %v", label, err)
			}
			if rst.Status != runctl.Resumed || !ost.Status.Done() {
				return fmt.Sprintf("%s: resumed task status %v/%v", label, rst.Status, ost.Status)
			}
		}
		if !seqEqual(wantR, restored) {
			return fmt.Sprintf("%s: restored %d vectors, reference %d", label, len(restored), len(wantR))
		}
		if !seqEqual(wantO, omitted) {
			return fmt.Sprintf("%s: omitted %d vectors, reference %d", label, len(omitted), len(wantO))
		}
		if kept != wantKept {
			return fmt.Sprintf("%s: kept mask %s, reference %s", label, kept, wantKept)
		}
		if refStatsOf(rst) != refStatsOf(wantRst) {
			return fmt.Sprintf("%s: restore stats %+v, reference %+v", label, refStatsOf(rst), refStatsOf(wantRst))
		}
		if refStatsOf(ost) != refStatsOf(wantOst) {
			return fmt.Sprintf("%s: omit stats %+v, reference %+v", label, refStatsOf(ost), refStatsOf(wantOst))
		}
	}
	return ""
}
