package xcheck

import (
	"fmt"

	"repro/internal/compact"
	"repro/internal/jobs"
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

// checkWorkerClaim pins the worker-claim sharding protocol for the
// compact flow: the omission grid split into sequential chunks, each
// chunk resuming from its predecessor's checkpoint (the exact chain a
// scand job hands to remote scanworkers), must reproduce the
// single-process restore→omit pipeline bit for bit at every chunk
// count — including when a chunk is interrupted mid-share and re-run
// from its own checkpoint, which is what a lease reclaim after a
// worker crash does.
func checkWorkerClaim(w *Workload) string {
	wantR, wantO, wantRst, wantOst := compact.RestoreThenOmitOpts(
		w.Design.Scan, w.Seq, w.Faults, compact.Options{Workers: 1})
	if wantRst.Status != runctl.Complete || wantOst.Status != runctl.Complete {
		return fmt.Sprintf("worker-claim: reference pipeline status %v/%v", wantRst.Status, wantOst.Status)
	}
	for _, chunks := range []int{1, 2, 3} {
		restored, omitted, _, ost, err := compact.ChunkedRestoreThenOmit(
			w.Design.Scan, w.Seq, w.Faults, compact.Options{Workers: 1}, chunks)
		label := fmt.Sprintf("worker-claim chunks=%d", chunks)
		if err != nil {
			return fmt.Sprintf("%s: %v", label, err)
		}
		if !seqEqual(wantR, restored) {
			return fmt.Sprintf("%s: restored %d vectors, reference %d", label, len(restored), len(wantR))
		}
		if !seqEqual(wantO, omitted) {
			return fmt.Sprintf("%s: omitted %d vectors, reference %d", label, len(omitted), len(wantO))
		}
		if refStatsOf(ost) != refStatsOf(wantOst) {
			return fmt.Sprintf("%s: omit stats %+v, reference %+v", label, refStatsOf(ost), refStatsOf(wantOst))
		}
	}

	// The reclaim path: chunk 0 of 2 interrupted at a poll boundary,
	// then re-run from its own checkpoint — as the janitor does after a
	// crashed worker — before chunk 1 finishes the grid.
	rng := w.rng(10)
	polls := int64(1 + rng.Intn(4))
	store0 := runctl.NewMemStore()
	opts := compact.Options{Workers: 1,
		Control: &runctl.Control{Budget: runctl.Budget{StopAfterPolls: polls}, Store: store0}}
	_, st, chunkDone, err := compact.OmitChunkOpts(w.Design.Scan, wantR, w.Faults, opts, 0, 2)
	if err != nil {
		return fmt.Sprintf("worker-claim/reclaim: interrupted chunk: %v", err)
	}
	if !chunkDone {
		if st.Status != runctl.Canceled {
			return fmt.Sprintf("worker-claim/reclaim: interrupted chunk status %v, want canceled", st.Status)
		}
		opts.Control = &runctl.Control{Store: store0}
		if _, _, chunkDone, err = compact.OmitChunkOpts(w.Design.Scan, wantR, w.Faults, opts, 0, 2); err != nil {
			return fmt.Sprintf("worker-claim/reclaim: re-run chunk: %v", err)
		}
		if !chunkDone {
			return "worker-claim/reclaim: re-run chunk did not finish its share"
		}
	}
	store1 := runctl.NewMemStore()
	if err := compact.CopySection(store1, store0, compact.OmitSection); err != nil {
		return fmt.Sprintf("worker-claim/reclaim: seed chunk 1: %v", err)
	}
	opts.Control = &runctl.Control{Store: store1}
	out, ost, chunkDone, err := compact.OmitChunkOpts(w.Design.Scan, wantR, w.Faults, opts, 1, 2)
	if err != nil {
		return fmt.Sprintf("worker-claim/reclaim: final chunk: %v", err)
	}
	if !chunkDone || !ost.Status.Done() {
		return fmt.Sprintf("worker-claim/reclaim: final chunk status %v (done=%v)", ost.Status, chunkDone)
	}
	if !seqEqual(wantO, out) {
		return fmt.Sprintf("worker-claim/reclaim: output %d vectors after stop at poll %d, reference %d",
			len(out), polls, len(wantO))
	}
	return ""
}
