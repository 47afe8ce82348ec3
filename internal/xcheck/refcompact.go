package xcheck

import (
	"sort"

	"repro/internal/adi"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
)

// This file is the reference for the paper's Section 4 compaction:
// vector restoration [23] followed by vector omission [22]. It is
// written only over the public Simulator.RunSubset and re-simulates
// every trial from scratch on a freshly built sequence, so it shares
// none of internal/compact's machinery — no per-batch checkpoints, no
// window memos, no fault-free reconvergence cutoffs, no coverage
// lookahead, no speculative parallel jobs. What it does share is the
// acceptance rules, spelled out below; an agreement between the two is
// evidence that the production trial engine decides every trial the
// way the rules say. The compact/reference invariant compares them.

// RefStats holds the compaction Stats fields whose values the rules
// determine; the work counters (simulations, batch steps) measure how
// an implementation reached its verdicts and are not compared.
type RefStats struct {
	BeforeLen, AfterLen int
	TargetFaults        int
	ExtraDetected       int
}

// refDetectAll returns every fault's first detection time under seq.
func refDetectAll(s *sim.Simulator, seq logic.Sequence, faults []fault.Fault) []int {
	all := make([]int, len(faults))
	for i := range all {
		all[i] = i
	}
	return append([]int(nil), s.RunSubset(seq, faults, all, sim.Options{}, nil, nil).DetectedAt...)
}

// refExtra counts the faults undetected by the input (detAt) that out
// detects.
func refExtra(s *sim.Simulator, out logic.Sequence, faults []fault.Fault, detAt []int) int {
	var undetected []int
	for fi, t := range detAt {
		if t == sim.NotDetected {
			undetected = append(undetected, fi)
		}
	}
	if len(undetected) == 0 {
		return 0
	}
	return s.RunSubset(out, faults, undetected, sim.Options{}, nil, nil).NumDetected()
}

// RefRestore is reference vector restoration. Detected faults are
// processed in decreasing detection time (with adiOrder: increasing
// accidental-detection index first, ties by decreasing detection time;
// fault index breaks every remaining tie). A fault is covered once the
// restored subsequence detects it at a check, and stays covered; at
// each position the still-uncovered faults of the next 64 positions are
// checked together. An uncovered fault gets vectors restored backward
// from its original detection time, 1+len(seq)/1500 at a time, until
// the subsequence detects it.
func RefRestore(s *sim.Simulator, seq logic.Sequence, faults []fault.Fault, adiOrder bool) (logic.Sequence, RefStats) {
	st := RefStats{BeforeLen: len(seq)}
	detAt := refDetectAll(s, seq, faults)
	var scores []int
	if adiOrder {
		scores, _ = adi.Scores(s, seq, faults)
	}
	var order []int
	for fi, t := range detAt {
		if t != sim.NotDetected {
			order = append(order, fi)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		fa, fb := order[a], order[b]
		if adiOrder && scores[fa] != scores[fb] {
			return scores[fa] < scores[fb]
		}
		if detAt[fa] != detAt[fb] {
			return detAt[fa] > detAt[fb]
		}
		return fa < fb
	})
	st.TargetFaults = len(order)

	kept := make([]bool, len(seq))
	build := func() logic.Sequence {
		var out logic.Sequence
		for i, k := range kept {
			if k {
				out = append(out, seq[i])
			}
		}
		return out
	}
	covered := make([]bool, len(faults))
	block := 1 + len(seq)/1500
	for pos, fi := range order {
		if !covered[fi] {
			var group []int
			for _, gi := range order[pos:min(pos+sim.Slots, len(order))] {
				if !covered[gi] {
					group = append(group, gi)
				}
			}
			r := s.RunSubset(build(), faults, group, sim.Options{}, nil, nil)
			for i, gi := range group {
				if r.Detected(i) {
					covered[gi] = true
				}
			}
		}
		if covered[fi] {
			continue
		}
		for t := detAt[fi]; t >= 0; {
			added := 0
			for ; t >= 0 && added < block; t-- {
				if !kept[t] {
					kept[t] = true
					added++
				}
			}
			if added == 0 || s.RunSubset(build(), faults, []int{fi}, sim.Options{}, nil, nil).Detected(0) {
				break
			}
		}
	}
	out := build()
	st.AfterLen = len(out)
	st.ExtraDetected = refExtra(s, out, faults, detAt)
	return out, st
}

// RefOmit is reference vector omission. Windows of 16 vectors are
// visited from the end of the sequence toward the front; within a
// window a removal of [lo, hi) is tried whole and bisected on failure,
// upper half first. A removal is accepted when every fault first
// detected at or after lo is detected again, each 64-fault batch (by
// fault index) within its bound
//
//	min(maxDet + 4·slack, globalMaxDet + slack, len(trial))
//
// where maxDet is the batch's latest at-stake detection time expressed
// in post-removal positions, globalMaxDet the latest over all batches,
// and slack = 2·NFF + 50.
func RefOmit(s *sim.Simulator, seq logic.Sequence, faults []fault.Fault) (logic.Sequence, RefStats) {
	st := RefStats{BeforeLen: len(seq)}
	orig := refDetectAll(s, seq, faults)
	detAt := append([]int(nil), orig...)
	for _, t := range orig {
		if t != sim.NotDetected {
			st.TargetFaults++
		}
	}
	slack := 2*s.Circuit().NumFFs() + 50
	nBatches := (len(faults) + sim.Slots - 1) / sim.Slots
	cur := append(logic.Sequence(nil), seq...)

	tryRemove := func(lo, hi int) bool {
		removed := hi - lo
		trial := append(append(logic.Sequence(nil), cur[:lo]...), cur[hi:]...)
		batchMax := make([]int, nBatches)
		var stake []int
		globalMax := 0
		for fi, d := range detAt {
			if d == sim.NotDetected || d < lo {
				continue
			}
			if d >= hi {
				d -= removed
			}
			stake = append(stake, fi)
			batchMax[fi/sim.Slots] = max(batchMax[fi/sim.Slots], d)
			globalMax = max(globalMax, d)
		}
		if len(stake) > 0 {
			limit := min(globalMax+slack, len(trial))
			r := s.RunSubset(trial[:limit], faults, stake, sim.Options{}, nil, nil)
			for i, fi := range stake {
				bound := min(batchMax[fi/sim.Slots]+4*slack, limit)
				if t := r.DetectedAt[i]; t == sim.NotDetected || t >= bound {
					return false
				}
			}
			for i, fi := range stake {
				detAt[fi] = r.DetectedAt[i]
			}
		}
		cur = trial
		return true
	}
	var removeRange func(lo, hi int)
	removeRange = func(lo, hi int) {
		if hi <= lo || tryRemove(lo, hi) || hi-lo == 1 {
			return
		}
		mid := (lo + hi) / 2
		removeRange(mid, hi)
		removeRange(lo, mid)
	}
	for t := len(cur); t > 0; {
		lo := max(t-16, 0)
		removeRange(lo, t)
		t = lo
	}
	st.AfterLen = len(cur)
	st.ExtraDetected = refExtra(s, cur, faults, orig)
	return cur, st
}
