package compact

import (
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/sim"
)

// ckptStride is the minimum spacing of per-batch faulty prefix
// checkpoints in the omission engine; omitCkptStride widens it when
// the full grid would not fit the memory budget.
const ckptStride = 32

// ckptBudgetBytes bounds the total memory spent on per-batch faulty
// prefix checkpoints. At stride 32 the full grid on an s35932-sized
// run (18k vectors × 87 batches × 27KB states) would cost over a
// gigabyte; widening the stride trades a bounded amount of prefix
// replay per trial for a hard cap.
const ckptBudgetBytes = 128 << 20

// omitCkptStride returns the checkpoint spacing for a run of nVec
// vectors, nBatches fault batches and nFF flip-flops: the ckptStride
// floor, widened until the grid fits ckptBudgetBytes.
func omitCkptStride(nVec, nBatches, nFF int) int {
	stride := ckptStride
	perCkpt := int64(nFF) * 16 // two uint64 planes per flip-flop
	if perCkpt == 0 || nVec == 0 || nBatches == 0 {
		return stride
	}
	total := int64(nVec) * int64(nBatches) * perCkpt
	if need := (total + ckptBudgetBytes - 1) / ckptBudgetBytes; need > int64(stride) {
		stride = int(need)
	}
	return stride
}

// omitter is the trial engine behind Omit. Vector omission processes
// removal candidates from the end of the sequence toward the front, so
// the prefix [0, lo) of the working sequence is always identical to the
// same prefix of the input sequence. The engine exploits that three
// ways:
//
//   - per-batch faulty states are checkpointed every stride positions
//     on the input prefix, and additionally memoized at the current
//     removal window's boundary, so a trial replays at most a window's
//     worth of prefix per batch;
//   - fault-free data (one sim.Image per position: the values during
//     the vector, primary outputs included, and the state after it) is
//     maintained for the whole working sequence, and a trial's
//     fault-free suffix is recomputed only until its state reconverges
//     with the committed trajectory — on scan sequences that is about
//     one scan operation, not the remaining tail;
//   - a trial only simulates the fault batches whose detections are at
//     stake, each bounded just past its latest previous detection, and
//     from the window boundary on only the at-stake faults of a batch,
//     on the event kernel (see runJob); with more than one worker those
//     independent jobs run speculatively in parallel with deterministic
//     accounting (see tryRemove).
type omitter struct {
	c      *netlist.Circuit
	sim    *sim.Simulator
	faults []fault.Fault
	in     logic.Sequence // input sequence, never mutated
	cur    logic.Sequence
	idx    []int // idx[i] = input position of cur[i]
	detAt  []int

	good *sim.Machine
	// goodImg[t] is the fault-free image of cur[t] in the *committed*
	// working sequence, spliced and patched on every commit. imgFree
	// recycles image buffers: trial images of rejected removals and
	// committed images a commit replaces. Both are touched only by the
	// orchestrating goroutine.
	goodImg []sim.Image
	imgFree []sim.Image

	stride  int // spacing of per-batch prefix checkpoints
	batches []*omitBatch
	scratch *sim.Machine // reused for batch replay on the serial path
	sims    int
	steps   int64 // batch-vector simulation steps (see Stats.BatchSteps)

	// Window-boundary prefix memo: winStates[bi] (when winHave[bi])
	// holds batch bi's faulty state just before cur[winLo]. Valid for
	// the whole window because commits only remove positions >= winLo.
	// Entries are written by the batch's first job of the window and
	// only read afterwards; distinct batches touch distinct entries, so
	// concurrent wave jobs need no lock.
	winLo     int
	winStates []sim.State
	winHave   []bool

	// ctl is polled once per removal trial; stopStatus latches the stop
	// so the window loop can wind down and checkpoint.
	ctl        *runctl.Control
	stopStatus runctl.Status

	// cTrials and cRemoved are nil-safe observation counters (removal
	// trials attempted, vectors actually removed); OmitOpts sets them.
	cTrials  *obs.Counter
	cRemoved *obs.Counter
	// cReconv counts trials whose fault-free suffix recomputation was
	// cut off by reconvergence with the committed trajectory.
	cReconv *obs.Counter
	// cWinHits counts trial jobs that started from the window-boundary
	// memo instead of a stride checkpoint.
	cWinHits *obs.Counter
	// cEvCycles and cSkipped count the event-kernel cycles trial jobs
	// evaluated and skipped as dead, charged like Stats.BatchSteps.
	cEvCycles *obs.Counter
	cSkipped  *obs.Counter
}

type omitBatch struct {
	start, n int
	faults   []fault.Fault
	ckpts    []sim.State // state before vector j*stride of the input prefix
}

// newOmitter fault-simulates seq once, recording detection times,
// per-position good data and per-batch checkpoints. The per-batch
// replays are independent (each writes its own checkpoint list and a
// disjoint slice of detAt), so they fan out across the simulator's
// workers; the trial engine itself stays serial.
func newOmitter(s *sim.Simulator, seq logic.Sequence, faults []fault.Fault) *omitter {
	c := s.Circuit()
	o := &omitter{
		c:      c,
		sim:    s,
		faults: faults,
		in:     seq.Clone(),
		detAt:  make([]int, len(faults)),
		good:   s.Acquire(),
		winLo:  -1,
	}
	// cur starts as a fresh copy of in (commit splices cur's backing
	// array in place, so the two must not share one).
	o.cur = append(logic.Sequence(nil), o.in...)
	o.idx = make([]int, len(seq))
	for i := range o.idx {
		o.idx[i] = i
	}
	for i := range o.detAt {
		o.detAt[i] = sim.NotDetected
	}
	o.rebuildGood()

	o.scratch = s.Acquire()
	nBatches := (len(faults) + sim.Slots - 1) / sim.Slots
	o.stride = omitCkptStride(len(seq), nBatches, c.NumFFs())
	o.batches = make([]*omitBatch, nBatches)
	o.winStates = make([]sim.State, nBatches)
	o.winHave = make([]bool, nBatches)
	initBatch := func(m *sim.Machine, bi int) {
		start := bi * sim.Slots
		end := start + sim.Slots
		if end > len(faults) {
			end = len(faults)
		}
		b := &omitBatch{start: start, n: end - start, faults: faults[start:end]}
		m.ClearFaults()
		m.Reset()
		for k, f := range b.faults {
			if err := m.InjectFault(f, uint64(1)<<uint(k)); err != nil {
				panic(err)
			}
		}
		allMask := o.batchMask(b)
		var detected uint64
		for t, v := range seq {
			if t%o.stride == 0 {
				b.ckpts = append(b.ckpts, m.SaveState())
			}
			m.Step(v)
			detected |= o.detectStep(m, b, o.goodImg[t], detected, allMask, t)
		}
		o.batches[bi] = b
	}
	nw := s.Workers()
	if nw > nBatches {
		nw = nBatches
	}
	if nw <= 1 {
		m := s.Acquire()
		for bi := 0; bi < nBatches; bi++ {
			initBatch(m, bi)
		}
		s.Release(m)
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m := s.Acquire()
				defer s.Release(m)
				for {
					bi := int(next.Add(1)) - 1
					if bi >= nBatches {
						return
					}
					initBatch(m, bi)
				}
			}()
		}
		wg.Wait()
	}
	o.sims += nBatches
	o.steps += int64(nBatches) * int64(len(seq))
	return o
}

// rebuildGood recomputes the committed fault-free images over the
// current working sequence from scratch. Used at construction and after
// a checkpoint resume rebuilt cur; everywhere else commits patch the
// array incrementally.
func (o *omitter) rebuildGood() {
	o.good.ClearFaults()
	o.good.Reset()
	o.imgFree = append(o.imgFree, o.goodImg...)
	o.goodImg = make([]sim.Image, len(o.cur))
	for t, v := range o.cur {
		o.good.Step(v)
		o.goodImg[t] = o.captureGood()
	}
}

// captureGood returns the good machine's image of its last step in a
// recycled (or fresh) buffer.
func (o *omitter) captureGood() sim.Image {
	var img sim.Image
	if n := len(o.imgFree); n > 0 {
		img = o.imgFree[n-1]
		o.imgFree = o.imgFree[:n-1]
	} else {
		img = make(sim.Image, sim.ImageWords(o.c))
	}
	o.good.CaptureImage(img)
	return img
}

// close returns the omitter's pooled machines to the simulator.
func (o *omitter) close() {
	o.sim.Release(o.good)
	o.sim.Release(o.scratch)
}

// beginWindow starts a removal window whose lowest candidate is lo,
// invalidating the previous window's prefix memos.
func (o *omitter) beginWindow(lo int) {
	o.winLo = lo
	for i := range o.winHave {
		o.winHave[i] = false
	}
}

func (o *omitter) batchMask(b *omitBatch) uint64 {
	if b.n < sim.Slots {
		return (uint64(1) << uint(b.n)) - 1
	}
	return sim.AllSlots
}

// detectStep compares the batch machine's outputs to the good image's,
// records first detections into detAt at time t, and returns the newly
// detected mask.
func (o *omitter) detectStep(m *sim.Machine, b *omitBatch, good sim.Image, detected, allMask uint64, t int) uint64 {
	newly := m.DetectImage(good) & allMask &^ detected
	for k := 0; k < b.n; k++ {
		if newly&(uint64(1)<<uint(k)) != 0 {
			o.detAt[b.start+k] = t
		}
	}
	return newly
}

// trialGood lazily produces the fault-free images of one trial
// sequence (cur with [lo, lo+removed) deleted). The recomputation is
// cut off as soon as the trial's fault-free state reconverges with the
// committed trajectory — from then on the committed images, shifted by
// the removal, are the trial's images verbatim. On success the produced
// span is exactly the patch a commit must apply to the committed array.
type trialGood struct {
	o           *omitter
	lo, removed int
	next        int // next trial position to produce
	conv        int // first position served from committed data, -1 while diverged
	imgs        []sim.Image
}

// newTrialGood positions the omitter's good machine just before trial
// position lo and returns the provider. Nothing else may touch o.good
// until the trial ends, by commitTrial or discard.
func (o *omitter) newTrialGood(lo, removed int) *trialGood {
	if lo > 0 {
		o.good.SetStateImage(o.goodImg[lo-1])
	} else {
		o.good.Reset()
	}
	return &trialGood{o: o, lo: lo, removed: removed, next: lo, conv: -1}
}

// ensure produces trial images for every position below bound
// (exclusive) unless reconvergence makes them unnecessary first. Must
// not be called concurrently; parallel waves pre-ensure their bound
// before launching.
func (tg *trialGood) ensure(bound int) {
	o := tg.o
	limit := len(o.cur) - tg.removed
	if bound > limit {
		bound = limit
	}
	for tg.conv < 0 && tg.next < bound {
		o.good.Step(o.cur[tg.next+tg.removed])
		tg.imgs = append(tg.imgs, o.captureGood())
		if o.good.StateEqualsImage(o.goodImg[tg.next+tg.removed]) {
			tg.conv = tg.next + 1
			o.cReconv.Inc()
		}
		tg.next++
	}
}

// image returns the trial's fault-free image at trial position t,
// producing it first if a serial caller runs ahead of the last ensure
// bound.
func (tg *trialGood) image(t int) sim.Image {
	if t >= tg.next && tg.conv < 0 {
		tg.ensure(t + 1)
	}
	if tg.conv >= 0 && t >= tg.conv {
		return tg.o.goodImg[t+tg.removed]
	}
	return tg.imgs[t-tg.lo]
}

// discard ends a rejected trial, recycling its image buffers.
func (tg *trialGood) discard() {
	tg.o.imgFree = append(tg.o.imgFree, tg.imgs...)
	tg.imgs = nil
}

// omitJob is one batch's share of a removal trial: re-detect the
// batch's at-stake faults (mask) on the trial sequence within bound.
type omitJob struct {
	b      *omitBatch
	mask   uint64
	maxDet int
	bound  int
	// Results.
	ok                bool
	steps             int64
	evCycles, skipped int64 // event-kernel cycles evaluated / skipped dead
	hits              []omitHit
}

type omitHit struct{ fi, t int }

// runJob replays one batch over the trial sequence and reports whether
// every at-stake fault is re-detected within the job's bound. The
// prefix up to the window boundary is restored from the window memo (or
// replayed with the whole batch injected from the nearest stride
// checkpoint, memoizing the window boundary on the way).
//
// From the window boundary on only the at-stake faults (jb.mask)
// matter. They are re-injected alone, each in its own slot, and stepped
// on the event kernel against the committed images up to lo and the
// trial's images after it. Every plane operation is per-slot
// independent, so the at-stake slots evolve bit-identically to a full
// replay with all faults injected; the other slots merely go stale.
// Each position still charges one batch step, so Stats do not depend on
// how the positions were evaluated. The monitored suffix reads trial
// images that ensure already produced, so concurrent jobs only share
// read-only data plus their own winStates/winHave entries.
func (o *omitter) runJob(m *sim.Machine, jb *omitJob, lo, removed int, tg *trialGood) {
	b := jb.b
	bi := b.start / sim.Slots
	m.ClearFaults()
	if o.winHave[bi] {
		m.RestoreState(o.winStates[bi])
		o.cWinHits.Inc()
	} else {
		for k, f := range b.faults {
			if err := m.InjectFault(f, uint64(1)<<uint(k)); err != nil {
				panic(err)
			}
		}
		j := o.winLo / o.stride
		if j >= len(b.ckpts) {
			j = len(b.ckpts) - 1
		}
		m.RestoreState(b.ckpts[j])
		for u := j * o.stride; u < o.winLo; u++ {
			m.Step(o.cur[u])
			jb.steps++
		}
		m.SaveStateInto(&o.winStates[bi])
		o.winHave[bi] = true
		m.ClearFaults()
	}
	for k, f := range b.faults {
		if bit := uint64(1) << uint(k); jb.mask&bit != 0 {
			if err := m.InjectFault(f, bit); err != nil {
				panic(err)
			}
		}
	}
	var prev sim.Image // nil at position 0: the reset state is fault-free
	if o.winLo > 0 {
		prev = o.goodImg[o.winLo-1]
	}
	st := m.BeginEvent(prev, jb.mask)
	for u := o.winLo; u < lo; u++ {
		st.Step(o.goodImg[u], jb.mask)
		jb.steps++
	}
	// Suffix with detection monitoring on the at-stake bits.
	var detected uint64
	for t := lo; t < jb.bound; t++ {
		newly := st.Step(tg.image(t), jb.mask&^detected)
		jb.steps++
		if newly != 0 {
			detected |= newly
			for k := 0; k < b.n; k++ {
				if newly&(uint64(1)<<uint(k)) != 0 {
					jb.hits = append(jb.hits, omitHit{fi: b.start + k, t: t})
				}
			}
			if detected == jb.mask {
				break
			}
		}
	}
	jb.ok = detected == jb.mask
	jb.evCycles, jb.skipped = st.EventCycles, st.Skipped
}

// tryRemove attempts to delete cur[lo:hi]. slack bounds how far past
// its previous detection time a fault may drift before the removal is
// (conservatively) rejected. On success the working sequence, the
// detection times and the committed fault-free data are updated.
func (o *omitter) tryRemove(lo, hi, slack int) bool {
	// Cancellation/deadline is polled per trial, but trials are not
	// charged against MaxTrials here: the budget is charged per removal
	// window (the atomic resume unit), which guarantees every resumed
	// leg makes progress no matter how small the budget.
	if st, stop := o.ctl.ShouldStop(); stop {
		o.stopStatus = st
		return false
	}
	o.cTrials.Inc()
	removed := hi - lo
	// Per batch: the at-stake mask and the latest affected detection
	// expressed in post-removal indices.
	var jobs []omitJob
	for _, b := range o.batches {
		var mask uint64
		maxDet := 0
		for k := 0; k < b.n; k++ {
			d := o.detAt[b.start+k]
			if d == sim.NotDetected || d < lo {
				continue
			}
			mask |= uint64(1) << uint(k)
			if d >= hi {
				d -= removed
			}
			if d > maxDet {
				maxDet = d
			}
		}
		if mask != 0 {
			jobs = append(jobs, omitJob{b: b, mask: mask, maxDet: maxDet})
		}
	}
	if len(jobs) == 0 {
		o.commitTrial(lo, hi, nil, o.newTrialGood(lo, removed))
		return true
	}
	// Cheapest (earliest-deadline) batches first: failures surface at
	// minimal cost.
	for i := 1; i < len(jobs); i++ {
		for j := i; j > 0 && jobs[j].maxDet < jobs[j-1].maxDet; j-- {
			jobs[j], jobs[j-1] = jobs[j-1], jobs[j]
		}
	}

	// Every batch may run up to the same global bound: the latest
	// previous detection plus slack. Each batch individually gets four
	// slacks past its own latest detection before the removal is
	// (conservatively) rejected.
	maxBound := jobs[len(jobs)-1].maxDet + slack
	if suffixLimit := len(o.cur) - removed; maxBound > suffixLimit {
		maxBound = suffixLimit
	}
	for i := range jobs {
		bound := jobs[i].maxDet + 4*slack
		if bound > maxBound {
			bound = maxBound
		}
		jobs[i].bound = bound
	}
	tg := o.newTrialGood(lo, removed)

	nw := o.sim.Workers()
	if nw <= 1 || len(jobs) == 1 {
		// Serial earliest-deadline evaluation with early exit. The
		// speculative branch below charges exactly this job prefix to
		// Stats, so the accounting is identical at every worker count.
		var hits []omitHit
		for i := range jobs {
			jb := &jobs[i]
			o.runJob(o.scratch, jb, lo, removed, tg)
			o.charge(jb)
			if !jb.ok {
				tg.discard()
				return false
			}
			hits = append(hits, jb.hits...)
		}
		o.commitHits(lo, hi, hits, tg)
		return true
	}

	// Speculative parallel evaluation: workers pull jobs in
	// earliest-deadline order, and once some job has failed, jobs after
	// it in that order are skipped. Only the deadline-order prefix up to
	// and including the first failure is charged to Stats — exactly the
	// set the serial loop above evaluates — so Simulations/BatchSteps
	// are identical at every worker count. A speculative job that ran
	// beyond that prefix costs only otherwise-idle cores; its one side
	// effect, a freshly populated window memo, is rolled back below so
	// later trials replay exactly what the serial path would have.
	tg.ensure(maxBound)
	if nw > len(jobs) {
		nw = len(jobs)
	}
	var next, minFailed atomic.Int64
	minFailed.Store(int64(len(jobs)))
	ran := make([]bool, len(jobs))
	memoed := make([]bool, len(jobs))
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := o.sim.Acquire()
			defer o.sim.Release(m)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				if int64(i) > minFailed.Load() {
					continue // an earlier-deadline job already failed
				}
				jb := &jobs[i]
				bi := jb.b.start / sim.Slots
				hadMemo := o.winHave[bi]
				o.runJob(m, jb, lo, removed, tg)
				ran[i] = true
				memoed[i] = !hadMemo
				if !jb.ok {
					for {
						cur := minFailed.Load()
						if int64(i) >= cur || minFailed.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	fail := int(minFailed.Load())
	var hits []omitHit
	for i := range jobs {
		if i > fail {
			// Speculative overshoot: uncharged, and any window memo it
			// populated is invalidated to keep later trials' replay
			// costs deterministic.
			if ran[i] && memoed[i] {
				o.winHave[jobs[i].b.start/sim.Slots] = false
			}
			continue
		}
		o.charge(&jobs[i])
		hits = append(hits, jobs[i].hits...)
	}
	if fail < len(jobs) {
		tg.discard()
		return false
	}
	o.commitHits(lo, hi, hits, tg)
	return true
}

// charge accounts one job of the earliest-deadline prefix to Stats and
// the event-cycle counters.
func (o *omitter) charge(jb *omitJob) {
	o.sims++
	o.steps += jb.steps
	o.cEvCycles.Add(jb.evCycles)
	o.cSkipped.Add(jb.skipped)
}

// commitHits folds per-job detection hits into new detection times and
// commits the removal.
func (o *omitter) commitHits(lo, hi int, hits []omitHit, tg *trialGood) {
	newTimes := make(map[int]int, len(hits))
	for _, h := range hits {
		newTimes[h.fi] = h.t
	}
	o.commitTrial(lo, hi, newTimes, tg)
}

// commitTrial applies the removal, the re-recorded detection times and
// the fault-free data patch. The provider first finishes its span to
// the reconvergence point (or the sequence end); past that point the
// committed entries, shifted by the removal, are already correct. The
// committed images the removal and the patch replace are recycled.
func (o *omitter) commitTrial(lo, hi int, newTimes map[int]int, tg *trialGood) {
	tg.ensure(len(o.cur) - tg.removed)
	o.cRemoved.Add(int64(hi - lo))
	o.imgFree = append(o.imgFree, o.goodImg[lo:hi+len(tg.imgs)]...)
	o.cur = append(o.cur[:lo], o.cur[hi:]...)
	o.idx = append(o.idx[:lo], o.idx[hi:]...)
	o.goodImg = append(o.goodImg[:lo], o.goodImg[hi:]...)
	copy(o.goodImg[lo:], tg.imgs)
	for fi, t := range newTimes {
		o.detAt[fi] = t
	}
}

// keptMask renders which input positions are still in the working
// sequence as a '0'/'1' string of inLen characters.
func (o *omitter) keptMask(inLen int) string {
	m := make([]byte, inLen)
	for i := range m {
		m[i] = '0'
	}
	for _, i := range o.idx {
		m[i] = '1'
	}
	return string(m)
}

// restoreFrom rebuilds the working sequence from a checkpointed kept
// mask and detection-time array. Positions below the next removal
// window are untouched by construction (windows run back to front), so
// the prefix invariant the trial engine relies on still holds; the
// committed fault-free data is recomputed over the rebuilt sequence.
func (o *omitter) restoreFrom(kept string, detAt []int) {
	o.cur = o.cur[:0]
	o.idx = o.idx[:0]
	for i := 0; i < len(kept); i++ {
		if kept[i] == '1' {
			o.cur = append(o.cur, o.in[i])
			o.idx = append(o.idx, i)
		}
	}
	copy(o.detAt, detAt)
	o.rebuildGood()
}
