package sim

import (
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/scan"
)

// goodImages returns the fault-free Image of every vector of seq from
// the all-X reset state.
func goodImages(c *netlist.Circuit, seq logic.Sequence) []Image {
	m := New(c)
	imgs := make([]Image, len(seq))
	for t, v := range seq {
		m.Step(v)
		imgs[t] = make(Image, ImageWords(c))
		m.CaptureImage(imgs[t])
	}
	return imgs
}

// scanTestSeq builds a scan-translated sequence of tests: per test a
// random state load, two functional vectors and a flush — the shape
// whose long shift runs give the event kernel dead cycles to skip.
func scanTestSeq(t *testing.T, sc *scan.Circuit, rng *rand.Rand, tests int) logic.Sequence {
	t.Helper()
	seq := make(logic.Sequence, 0, tests*(sc.NSV+2))
	for test := 0; test < tests; test++ {
		state := make([]logic.Value, sc.NSV)
		for i := range state {
			state[i] = logic.Value(rng.Intn(2))
		}
		load, err := sc.ScanInSequence(state)
		if err != nil {
			t.Fatal(err)
		}
		seq = append(seq, load...)
		for f := 0; f < 2; f++ {
			orig := logic.NewVector(sc.Orig.NumInputs())
			for i := range orig {
				orig[i] = logic.Value(rng.Intn(2))
			}
			seq = append(seq, sc.FunctionalVector(orig))
		}
		seq = append(seq, sc.FlushVectors(0)...)
	}
	return seq
}

// stepperCase is one circuit and sequence the stepper tests drive.
type stepperCase struct {
	name string
	c    *netlist.Circuit
	seq  logic.Sequence
}

// islands is two independent sequential circuits side by side: a batch
// whose faults sit in one island leaves the other island's flip-flops
// outside its reach.
const islands = `
INPUT(a1)
INPUT(b1)
INPUT(a2)
INPUT(b2)
OUTPUT(o1)
OUTPUT(o2)
q1 = DFF(d1)
q2 = DFF(d2)
r1 = DFF(e1)
r2 = DFF(e2)
d1 = XOR(a1, q2)
d2 = AND(q1, b1)
o1 = OR(q1, q2)
e1 = XOR(a2, r2)
e2 = NAND(r1, b2)
o2 = NOR(r1, r2)
`

// stepperCases returns catalog circuits (plain, and scan-inserted with
// scan-translated sequences), synthetic circuits with X-laden random
// sequences, and the islands circuit.
func stepperCases(t *testing.T, rng *rand.Rand) []stepperCase {
	t.Helper()
	is := mustParse(t, islands)
	cases := []stepperCase{{"islands", is, xSeq(rng, 60, is.NumInputs(), 5)}}
	for _, name := range []string{"s27", "s298"} {
		c, err := circuits.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, stepperCase{name, c, xSeq(rng, 60, c.NumInputs(), 10)})
		sc, err := scan.Insert(c)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, stepperCase{name + "_scan", sc.Scan, scanTestSeq(t, sc, rng, 5)})
	}
	for i, p := range []circuits.Params{
		{Name: "e1", Inputs: 5, FFs: 6, Gates: 50, Outputs: 3},
		{Name: "e2", Inputs: 4, FFs: 12, Gates: 90, Outputs: 2},
		{Name: "e3", Inputs: 8, FFs: 20, Gates: 160, Outputs: 8},
	} {
		p.Seed = uint64(31 + i)
		c, err := circuits.Synthesize(p)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, stepperCase{p.Name, c, xSeq(rng, 60, c.NumInputs(), 15)})
	}
	return cases
}

// TestEventStepperDifferential: the shared event stepper, started from a
// mid-sequence faulty state with diverged slots and driven with only a
// random subset of the batch injected, must reproduce — in every care
// slot — the per-cycle detections and the final state of Machine.Step
// with the whole batch injected. Slots outside care, and the injected
// faults outside it, may drift. The cases must exercise stale stretches
// (skipped cycles followed by an event cycle), diverged starts, Step's
// return from full sweeps to event cycles, and sweeps entered while
// flip-flops outside the reach went unmaintained.
func TestEventStepperDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	trials := 24
	if testing.Short() {
		trials = 6
	}
	var skipped, remat, divergedStarts, returns, partialSweeps int
	for _, tc := range stepperCases(t, rng) {
		c, seq := tc.c, tc.seq
		imgs := goodImages(c, seq)
		universe := fault.Universe(c, true)
		full, ev := New(c), New(c)
		for trial := 0; trial < trials; trial++ {
			batch := make([]fault.Fault, 0, Slots)
			for _, fi := range rng.Perm(len(universe)) {
				if len(batch) == Slots {
					break
				}
				batch = append(batch, universe[fi])
			}
			// Full batch from reset to a random start point p.
			full.ClearFaults()
			full.Reset()
			for k, f := range batch {
				if err := full.InjectFault(f, uint64(1)<<uint(k)); err != nil {
					t.Fatal(err)
				}
			}
			p := rng.Intn(len(seq) / 2)
			for _, v := range seq[:p] {
				full.Step(v)
			}
			start := full.SaveState()

			// The stepper gets a random subset of the batch, each fault in
			// its own slot, and a random non-empty care subset of those.
			// Small subsets leave flip-flops outside the reach.
			ev.ClearFaults()
			ev.RestoreState(start)
			var injected, care uint64
			oneIn := []int{2, 6, 24}[trial%3]
			for k, f := range batch {
				if rng.Intn(oneIn) != 0 {
					continue
				}
				bit := uint64(1) << uint(k)
				if err := ev.InjectFault(f, bit); err != nil {
					t.Fatal(err)
				}
				injected |= bit
				if rng.Intn(2) == 0 {
					care |= bit
				}
			}
			if care == 0 {
				continue
			}
			var prev Image
			if p > 0 {
				prev = imgs[p-1]
			}
			st := ev.BeginEvent(prev, care)
			if !st.clean {
				divergedStarts++
			}
			wasSkipped := false
			for u := p; u < len(seq); u++ {
				full.Step(seq[u])
				want := full.DetectImage(imgs[u]) & care
				wasFull, skips, events := st.full, st.Skipped, st.EventCycles
				got := st.Step(imgs[u], care)
				if got != want {
					t.Fatalf("%s trial %d cycle %d (start %d, injected %#x, care %#x): detected %#x, want %#x",
						tc.name, trial, u, p, injected, care, got, want)
				}
				skip := st.Skipped > skips
				if skip {
					skipped++
				} else if wasSkipped && st.EventCycles > events {
					remat++
				}
				if wasFull && !st.full {
					returns++
				}
				if !wasFull && st.full && len(ev.ev.latch) < c.NumFFs() {
					partialSweeps++ // unreached flip-flops had to be materialized
				}
				wasSkipped = skip
			}
			// Final state: flip-flops the stepper does not maintain hold
			// the fault-free state. A sweep maintains all of them, an event
			// cycle the reachable ones, and after a skip run none.
			last := imgs[len(seq)-1]
			maintained := make([]bool, c.NumFFs())
			switch {
			case st.full:
				for fi := range maintained {
					maintained[fi] = true
				}
			case !st.stale:
				for _, fi := range ev.ev.latch {
					maintained[fi] = true
				}
			}
			for fi := 0; fi < c.NumFFs(); fi++ {
				z, o := ev.sz[fi], ev.so[fi]
				if !maintained[fi] {
					z, o = imageFF(last, 2*ev.sigW, ev.ffW, fi)
				}
				if ((z^full.sz[fi])|(o^full.so[fi]))&care != 0 {
					t.Fatalf("%s trial %d: final state of FF %d differs in care slots %#x",
						tc.name, trial, fi, ((z^full.sz[fi])|(o^full.so[fi]))&care)
				}
			}
		}
	}
	if skipped == 0 || remat == 0 || divergedStarts == 0 || returns == 0 || partialSweeps == 0 {
		t.Errorf("coverage: %d skipped cycles, %d stale rematerializations, %d diverged starts, %d returns to event cycles, %d sweeps entered with a partial reach (want all > 0)",
			skipped, remat, divergedStarts, returns, partialSweeps)
	}
}

// TestEventStepperSlotOrder: faults injected out of slot order and with
// gaps between their slots must be simulated exactly like the full
// kernel, by Step and by the event core runBatchEvent drives.
// prepareEvent once derived each site's activity mask from the
// injection order (fault k in slot k), so such a batch skipped cycles in
// which its faults were active and lost detections without an error.
func TestEventStepperSlotOrder(t *testing.T) {
	orig, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scan.Insert(orig)
	if err != nil {
		t.Fatal(err)
	}
	c := sc.Scan
	universe := fault.Universe(c, true)
	rng := rand.New(rand.NewSource(23))
	seq := scanTestSeq(t, sc, rng, 6)
	imgs := goodImages(c, seq)
	s := NewSimulator(c, 1)
	m := New(c)
	steppers := map[string]func(st *EventStepper, img Image, care uint64) uint64{
		"Step": (*EventStepper).Step,
		"stepEvent": func(st *EventStepper, img Image, care uint64) uint64 {
			newly, _ := st.stepEvent(img, care)
			return newly
		},
	}
	for trial := 0; trial < 20; trial++ {
		name := "Step"
		if trial%2 == 1 {
			name = "stepEvent"
		}
		n := 1 + rng.Intn(40)
		subset := rng.Perm(len(universe))[:n]
		ref := s.RunSubset(seq, universe, subset, Options{Kernel: KernelFull}, nil, nil)

		slots := rng.Perm(Slots)[:n] // slot of subset[i]; gaps in between
		m.ClearFaults()
		m.Reset()
		var all uint64
		for _, i := range rng.Perm(n) { // shuffled injection order
			bit := uint64(1) << uint(slots[i])
			if err := m.InjectFault(universe[subset[i]], bit); err != nil {
				t.Fatal(err)
			}
			all |= bit
		}
		got := make([]int, Slots)
		for k := range got {
			got[k] = NotDetected
		}
		var detected uint64
		st := m.BeginEvent(nil, all)
		for u := range seq {
			newly := steppers[name](st, imgs[u], all&^detected)
			for k := 0; k < Slots; k++ {
				if newly&(uint64(1)<<uint(k)) != 0 {
					got[k] = u
				}
			}
			detected |= newly
		}
		for i, fi := range subset {
			if got[slots[i]] != ref.DetectedAt[i] {
				t.Fatalf("trial %d (%s): fault %s in slot %d detected at %d, full kernel %d",
					trial, name, universe[fi].Name(c), slots[i], got[slots[i]], ref.DetectedAt[i])
			}
		}
	}
}
