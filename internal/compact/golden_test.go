package compact

import (
	"hash/fnv"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/scan"
	"repro/internal/seqatpg"
	"repro/internal/sim"
)

// hashSeq fingerprints a sequence's exact vector content.
func hashSeq(seq logic.Sequence) uint64 {
	h := fnv.New64a()
	for _, v := range seq {
		h.Write([]byte(v.String()))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// TestRestoreThenOmitGolden pins the full compaction pipeline to the
// output of the pre-parallelism serial implementation (goldens captured
// on this repository before the Simulator existed). Machine pooling,
// worker fan-out, the sort.Slice ordering, restoration fault dropping
// and the event-kernel omission trials must all be invisible in the
// result. Each row also pins both passes' Stats, the work accounting
// (Simulations, BatchSteps) included, at the row's worker counts (nil:
// the default, GOMAXPROCS).
func TestRestoreThenOmitGolden(t *testing.T) {
	golden := []struct {
		circuit                 string
		raw, restored, omitted  int
		restorHash, omittedHash uint64
		rst, ost                Stats
		workers                 []int
	}{
		{"s27", 32, 22, 18, 0xcc244bfbb3717983, 0x291f1d64efe0ac52,
			Stats{BeforeLen: 32, AfterLen: 22, TargetFaults: 58, Simulations: 28, BatchSteps: 224},
			Stats{BeforeLen: 22, AfterLen: 18, TargetFaults: 58, Simulations: 41, BatchSteps: 557}, nil},
		{"s298", 406, 302, 241, 0x337005ab71d8ba5b, 0x7b5b86c26aca9238,
			Stats{BeforeLen: 406, AfterLen: 302, TargetFaults: 448, Simulations: 317, BatchSteps: 18835},
			Stats{BeforeLen: 302, AfterLen: 241, TargetFaults: 448, Simulations: 1517, BatchSteps: 158705}, nil},
		{"s344", 274, 252, 176, 0xee62e965285934d8, 0xcca82642fc9dde5a,
			Stats{BeforeLen: 274, AfterLen: 252, TargetFaults: 502, Simulations: 264, BatchSteps: 17499},
			Stats{BeforeLen: 252, AfterLen: 176, TargetFaults: 502, Simulations: 1176, BatchSteps: 99298}, nil},
		// s382 (21 flip-flops, 809 generated vectors): omission dominates
		// the row with 676,322 batch steps over 3,892 trial jobs, checked
		// on the serial and on the speculative-parallel trial path.
		{"s382", 809, 596, 424, 0x563aa339826adabb, 0x5b95da89ab081aa0,
			Stats{BeforeLen: 809, AfterLen: 596, TargetFaults: 590, Simulations: 618, BatchSteps: 77529},
			Stats{BeforeLen: 596, AfterLen: 424, TargetFaults: 590, Simulations: 3892, BatchSteps: 676322},
			[]int{1, 4}},
	}
	for _, g := range golden {
		g := g
		t.Run(g.circuit, func(t *testing.T) {
			c, err := circuits.Load(g.circuit)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := scan.Insert(c)
			if err != nil {
				t.Fatal(err)
			}
			faults := fault.Universe(sc.Scan, true)
			gen := seqatpg.Generate(sc, faults, seqatpg.Options{Seed: 1})
			if len(gen.Sequence) != g.raw {
				t.Fatalf("raw sequence length %d, golden %d", len(gen.Sequence), g.raw)
			}
			workers := g.workers
			if workers == nil {
				workers = []int{0}
			}
			for _, workers := range workers {
				restored, omitted, rst, ost := RestoreThenOmitOpts(sc.Scan, gen.Sequence, faults, Options{Workers: workers})
				if len(restored) != g.restored || hashSeq(restored) != g.restorHash {
					t.Errorf("workers=%d restored: len %d hash %#x, golden len %d hash %#x",
						workers, len(restored), hashSeq(restored), g.restored, g.restorHash)
				}
				if len(omitted) != g.omitted || hashSeq(omitted) != g.omittedHash {
					t.Errorf("workers=%d omitted: len %d hash %#x, golden len %d hash %#x",
						workers, len(omitted), hashSeq(omitted), g.omitted, g.omittedHash)
				}
				if rst != g.rst || ost != g.ost {
					t.Errorf("workers=%d stats:\n restore %#v\n omit    %#v\ngolden:\n restore %#v\n omit    %#v",
						workers, rst, ost, g.rst, g.ost)
				}
			}
		})
	}
}

// TestADIOrderGolden pins the pipeline output under OrderADI. The ADI
// order is the one option that legitimately changes the compacted
// sequence, so it gets its own goldens; on these circuits it beats the
// paper's detection order (s298: 241 → 195 final vectors).
func TestADIOrderGolden(t *testing.T) {
	golden := []struct {
		circuit                 string
		raw, restored, omitted  int
		restorHash, omittedHash uint64
	}{
		{"s27", 32, 21, 18, 0x715b61fc0b478aaa, 0xb0a7f6ab5010a67a},
		{"s298", 406, 233, 195, 0x022c7d20d554dcf7, 0x9ec919df3d652c4a},
		{"s344", 274, 232, 173, 0xf34944c2d96ca8bc, 0x6db76292ff6e0941},
	}
	for _, g := range golden {
		g := g
		t.Run(g.circuit, func(t *testing.T) {
			c, err := circuits.Load(g.circuit)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := scan.Insert(c)
			if err != nil {
				t.Fatal(err)
			}
			faults := fault.Universe(sc.Scan, true)
			gen := seqatpg.Generate(sc, faults, seqatpg.Options{Seed: 1})
			if len(gen.Sequence) != g.raw {
				t.Fatalf("raw sequence length %d, golden %d", len(gen.Sequence), g.raw)
			}
			restored, omitted, _, _ := RestoreThenOmitOpts(sc.Scan, gen.Sequence, faults, Options{Order: OrderADI})
			if len(restored) != g.restored || hashSeq(restored) != g.restorHash {
				t.Errorf("restored: len %d hash %#x, golden len %d hash %#x",
					len(restored), hashSeq(restored), g.restored, g.restorHash)
			}
			if len(omitted) != g.omitted || hashSeq(omitted) != g.omittedHash {
				t.Errorf("omitted: len %d hash %#x, golden len %d hash %#x",
					len(omitted), hashSeq(omitted), g.omitted, g.omittedHash)
			}
		})
	}
}

// TestCompactionWorkerDeterminism: the compacted sequence and the work
// accounting must be identical for one worker and many — parallelism
// only changes wall-clock time.
func TestCompactionWorkerDeterminism(t *testing.T) {
	c, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scan.Insert(c)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Universe(sc.Scan, true)
	rng := logic.NewRandFiller(11)
	seq := make(logic.Sequence, 160)
	for i := range seq {
		v := logic.NewVector(sc.Scan.NumInputs())
		for j := range v {
			v[j] = rng.Next()
		}
		seq[i] = v
	}

	reg1, regN := obs.NewRegistry(), obs.NewRegistry()
	r1, o1, rst1, ost1 := RestoreThenOmitOpts(sc.Scan, seq, faults, Options{Workers: 1, Obs: reg1})
	rN, oN, rstN, ostN := RestoreThenOmitOpts(sc.Scan, seq, faults, Options{Workers: 8, Obs: regN})
	if hashSeq(r1) != hashSeq(rN) || len(r1) != len(rN) {
		t.Errorf("restored sequences differ: workers=1 len %d, workers=8 len %d", len(r1), len(rN))
	}
	if hashSeq(o1) != hashSeq(oN) || len(o1) != len(oN) {
		t.Errorf("omitted sequences differ: workers=1 len %d, workers=8 len %d", len(o1), len(oN))
	}
	if rst1 != rstN {
		t.Errorf("restore stats differ: %+v vs %+v", rst1, rstN)
	}
	if ost1 != ostN {
		t.Errorf("omit stats differ: %+v vs %+v", ost1, ostN)
	}
	// The omission trials' event-kernel cycle counters are charged like
	// BatchSteps, for the earliest-deadline job prefix only.
	for _, name := range []string{"omit.event_cycles", "omit.skipped_cycles"} {
		v1, vN := reg1.Counter(name).Value(), regN.Counter(name).Value()
		if v1 != vN || v1 == 0 {
			t.Errorf("%s: workers=1 %d, workers=8 %d (want equal and non-zero)", name, v1, vN)
		}
	}

	// An externally supplied shared simulator must behave identically.
	s := sim.NewSimulator(sc.Scan, 4)
	rS, oS, _, _ := RestoreThenOmitOpts(sc.Scan, seq, faults, Options{Sim: s})
	if hashSeq(rS) != hashSeq(r1) || hashSeq(oS) != hashSeq(o1) {
		t.Error("shared-simulator run differs from private-simulator run")
	}
}
