package sim

import (
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Image is the compact fault-free picture of one simulated vector: two
// bits (can-be-0, can-be-1) per signal for the values during the
// cycle, plus two bits per flip-flop for the state reached after it,
// laid out [sigZero | sigOne | ffZero | ffOne] with ⌈nSig/64⌉ words per
// signal plane and ⌈nFF/64⌉ per flip-flop plane. The good trace caches
// one per vector, the omission trial engine keeps one per committed
// position, and the event kernel (EventStepper) reads a cycle's
// fault-free values from it.
//
// An image only represents machines whose planes are identical in
// every slot. A fault-free machine's always are, because inputs are
// broadcast and no fault forces slots apart; capturing a machine whose
// slots have diverged silently records slot 0 only.
type Image []uint64

// ImageWords returns the length of an Image for circuit c.
func ImageWords(c *netlist.Circuit) int { return 2*sigWords(c) + 2*ffWords(c) }

func sigWords(c *netlist.Circuit) int { return (len(c.Signals) + 63) / 64 }
func ffWords(c *netlist.Circuit) int  { return (len(c.FFs) + 63) / 64 }

// CaptureImage overwrites img (ImageWords long) with slot 0 of the
// machine's signal planes from the last Step and its current flip-flop
// state.
func (m *Machine) CaptureImage(img Image) {
	packSlot0(img[:m.sigW], img[m.sigW:2*m.sigW], m.zero, m.one)
	base := 2 * m.sigW
	packSlot0(img[base:base+m.ffW], img[base+m.ffW:], m.sz, m.so)
}

// packSlot0 packs slot 0 of the planes zero/one, 64 entries per word,
// into zw/ow.
func packSlot0(zw, ow, zero, one []uint64) {
	for w := range zw {
		lo := w << 6
		hi := min(lo+64, len(zero))
		var z, o uint64
		for i := lo; i < hi; i++ {
			z |= (zero[i] & 1) << uint(i-lo)
			o |= (one[i] & 1) << uint(i-lo)
		}
		zw[w], ow[w] = z, o
	}
}

// SetStateImage broadcasts img's post-vector flip-flop state into every
// slot. For an image captured from a slot-uniform machine the round
// trip is exact.
func (m *Machine) SetStateImage(img Image) {
	base := 2 * m.sigW
	for fi := range m.sz {
		m.sz[fi], m.so[fi] = imageFF(img, base, m.ffW, fi)
	}
}

// StateEqualsImage reports whether the machine's flip-flop planes equal
// the broadcast of img's post-vector state in every slot. A machine
// whose slots have diverged can never match (the comparison is against
// full broadcast planes), so a true result certifies slot uniformity
// too. The scan exits on the first differing flip-flop.
func (m *Machine) StateEqualsImage(img Image) bool {
	base := 2 * m.sigW
	for fi := range m.sz {
		z, o := imageFF(img, base, m.ffW, fi)
		if m.sz[fi] != z || m.so[fi] != o {
			return false
		}
	}
	return true
}

// DetectImage returns the slots in which some primary output of the
// last Step definitely differs from its fault-free value in img (see
// DetectMask; an X in the image detects nothing).
func (m *Machine) DetectImage(img Image) uint64 {
	var det uint64
	for _, s := range m.c.Outputs {
		gz, gd := imageSig(img, m.sigW, s)
		det |= DetectMask(gz, gd, m.zero[s], m.one[s])
	}
	return det
}

// imageSig expands img's two bits for signal s into broadcast planes.
func imageSig(img Image, sigW int, s netlist.SignalID) (z, o uint64) {
	w, b := int(s)>>6, uint(s)&63
	return -(img[w] >> b & 1), -(img[sigW+w] >> b & 1)
}

// imageFF expands img's post-vector state bits for flip-flop fi into
// broadcast planes; base is the offset of the flip-flop planes
// (2·sigW).
func imageFF(img Image, base, ffW, fi int) (z, o uint64) {
	w, b := fi>>6, uint(fi)&63
	return -(img[base+w] >> b & 1), -(img[base+ffW+w] >> b & 1)
}

// ValuePlanes expands one logic value into full 64-slot planes — the
// broadcast encoding used throughout the simulator, exported for
// packages that compare machine outputs against fault-free values.
func ValuePlanes(v logic.Value) (zero, one uint64) { return broadcast(v) }
