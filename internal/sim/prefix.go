package sim

import "repro/internal/logic"

// StateImage is a compact snapshot of a slot-uniform flip-flop state:
// two bits per flip-flop (can-be-0, can-be-1) taken from slot 0, laid
// out as [zero | one] with ceil(nFF/64) words per plane. It is the
// same encoding the good-trace cache uses for the flip-flop part of
// its per-vector images, 64x smaller than a full State.
//
// The image only represents states that are identical in every slot —
// a fault-free machine's state always is, because inputs are broadcast
// and no fault ever forces slots apart. Capturing a machine whose
// slots have diverged silently records slot 0 only; callers that
// snapshot faulty machines must keep using State.
type StateImage []uint64

// stateImageWords returns the word count of a StateImage for nFF
// flip-flops.
func stateImageWords(nFF int) int { return 2 * ((nFF + 63) / 64) }

// StateImage captures the current flip-flop state of slot 0 as a
// compact image (see the type's contract on slot uniformity).
func (m *Machine) StateImage() StateImage {
	ffW := (len(m.sz) + 63) / 64
	img := make(StateImage, 2*ffW)
	m.AppendStateImage(img)
	return img
}

// AppendStateImage writes the slot-0 flip-flop state into img, which
// must hold stateImageWords words and be zeroed. Split out from
// StateImage for callers that manage their own image buffers.
func (m *Machine) AppendStateImage(img StateImage) {
	ffW := (len(m.sz) + 63) / 64
	for fi := range m.sz {
		w, b := fi>>6, uint(fi)&63
		img[w] |= (m.sz[fi] & 1) << b
		img[ffW+w] |= (m.so[fi] & 1) << b
	}
}

// SetStateImage broadcasts an image captured with StateImage into every
// slot. For images taken from a slot-uniform machine the round trip is
// exact: SetStateImage(m.StateImage()) reproduces the planes verbatim.
func (m *Machine) SetStateImage(img StateImage) {
	ffW := (len(m.sz) + 63) / 64
	for fi := range m.sz {
		w, b := fi>>6, uint(fi)&63
		m.sz[fi] = -(img[w] >> b & 1)
		m.so[fi] = -(img[ffW+w] >> b & 1)
	}
}

// StateEqualsImage reports whether the machine's current flip-flop
// planes equal the broadcast of img in every slot. A machine whose
// slots have diverged can never match (the comparison is against full
// broadcast planes), so a true result certifies slot uniformity too.
// The scan exits on the first differing flip-flop.
func (m *Machine) StateEqualsImage(img StateImage) bool {
	ffW := (len(m.sz) + 63) / 64
	for fi := range m.sz {
		w, b := fi>>6, uint(fi)&63
		if m.sz[fi] != -(img[w]>>b&1) || m.so[fi] != -(img[ffW+w]>>b&1) {
			return false
		}
	}
	return true
}

// ValuePlanes expands one logic value into full 64-slot planes — the
// broadcast encoding used throughout the simulator, exported for
// packages that compare machine outputs against fault-free values.
func ValuePlanes(v logic.Value) (zero, one uint64) { return broadcast(v) }
