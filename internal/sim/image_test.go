package sim

import (
	"testing"

	"repro/internal/circuits"
)

// TestStateImageRoundTrip: capturing a slot-uniform machine as an Image
// and broadcasting its state back must reproduce the flip-flop planes
// verbatim, StateEqualsImage must certify exactly that, and the image's
// output bits must detect nothing against the machine they came from.
func TestStateImageRoundTrip(t *testing.T) {
	c, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	m := New(c)
	for _, v := range randSeq(37, c.NumInputs(), 11) {
		m.Step(v)
	}
	img := make(Image, ImageWords(c))
	m.CaptureImage(img)
	if !m.StateEqualsImage(img) {
		t.Fatal("machine does not equal its own image")
	}
	if det := m.DetectImage(img); det != 0 {
		t.Fatalf("machine detects %#x against its own image", det)
	}
	want := m.SaveState()
	m2 := New(c)
	m2.SetStateImage(img)
	got := m2.SaveState()
	for fi := range want.sz {
		if want.sz[fi] != got.sz[fi] || want.so[fi] != got.so[fi] {
			t.Fatalf("FF %d: planes (%x,%x), want (%x,%x)",
				fi, got.sz[fi], got.so[fi], want.sz[fi], want.so[fi])
		}
	}
	// A diverged state must not compare equal: flip one slot bit.
	if len(want.sz) > 0 {
		m.sz[0] ^= 2
		if m.StateEqualsImage(img) {
			t.Fatal("diverged machine still equals image")
		}
	}
}
