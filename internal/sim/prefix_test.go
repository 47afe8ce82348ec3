package sim

import (
	"testing"

	"repro/internal/circuits"
)

// TestStateImageRoundTrip: capturing a slot-uniform machine state as a
// StateImage and broadcasting it back must reproduce the planes
// verbatim, and StateEqualsImage must certify exactly that.
func TestStateImageRoundTrip(t *testing.T) {
	c, err := circuits.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	m := New(c)
	for _, v := range randSeq(37, c.NumInputs(), 11) {
		m.Step(v)
	}
	img := m.StateImage()
	if !m.StateEqualsImage(img) {
		t.Fatal("machine does not equal its own image")
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
