package compact

import "testing"

func TestComposeKeptAndMasks(t *testing.T) {
	// outer keeps positions {0,2,3,5}; inner drops the 2nd of those.
	composed, err := ComposeKept("101101", "1011")
	if err != nil {
		t.Fatal(err)
	}
	if composed != "100101" {
		t.Fatalf("ComposeKept = %q, want 100101", composed)
	}
	if _, err := ComposeKept("101", "1"); err == nil {
		t.Fatal("ComposeKept accepted a short inner mask")
	}
	if _, err := ComposeKept("101", "111"); err == nil {
		t.Fatal("ComposeKept accepted a long inner mask")
	}

	_, _, seq := fixture(t)
	kept := make([]byte, len(seq))
	for i := range kept {
		if i%2 == 0 {
			kept[i] = '1'
		} else {
			kept[i] = '0'
		}
	}
	sub, err := ApplyMask(seq, string(kept))
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != (len(seq)+1)/2 {
		t.Fatalf("ApplyMask kept %d of %d", len(sub), len(seq))
	}
	for i := range sub {
		if sub[i].String() != seq[2*i].String() {
			t.Fatalf("ApplyMask vector %d is not input vector %d", i, 2*i)
		}
	}
	if _, err := ApplyMask(seq, "1"); err == nil {
		t.Fatal("ApplyMask accepted a mask of the wrong length")
	}
}
