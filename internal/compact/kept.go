package compact

import (
	"repro/internal/logic"
	"repro/internal/runctl"
)

// This file is the scheduler-visible surface of the two passes'
// checkpoints: the kept masks restoration and omission record, read back
// from a store after a run, and the mask arithmetic that turns them into
// the final compacted sequence. The jobs service uses it to report a
// compact task's result as one mask over the input sequence.

// OmitState is the scheduler-visible part of an omit checkpoint.
type OmitState struct {
	// Kept marks the input positions still present ('1' per survivor).
	Kept string
	// Done reports a finished pass.
	Done bool
}

// LoadOmitState reads the omit section from store, validated against
// the run shape. ok is false when the section is absent (a fresh run).
func LoadOmitState(store runctl.Store, inLen, nFaults int) (OmitState, bool, error) {
	ctl := &runctl.Control{Store: store, Resume: true}
	ck, ok, err := loadOmitCheckpoint(ctl, inLen, nFaults)
	if err != nil || !ok {
		return OmitState{}, false, err
	}
	return OmitState{Kept: ck.Kept, Done: ck.Done}, true, nil
}

// RestoreState is the scheduler-visible part of a restore checkpoint.
type RestoreState struct {
	// Kept marks the input positions restoration kept.
	Kept string
	// Done reports a finished pass.
	Done bool
}

// LoadRestoreState reads the restore section from store, validated
// against the run shape and order policy. ok is false when the section
// is absent.
func LoadRestoreState(store runctl.Store, inLen, nFaults int, order Order) (RestoreState, bool, error) {
	ctl := &runctl.Control{Store: store, Resume: true}
	ck, ok, err := loadRestoreCheckpoint(ctl, inLen, nFaults, order)
	if err != nil || !ok {
		return RestoreState{}, false, err
	}
	return RestoreState{Kept: ck.Kept, Done: ck.Done}, true, nil
}

// ApplyMask selects the '1' positions of kept out of seq — the
// subsequence a kept-mask checkpoint describes.
func ApplyMask(seq logic.Sequence, kept string) (logic.Sequence, error) {
	if len(kept) != len(seq) {
		return nil, maskLenError("apply", len(kept), len(seq))
	}
	out := make(logic.Sequence, 0, len(seq))
	for i := range seq {
		if kept[i] == '1' {
			out = append(out, seq[i])
		}
	}
	return out, nil
}

// ComposeKept maps an inner kept mask (over the sequence the outer mask
// selects) back onto outer's index space: the k-th '1' of outer
// survives iff inner[k] is '1'. Composing restoration's mask with
// omission's yields the input positions of the final compacted
// sequence.
func ComposeKept(outer, inner string) (string, error) {
	out := []byte(outer)
	k := 0
	for i := range out {
		if out[i] != '1' {
			continue
		}
		if k >= len(inner) {
			return "", maskLenError("compose", len(inner), k+1)
		}
		if inner[k] != '1' {
			out[i] = '0'
		}
		k++
	}
	if k != len(inner) {
		return "", maskLenError("compose", len(inner), k)
	}
	return string(out), nil
}
