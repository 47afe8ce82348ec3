package jobs

import (
	"time"

	"repro/internal/core"
	"repro/internal/runctl"
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: submitted, no task has started.
	StateQueued State = "queued"
	// StateRunning: at least one task has started and the job is not
	// settled.
	StateRunning State = "running"
	// StateComplete: every task finished all its work; the result is
	// available.
	StateComplete State = "complete"
	// StateSuspended: the job stopped on a budget (deadline, attempt or
	// trial cap), a drain, or a server restart; its checkpoints make it
	// resumable.
	StateSuspended State = "suspended"
	// StateCanceled: stopped by an explicit cancel request; resumable
	// like a suspended job.
	StateCanceled State = "canceled"
	// StateFailed: a task hit an internal error; Error has the detail.
	StateFailed State = "failed"
)

// knownStates for Status validation.
var knownStates = []State{StateQueued, StateRunning, StateComplete, StateSuspended, StateCanceled, StateFailed}

// Terminal reports whether the state is settled (no task running or
// queued). Suspended and canceled jobs are terminal but resumable.
func (s State) Terminal() bool {
	switch s {
	case StateComplete, StateSuspended, StateCanceled, StateFailed:
		return true
	}
	return false
}

// TaskStatus is the progress record of one schedulable unit: a circuit
// run, or one fault shard of a simulate-flow circuit.
type TaskStatus struct {
	// Name identifies the task within the job, e.g. "s298" or
	// "s298/shard-1".
	Name string `json:"name"`
	// Started reports whether a worker has ever claimed the task.
	Started bool `json:"started"`
	// Done reports whether the task finished all its work.
	Done bool `json:"done"`
	// Status is the run-control outcome of the last attempt (Complete
	// or Resumed when Done; a stopped status after an interrupt).
	Status runctl.Status `json:"status"`
	// Error carries a failed task's error text.
	Error string `json:"error,omitempty"`
}

// Status is the public job record served by the API and persisted as
// job.json. Timestamps live here and only here — Result is
// deliberately timestamp-free so sharded and unsharded runs of one
// spec compare byte-identical.
type Status struct {
	ID    string `json:"id"`
	Spec  Spec   `json:"spec"`
	State State  `json:"state"`
	// Tasks lists per-task progress in scheduling order.
	Tasks []TaskStatus `json:"tasks"`
	// Resumable reports whether a resume request would be accepted:
	// the job stopped short of completion without an internal error.
	Resumable bool `json:"resumable"`
	// Error carries the first task failure of a failed job.
	Error string `json:"error,omitempty"`
	// Created/Finished stamp the job's lifecycle (RFC3339Nano, UTC).
	Created  string `json:"created,omitempty"`
	Finished string `json:"finished,omitempty"`
}

// Validate checks a Status record structurally — the guard the server
// applies to job.json files found on disk (a hand-edited or torn record
// must not wedge startup) and clients may apply to API responses.
// Failures are *SpecError values naming the bad field.
func (st *Status) Validate() error {
	if st.ID == "" {
		return specErrf("id", "empty job id")
	}
	known := false
	for _, s := range knownStates {
		known = known || st.State == s
	}
	if !known {
		return specErrf("state", "unknown state %q", st.State)
	}
	if err := st.Spec.Validate(); err != nil {
		return err
	}
	if len(st.Tasks) == 0 {
		return specErrf("tasks", "no tasks recorded")
	}
	for i, t := range st.Tasks {
		if t.Name == "" {
			return specErrf("tasks", "task %d has no name", i)
		}
		if t.Done && t.Status.Stopped() {
			return specErrf("tasks", "task %q done with stopped status %v", t.Name, t.Status)
		}
	}
	if st.State == StateFailed && st.Error == "" {
		return specErrf("error", "failed job without an error")
	}
	return nil
}

// clone deep-copies the status so API handlers can serialize it outside
// the job lock.
func (st *Status) clone() *Status {
	cp := *st
	cp.Spec.Circuits = append([]string(nil), st.Spec.Circuits...)
	cp.Tasks = append([]TaskStatus(nil), st.Tasks...)
	return &cp
}

// SimResult is one circuit's merged simulate-flow outcome.
type SimResult struct {
	Circuit string `json:"circuit"`
	// SeqLen and Faults pin the workload shape.
	SeqLen int `json:"seq_len"`
	Faults int `json:"faults"`
	// Detected counts detected faults; DetectedAt is the merged
	// first-detection cycle per fault (-1 = not detected), identical
	// for every partitioning and worker count.
	Detected   int   `json:"detected"`
	DetectedAt []int `json:"detected_at"`
}

// CompactResult is one circuit's compact-flow outcome: the paper's
// Section 4 pipeline (restoration then omission) applied to the
// circuit's seeded test sequence. Only semantic, scheduling-free
// numbers appear — lengths, targets, extra detections and the final
// kept mask — so the row is byte-identical at every worker topology.
type CompactResult struct {
	Circuit string `json:"circuit"`
	// SeqLen and Faults pin the workload shape.
	SeqLen int `json:"seq_len"`
	Faults int `json:"faults"`
	// TargetFaults is how many faults the input sequence detects (what
	// compaction must preserve).
	TargetFaults int `json:"target_faults"`
	// RestoredLen / CompactedLen are the sequence lengths after
	// restoration and after omission.
	RestoredLen  int `json:"restored_len"`
	CompactedLen int `json:"compacted_len"`
	// ExtraDetected counts faults the compacted sequence detects that
	// the input did not (summed over both passes).
	ExtraDetected int `json:"extra_detected"`
	// Kept marks the input positions surviving both passes ('1' each);
	// applying it to the deterministic input sequence reproduces the
	// compacted sequence exactly.
	Kept string `json:"kept"`
}

// Result is a completed job's deliverable. It contains no timestamps,
// no job ID and no scheduling detail (partition count, worker count):
// two jobs running the same flow over the same circuits and seed
// produce byte-identical result JSON no matter how the work was
// sharded — the property the lifecycle tests and the xcheck invariants
// lean on.
type Result struct {
	Flow      string              `json:"flow"`
	Generate  []core.GenerateRow  `json:"generate,omitempty"`
	Translate []core.TranslateRow `json:"translate,omitempty"`
	Simulate  []SimResult         `json:"simulate,omitempty"`
	Compact   []CompactResult     `json:"compact,omitempty"`
}

// nowRFC3339 stamps status timestamps.
func nowRFC3339() string { return time.Now().UTC().Format(time.RFC3339Nano) }
