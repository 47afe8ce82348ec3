package jobs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/scan"
	"repro/internal/sim"
)

// task is one schedulable unit of a job: a whole circuit run
// (generate, translate and compact flows) or one fault shard of a
// circuit (simulate flow). Workers — in-process or remote scanworker
// processes — lease tasks from the queue; tasks carry disjoint work, so
// any number of workers can run one job concurrently.
type task struct {
	job     *job
	idx     int
	circuit string
	shard   sim.FaultRange // simulate flow only

	// retried marks a task re-enqueued in the same leg after its
	// worker's lease expired: the re-run resumes from the reclaimed
	// checkpoint and must not re-fire deterministic-interrupt hooks.
	retried bool
}

// taskResult is the per-task deliverable, persisted as
// task-<idx>.result.json the moment the task completes. Keeping task
// results on disk (not only in memory) makes jobs resumable across
// server restarts: a resume leg re-runs only the unfinished tasks and
// reassembles the rest from these files.
type taskResult struct {
	Status    runctl.Status      `json:"status"`
	Error     string             `json:"error,omitempty"`
	Generate  *core.GenerateRow  `json:"generate,omitempty"`
	Translate *core.TranslateRow `json:"translate,omitempty"`
	// DetectedAt is a simulate shard's detection vector, keyed by
	// position within the shard's fault range.
	DetectedAt []int `json:"detected_at,omitempty"`
	// Faults is the shard's circuit-wide fault-universe size, pinned so
	// result assembly never depends on re-deriving it.
	Faults int `json:"faults,omitempty"`
	// Compact is a compact-flow circuit's result row.
	Compact *CompactResult `json:"compact,omitempty"`
}

// job is the server-side state of one submission. All mutable fields
// are guarded by the owning Server's mutex; Spec and the task list are
// immutable after submit.
type job struct {
	srv *Server
	dir string

	status    Status
	tasks     []*task
	pending   int  // enqueued-or-running tasks not yet reported this leg
	canceled  bool // explicit cancel request (vs. budget/drain stop)
	legClosed bool // no further task of this leg may start
	resumeLeg bool
	// deadline is the leg's wall-clock budget end (zero: none); leases
	// carry the remainder as Assignment.TimeoutMS.
	deadline time.Time

	rec        *obs.Recorder
	eventsFile *os.File
	hub        *hub

	done chan struct{} // closed when the current leg settles
}

func (j *job) eventsPath() string { return filepath.Join(j.dir, "events.jsonl") }
func (j *job) statusPath() string { return filepath.Join(j.dir, "job.json") }
func (j *job) resultPath() string { return filepath.Join(j.dir, "result.json") }
func (j *job) ckptPath(i int) string {
	return filepath.Join(j.dir, fmt.Sprintf("task-%d.ckpt", i))
}
func (j *job) taskResultPath(i int) string {
	return filepath.Join(j.dir, fmt.Sprintf("task-%d.result.json", i))
}

// buildTasks expands a validated spec into its task list: one task per
// circuit, or one per (circuit, fault shard) for the simulate flow.
// Simulate partitioning needs each circuit's fault-universe size, so
// the circuits are instantiated here once, at submit time.
func buildTasks(j *job) error {
	sp := &j.status.Spec
	for _, name := range sp.Circuits {
		switch sp.Flow {
		case FlowSimulate:
			_, faults, err := simWorkload(name, sp)
			if err != nil {
				return err
			}
			for i, r := range sim.PartitionFaults(len(faults), sp.partitions()) {
				taskName := name
				if sp.partitions() > 1 {
					taskName = fmt.Sprintf("%s/shard-%d", name, i)
				}
				j.addTask(taskName, name, r)
			}
		default:
			j.addTask(name, name, sim.FaultRange{})
		}
	}
	return nil
}

func (j *job) addTask(name, circuit string, r sim.FaultRange) {
	j.tasks = append(j.tasks, &task{job: j, idx: len(j.tasks), circuit: circuit, shard: r})
	j.status.Tasks = append(j.status.Tasks, TaskStatus{Name: name})
}

// simWorkload instantiates the simulate flow's deterministic inputs for
// one circuit: the scan design and the fault universe — pure functions
// of the spec.
func simWorkload(name string, sp *Spec) (*scan.Circuit, []fault.Fault, error) {
	c, err := circuits.Load(name)
	if err != nil {
		return nil, nil, err
	}
	d, err := scan.Insert(c)
	if err != nil {
		return nil, nil, err
	}
	return d, fault.Universe(d.Scan, !sp.NoCollapse), nil
}

// openLeg starts one execution leg (initial or resume): the deadline of
// the spec's wall-clock budget, events file in append mode, a Sync
// recorder tee'd into the live hub, and the pending-task count. Called
// with the server lock held.
func (j *job) openLeg(resume bool) error {
	j.deadline = time.Time{}
	if ms := j.status.Spec.TimeoutMS; ms > 0 {
		j.deadline = time.Now().Add(time.Duration(ms) * time.Millisecond)
	}
	j.resumeLeg = resume
	j.canceled = false
	j.legClosed = false
	j.done = make(chan struct{})

	if j.hub == nil {
		history, _ := os.ReadFile(j.eventsPath())
		j.hub = newHub(history)
	} else {
		j.hub.reopen()
	}
	f, err := os.OpenFile(j.eventsPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.eventsFile = f
	j.rec = obs.NewRecorder(io.MultiWriter(f, j.hub), obs.RecorderOptions{
		Program: "scand", Resumed: resume, Sync: true,
	})

	j.pending = 0
	for i := range j.status.Tasks {
		if !j.status.Tasks[i].Done {
			j.status.Tasks[i].Started = false
			j.status.Tasks[i].Status = runctl.Complete
			j.status.Tasks[i].Error = ""
		}
		j.tasks[i].retried = false
	}
	j.status.Finished = ""
	j.status.Error = ""
	j.status.Resumable = false
	j.status.State = StateQueued
	return nil
}

// enqueue pushes every unfinished task onto the server queue and counts
// it pending, so the leg settles (complete, or suspended and resumable)
// once every one has reported. Called with the server lock held.
func (j *job) enqueue() {
	for i, t := range j.tasks {
		if !j.status.Tasks[i].Done {
			j.pending++
			j.srv.q.push(t)
		}
	}
}

// executeFlow runs one leased task from plain inputs, with no job or
// server state: Worker.runAssignment is its one caller, for in-process
// and remote workers alike.
func executeFlow(sp *Spec, circuit string, shard sim.FaultRange, ctl *runctl.Control, rec obs.Observer) *taskResult {
	switch sp.Flow {
	case FlowGenerate, FlowTranslate:
		cfg := core.Config{
			Seed:           sp.seed(),
			Collapse:       !sp.NoCollapse,
			Chains:         sp.Chains,
			Workers:        sp.Workers,
			Order:          sp.order(),
			SkipBaseline:   sp.SkipBaseline,
			SkipCompaction: sp.SkipCompaction,
			Control:        ctl,
			Obs:            rec,
		}
		if sp.Flow == FlowGenerate {
			row, _, err := core.RunGenerate(circuit, cfg)
			return flowResult(row.Status, err, &taskResult{Generate: &row})
		}
		row, _, err := core.RunTranslate(circuit, cfg)
		return flowResult(row.Status, err, &taskResult{Translate: &row})
	case FlowSimulate:
		d, faults, err := simWorkload(circuit, sp)
		if err != nil {
			return &taskResult{Status: runctl.Failed, Error: err.Error()}
		}
		seq := TestSequence(d, sp.seed(), sp.seqLen())
		s := sim.NewSimulator(d.Scan, sp.Workers)
		s.Observe(rec)
		res := RunShard(s, seq, faults, shard, sim.Options{Control: ctl})
		out := &taskResult{Status: res.Status, DetectedAt: res.DetectedAt, Faults: len(faults)}
		if res.Err != nil {
			out.Error = res.Err.Error()
			out.Status = runctl.Failed
		}
		return out
	case FlowCompact:
		return executeCompact(sp, circuit, ctl, rec)
	}
	return &taskResult{Status: runctl.Failed, Error: "jobs: unknown flow " + sp.Flow}
}

// flowResult normalizes a core flow's (status, err) pair.
func flowResult(st runctl.Status, err error, res *taskResult) *taskResult {
	res.Status = st
	if err != nil {
		res.Status = runctl.Failed
		res.Error = err.Error()
	}
	return res
}

// taskFinishedLocked records one task's outcome, persists it, and
// settles the job when it was the last reporting task of the leg. A
// stopped task's partial state stays in task-<idx>.ckpt for the next
// resume leg. Called with the server lock held.
func (j *job) taskFinishedLocked(idx int, res *taskResult) {
	if res.Status.Done() {
		// A task is Done only once its result is on disk:
		// assembleResultLocked reads it back from there.
		path := j.taskResultPath(idx)
		if err := writeJSONFile(path, res); err != nil {
			res = &taskResult{Status: runctl.Failed, Error: fmt.Sprintf("persist result %s: %v", path, err)}
		}
	}
	ts := &j.status.Tasks[idx]
	ts.Status = res.Status
	ts.Error = res.Error
	ts.Done = res.Status.Done()
	j.pending--
	j.persistStatusLocked()
	if j.pending == 0 {
		j.settleLocked()
	}
}

// closeLegLocked marks the leg closed (no unclaimed task may start),
// drops the job's leases and settles at once: every pending task is
// then unclaimable (callers remove or close the queue first) or its
// dropped lease's worker learns of it at its next heartbeat. Its
// checkpoint stays for the next leg. Called with the server lock held.
func (j *job) closeLegLocked() {
	wasClosed := j.legClosed
	j.legClosed = true
	if j.status.State.Terminal() || wasClosed {
		return
	}
	j.srv.dropJobLeasesLocked(j)
	j.pending = 0
	j.settleLocked()
}

// settleLocked closes out the current leg once no task remains
// reporting.
func (j *job) settleLocked() {
	allDone, anyFailed := true, false
	firstErr := ""
	for i := range j.status.Tasks {
		ts := &j.status.Tasks[i]
		allDone = allDone && ts.Done
		if ts.Status == runctl.Failed {
			anyFailed = true
			if firstErr == "" {
				firstErr = fmt.Sprintf("task %s: %s", ts.Name, ts.Error)
			}
		}
	}
	switch {
	case anyFailed:
		j.status.State = StateFailed
		j.status.Error = firstErr
	case allDone:
		j.status.State = StateComplete
		if err := j.assembleResultLocked(); err != nil {
			j.status.State = StateFailed
			j.status.Error = "assemble result: " + err.Error()
		}
	case j.canceled:
		j.status.State = StateCanceled
		j.status.Resumable = true
	default:
		j.status.State = StateSuspended
		j.status.Resumable = true
	}
	j.status.Finished = nowRFC3339()
	j.rec.Event("job", "settled", obs.F("state", string(j.status.State)))
	j.rec.Close()
	j.eventsFile.Close()
	j.hub.close()
	j.persistStatusLocked()
	close(j.done)
}

// assembleResultLocked builds the deterministic result from the
// persisted per-task results, in spec circuit order, and writes
// result.json. Shard results merge through MergeShard into per-circuit
// detection vectors identical to an unsharded run's.
func (j *job) assembleResultLocked() error {
	sp := &j.status.Spec
	res := Result{Flow: sp.Flow}
	switch sp.Flow {
	case FlowSimulate:
		byCircuit := make(map[string]*SimResult)
		for _, name := range sp.Circuits {
			byCircuit[name] = &SimResult{Circuit: name, SeqLen: sp.seqLen()}
		}
		for i, t := range j.tasks {
			var tr taskResult
			if err := readJSONFile(j.taskResultPath(i), &tr); err != nil {
				return err
			}
			sr := byCircuit[t.circuit]
			if sr.DetectedAt == nil {
				sr.Faults = tr.Faults
				sr.DetectedAt = make([]int, tr.Faults)
			}
			MergeShard(sr.DetectedAt, t.shard, tr.DetectedAt)
		}
		for _, name := range sp.Circuits {
			sr := byCircuit[name]
			for _, at := range sr.DetectedAt {
				if at != sim.NotDetected {
					sr.Detected++
				}
			}
			res.Simulate = append(res.Simulate, *sr)
		}
	default:
		for i := range j.tasks {
			var tr taskResult
			if err := readJSONFile(j.taskResultPath(i), &tr); err != nil {
				return err
			}
			if tr.Generate != nil {
				res.Generate = append(res.Generate, *tr.Generate)
			}
			if tr.Translate != nil {
				res.Translate = append(res.Translate, *tr.Translate)
			}
			if tr.Compact != nil {
				res.Compact = append(res.Compact, *tr.Compact)
			}
		}
	}
	return writeJSONFile(j.resultPath(), &res)
}

// persistStatusLocked writes job.json atomically (temp + rename), so a
// crash mid-write can never leave a torn record for startup to choke
// on.
func (j *job) persistStatusLocked() {
	writeJSONFile(j.statusPath(), &j.status)
}

// reopen clears a hub's closed mark for a resume leg.
func (h *hub) reopen() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = false
}

// writeJSONFile writes v as indented JSON via writeFileAtomic.
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}

// writeFileAtomic writes data via temp-file-plus-rename, removing the
// temp file when either step fails.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	err := os.WriteFile(tmp, data, 0o644)
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// readJSONFile decodes one JSON file into v.
func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}
