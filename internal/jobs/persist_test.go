package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/runctl"
)

// TestTaskResultWriteFailureFailsTask: a task whose result file cannot
// be persisted must not be recorded Done — result assembly reads it
// back from disk — so the task and the job end Failed
// with an error naming the path. A non-empty directory squatting on
// task-0.result.json makes the final rename fail.
func TestTaskResultWriteFailureFailsTask(t *testing.T) {
	s, c := testServer(t, Options{Workers: 1})
	var resultPath string
	s.testTaskStart = func(tk *task) {
		resultPath = tk.job.taskResultPath(tk.idx)
		if err := os.MkdirAll(filepath.Join(resultPath, "occupied"), 0o755); err != nil {
			t.Error(err)
		}
	}
	ctx := context.Background()
	st, err := c.Submit(ctx, Spec{Flow: FlowSimulate, Circuits: []string{"s27"}, SeqLen: 16})
	if err != nil {
		t.Fatal(err)
	}
	st = waitTerminal(t, c, st.ID)
	if st.State != StateFailed {
		t.Fatalf("job settled %s, want failed", st.State)
	}
	ts := st.Tasks[0]
	if ts.Done || ts.Status != runctl.Failed {
		t.Fatalf("task done=%v status=%v, want not done and failed", ts.Done, ts.Status)
	}
	if !strings.Contains(ts.Error, resultPath) || !strings.Contains(st.Error, resultPath) {
		t.Fatalf("task error %q / job error %q do not name %s", ts.Error, st.Error, resultPath)
	}
}

// TestCheckpointWriteFailureFailsTask: when the server cannot persist a
// finished task's uploaded checkpoint, the task must end Failed with an
// error naming the path — not vanish with its lease, leaving the job
// running forever. A non-empty directory squatting on task-0.ckpt makes
// the rename fail; the temp file must not be left behind.
func TestCheckpointWriteFailureFailsTask(t *testing.T) {
	s, c := testServer(t, Options{Workers: -1})
	ctx := context.Background()
	st, err := c.Submit(ctx, Spec{Flow: FlowCompact, Circuits: []string{"s27"}, Seed: 5, SeqLen: 48})
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(s.dataDir, st.ID, "task-0.ckpt")
	if err := os.MkdirAll(filepath.Join(ckpt, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerOptions{
		Server: c.Base, Name: "w1", DataDir: t.TempDir(),
		Poll: 10 * time.Millisecond, HTTP: c.HTTP, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() { defer close(done); w.Run(wctx) }()
	defer func() { cancel(); <-done }()

	settled := make(chan error, 1)
	go func() { settled <- s.Wait(st.ID) }()
	select {
	case <-settled:
	case <-time.After(60 * time.Second):
		t.Fatal("job never settled: the task was stranded")
	}
	final, err := s.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed {
		t.Fatalf("job settled %s, want failed", final.State)
	}
	ts := final.Tasks[0]
	if ts.Done || ts.Status != runctl.Failed {
		t.Fatalf("task done=%v status=%v, want not done and failed", ts.Done, ts.Status)
	}
	if !strings.Contains(ts.Error, ckpt) || !strings.Contains(final.Error, ckpt) {
		t.Fatalf("task error %q / job error %q do not name %s", ts.Error, final.Error, ckpt)
	}
	if _, err := os.Stat(ckpt + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("%s.tmp left behind (stat err %v)", ckpt, err)
	}
}

// TestRetiredEngineFieldReloads: a job record written before the
// compaction-engine knob was retired carries "engine":"scratch" in its
// spec. A server over that data dir still reloads the job as suspended
// and resumable, and the resumed job's result bytes equal a fresh job's
// (every engine produced the same output, so dropping the field changes
// nothing).
func TestRetiredEngineFieldReloads(t *testing.T) {
	spec := Spec{Flow: FlowCompact, Circuits: []string{"s27"}, Seed: 4, SeqLen: 48, OmitShards: 2}

	_, ref := testServer(t, Options{Workers: 1})
	want := completeJob(t, ref, spec)

	// Let a server persist the queued job, holding its worker so the
	// record is the one written at submit time.
	s1, _ := testServer(t, Options{Workers: 1})
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	s1.testTaskStart = func(*task) { <-release }
	st, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(s1.dataDir, st.ID, "job.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	rec["state"] = string(StateRunning)
	rec["spec"].(map[string]any)["engine"] = "scratch"
	data, err = json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dataDir, st.ID), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dataDir, st.ID, "job.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, c := testServer(t, Options{DataDir: dataDir, Workers: 1})
	ctx := context.Background()
	loaded, err := c.Get(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.State != StateSuspended || !loaded.Resumable {
		t.Fatalf("reloaded job %s resumable=%v, want suspended+resumable", loaded.State, loaded.Resumable)
	}
	if _, err := c.Resume(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, c, st.ID)
	if final.State != StateComplete {
		t.Fatalf("resumed job settled %s (error %q), want complete", final.State, final.Error)
	}
	got, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs from a fresh job's:\n--- resumed ---\n%s\n--- fresh ---\n%s", got, want)
	}
}

// TestChainRecordReloads: job records written when a compact circuit
// ran as a restore task followed by chained omission chunks (tasks
// s27/restore, s27/omit-0, s27/omit-1) still load. A suspended one
// comes back not resumable, with the task-count mismatch in the log:
// its task-N.ckpt files are indexed by the old task list, so resuming
// it would hand chunk checkpoints to the wrong tasks. A completed one
// still serves its stored result bytes.
func TestChainRecordReloads(t *testing.T) {
	spec := Spec{Flow: FlowCompact, Circuits: []string{"s27"}, Seed: 4, SeqLen: 48, OmitShards: 2}
	_, ref := testServer(t, Options{Workers: 1})
	result := completeJob(t, ref, spec)

	dataDir := t.TempDir()
	chain := func(id string, state State, done bool) {
		t.Helper()
		dir := filepath.Join(dataDir, id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		st := Status{ID: id, Spec: spec, State: state, Resumable: !done,
			Tasks: []TaskStatus{{Name: "s27/restore", Started: true, Done: true}}}
		for _, name := range []string{"s27/omit-0", "s27/omit-1"} {
			st.Tasks = append(st.Tasks, TaskStatus{Name: name, Started: done, Done: done})
		}
		if err := writeJSONFile(filepath.Join(dir, "job.json"), &st); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "task-1.ckpt"), []byte("chunk checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
		if done {
			if err := os.WriteFile(filepath.Join(dir, "result.json"), result, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	chain("job-0001", StateSuspended, false)
	chain("job-0002", StateComplete, true)

	var mu sync.Mutex
	var logged []string
	s, err := NewServer(Options{DataDir: dataDir, Workers: -1, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Drain)

	st, err := s.Get("job-0001")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateSuspended || st.Resumable {
		t.Fatalf("old suspended chain job reloaded %s resumable=%v, want suspended and not resumable", st.State, st.Resumable)
	}
	if _, err := s.Resume("job-0001"); !errors.Is(err, ErrNotResumable) {
		t.Fatalf("resume of an old chain job = %v, want ErrNotResumable", err)
	}
	mu.Lock()
	log := strings.Join(logged, "\n")
	mu.Unlock()
	if want := "job-0001 is not resumable: spec expands to 1 tasks, record has 3"; !strings.Contains(log, want) {
		t.Fatalf("server log lacks %q:\n%s", want, log)
	}

	got, err := s.Result("job-0002")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, result) {
		t.Fatalf("old chain job's result bytes changed on reload:\n%s\nwant\n%s", got, result)
	}
}
