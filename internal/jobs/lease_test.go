package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/runctl"
)

// TestServerCompactFlow: a compact job runs one task per circuit and
// completes with per-circuit restoration and omission results; the
// retired omit_shards field and a second worker change neither the task
// list nor the result bytes.
func TestServerCompactFlow(t *testing.T) {
	spec := Spec{Flow: FlowCompact, Circuits: []string{"s27"}, Seed: 5, SeqLen: 96}

	_, single := testServer(t, Options{Workers: 1})
	unsharded := completeJob(t, single, spec)

	var res Result
	if err := json.Unmarshal(unsharded, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Compact) != 1 || res.Compact[0].Circuit != "s27" {
		t.Fatalf("compact results = %+v", res.Compact)
	}
	cr := res.Compact[0]
	if cr.CompactedLen <= 0 || cr.CompactedLen > cr.RestoredLen || cr.RestoredLen > cr.SeqLen {
		t.Fatalf("compaction lengths out of order: %+v", cr)
	}
	if len(cr.Kept) != cr.SeqLen {
		t.Fatalf("kept mask length %d, want %d", len(cr.Kept), cr.SeqLen)
	}
	kept := 0
	for i := 0; i < len(cr.Kept); i++ {
		if cr.Kept[i] == '1' {
			kept++
		}
	}
	if kept != cr.CompactedLen {
		t.Fatalf("kept mask keeps %d vectors, result says %d", kept, cr.CompactedLen)
	}

	sharded := spec
	sharded.Circuits = []string{"s27", "s298"}
	sharded.OmitShards = 3
	_, multi := testServer(t, Options{Workers: 2})
	st, err := multi.Submit(context.Background(), sharded)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tasks) != 2 || st.Tasks[0].Name != "s27" || st.Tasks[1].Name != "s298" {
		t.Fatalf("compact job tasks = %+v, want one per circuit", st.Tasks)
	}
	if final := waitTerminal(t, multi, st.ID); final.State != StateComplete {
		t.Fatalf("job settled %s (error %q)", final.State, final.Error)
	}
	got, err := multi.Result(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var both Result
	if err := json.Unmarshal(got, &both); err != nil {
		t.Fatal(err)
	}
	if len(both.Compact) != 2 || both.Compact[0] != cr || both.Compact[1].Circuit != "s298" {
		t.Fatalf("two-circuit compact results = %+v, want the s27 row %+v first", both.Compact, cr)
	}
}

// TestWorkerClaimProtocol: a server with no local workers is drained
// entirely by a remote Worker over HTTP, producing result bytes
// identical to a local single-worker server.
func TestWorkerClaimProtocol(t *testing.T) {
	spec := Spec{Flow: FlowGenerate, Circuits: []string{"s27"}, Seed: 3}

	_, local := testServer(t, Options{Workers: 1})
	want := completeJob(t, local, spec)

	s, c := testServer(t, Options{Workers: -1})
	if n := s.Workers(); n != 0 {
		t.Fatalf("remote-only server has %d local workers", n)
	}
	st, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerOptions{
		Server:  c.Base,
		Name:    "w1",
		DataDir: t.TempDir(),
		Poll:    10 * time.Millisecond,
		HTTP:    c.HTTP,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()

	final := waitTerminal(t, c, st.ID)
	cancel()
	<-done
	if final.State != StateComplete {
		t.Fatalf("job settled %s (error %q)", final.State, final.Error)
	}
	got, err := c.Result(context.Background(), st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("remote-worker result differs from local:\n--- remote ---\n%s\n--- local ---\n%s", got, want)
	}
}

// TestLeaseLifecycle drives the claim API directly: a claim shows up in
// the workers view, heartbeats renew it, completion consumes it, and
// every later touch of the token gets ErrLeaseGone (HTTP 410 over the
// wire).
func TestLeaseLifecycle(t *testing.T) {
	_, c := testServer(t, Options{Workers: -1})
	ctx := context.Background()
	if _, err := c.Submit(ctx, Spec{Flow: FlowGenerate, Circuits: []string{"s27"}, Seed: 3}); err != nil {
		t.Fatal(err)
	}

	a, err := c.Claim(ctx, "manual")
	if err != nil {
		t.Fatal(err)
	}
	if a == nil || a.Name != "s27" || a.TTLMS <= 0 {
		t.Fatalf("claim = %+v", a)
	}
	workers, err := c.Workers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(workers) != 1 || workers[0].Worker != "manual" || workers[0].Lease != a.Lease {
		t.Fatalf("workers view = %+v", workers)
	}
	if _, err := c.Heartbeat(ctx, a.Lease, []byte(`{"probe":1}`)); err != nil {
		t.Fatal(err)
	}
	// Nothing else is claimable while the only task is leased.
	if extra, err := c.Claim(ctx, "manual2"); err != nil || extra != nil {
		t.Fatalf("second claim = %+v, %v", extra, err)
	}

	// Run the task for real and upload the result.
	w, err := newWorker(WorkerOptions{Name: "manual", DataDir: t.TempDir(), Logf: t.Logf}, c)
	if err != nil {
		t.Fatal(err)
	}
	w.runAssignment(ctx, a)
	if final := waitTerminal(t, c, a.Job); final.State != StateComplete {
		t.Fatalf("job settled %s (error %q)", final.State, final.Error)
	}
	res := &taskResult{Status: runctl.Complete}
	if _, err := c.Heartbeat(ctx, a.Lease, nil); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("heartbeat after completion = %v, want ErrLeaseGone", err)
	}
	if err := c.ReleaseClaim(ctx, a.Lease, nil); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("release after completion = %v, want ErrLeaseGone", err)
	}
	if err := c.CompleteClaim(ctx, a.Lease, res, nil); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("double completion = %v, want ErrLeaseGone", err)
	}
}

// crashTransport is a worker transport that dies at the end of its
// run: the final checkpoint still reaches the server as a last
// heartbeat, but the result upload is lost.
type crashTransport struct{ *Client }

func (c crashTransport) CompleteClaim(ctx context.Context, token string, _ *taskResult, ckpt []byte) error {
	_, err := c.Heartbeat(ctx, token, ckpt)
	return err
}

// TestLeaseReclaimCrashResume is the acceptance scenario: a worker
// claims a compact task, checkpoints partway through omission via
// heartbeat, then dies without releasing. The janitor reclaims the
// expired lease, a healthy worker resumes the task from the uploaded
// checkpoint, and the job's final result bytes are identical to an
// uninterrupted single-process run.
func TestLeaseReclaimCrashResume(t *testing.T) {
	spec := Spec{Flow: FlowCompact, Circuits: []string{"s27"}, Seed: 5, SeqLen: 96}

	_, single := testServer(t, Options{Workers: 1})
	want := completeJob(t, single, spec)
	var ref Result
	if err := json.Unmarshal(want, &ref); err != nil {
		t.Fatal(err)
	}

	s, c := testServer(t, Options{Workers: -1, LeaseTTL: time.Minute})
	ctx := context.Background()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: claim the circuit's one task, stop it in omission's
	// second window (restoration polls once per target fault, omission
	// once per window), heartbeat the partial checkpoint — then crash:
	// no result, no release, no further heartbeats.
	a, err := c.Claim(ctx, "crashy")
	if err != nil || a == nil {
		t.Fatalf("claim: %+v, %v", a, err)
	}
	if a.Name != "s27" || a.Resume {
		t.Fatalf("claim = %q resume=%v, want the fresh s27 task", a.Name, a.Resume)
	}
	a.StopAfterPolls = int64(ref.Compact[0].TargetFaults + 2)
	crashing, err := newWorker(WorkerOptions{Name: "crashy", DataDir: t.TempDir(), Logf: t.Logf}, crashTransport{c})
	if err != nil {
		t.Fatal(err)
	}
	crashing.runAssignment(ctx, a)
	ckpt, err := os.ReadFile(filepath.Join(s.dataDir, st.ID, "task-0.ckpt"))
	if err != nil || !bytes.Contains(ckpt, []byte(`"omit"`)) {
		t.Fatalf("crashed task left no omission checkpoint (err %v):\n%s", err, ckpt)
	}

	// The janitor reclaims the dead worker's lease once it expires;
	// jump the server's clock past the TTL instead of waiting a minute.
	s.mu.Lock()
	s.testNow = func() time.Time { return time.Now().Add(2 * time.Minute) }
	s.mu.Unlock()
	s.reclaimExpired()
	if workers, err := c.Workers(ctx); err != nil || len(workers) != 0 {
		t.Fatalf("leases after reclaim = %+v, %v", workers, err)
	}
	// Late work from the dead worker is refused.
	if _, err := c.Heartbeat(ctx, a.Lease, nil); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("heartbeat after reclaim = %v, want ErrLeaseGone", err)
	}
	if err := c.CompleteClaim(ctx, a.Lease, &taskResult{Status: runctl.Complete}, nil); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("upload after reclaim = %v, want ErrLeaseGone", err)
	}
	s.mu.Lock()
	s.testNow = time.Now
	s.mu.Unlock()

	// Phase 2: a healthy worker drains the rest — the reclaimed task
	// resumes from the heartbeated checkpoint.
	w, err := NewWorker(WorkerOptions{
		Server: c.Base, Name: "healthy", DataDir: t.TempDir(),
		Poll: 10 * time.Millisecond, HTTP: c.HTTP, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); w.Run(wctx) }()
	final := waitTerminal(t, c, st.ID)
	cancel()
	<-done
	if final.State != StateComplete {
		t.Fatalf("job settled %s (error %q)", final.State, final.Error)
	}

	got, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-crash result differs from uninterrupted run:\n--- crashed ---\n%s\n--- reference ---\n%s", got, want)
	}

	// The event stream records the reclaim.
	body, err := c.Events(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	events, err := io.ReadAll(body)
	body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(events, []byte("task_reclaimed")) {
		t.Fatalf("event stream lacks task_reclaimed:\n%s", events)
	}
}

// TestWorkerGracefulRelease: canceling a Worker mid-task releases the
// lease with a checkpoint instead of finishing it, and the task stays
// claimable for the next worker.
func TestWorkerGracefulRelease(t *testing.T) {
	s, c := testServer(t, Options{Workers: -1})
	ctx := context.Background()
	st, err := c.Submit(ctx, Spec{Flow: FlowCompact, Circuits: []string{"s27"}, Seed: 5, SeqLen: 96})
	if err != nil {
		t.Fatal(err)
	}

	// A worker canceled mid-task: the engine stops at its next poll and
	// the assignment is released with a checkpoint, not completed.
	w, err := NewWorker(WorkerOptions{
		Server: c.Base, Name: "leaving", DataDir: t.TempDir(),
		HTTP: c.HTTP, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.Claim(ctx, "leaving")
	if err != nil || a == nil {
		t.Fatalf("claim = %+v, %v", a, err)
	}
	wctx, cancel := context.WithCancel(ctx)
	cancel()
	w.runAssignment(wctx, a)
	if workers, _ := c.Workers(ctx); len(workers) != 0 {
		t.Fatalf("lease still live after release: %+v", workers)
	}
	after, err := c.Get(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Tasks[0].Started || after.Tasks[0].Done {
		t.Fatalf("released task = %+v, want unclaimed and unfinished", after.Tasks[0])
	}
	_ = s

	// A healthy worker picks the released task up and the job completes.
	w2, err := NewWorker(WorkerOptions{
		Server: c.Base, Name: "finishing", DataDir: t.TempDir(),
		Poll: 10 * time.Millisecond, HTTP: c.HTTP, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	w2ctx, cancel2 := context.WithCancel(ctx)
	defer cancel2()
	done := make(chan struct{})
	go func() { defer close(done); w2.Run(w2ctx) }()
	final := waitTerminal(t, c, st.ID)
	cancel2()
	<-done
	if final.State != StateComplete {
		t.Fatalf("job settled %s (error %q)", final.State, final.Error)
	}
}
