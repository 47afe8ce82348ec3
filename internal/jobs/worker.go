package jobs

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/sim"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Server is the scand base URL, e.g. "http://10.0.0.5:8080".
	Server string
	// Name identifies the worker in leases, events and `scanctl top`.
	Name string
	// DataDir holds the worker's local checkpoint scratch files.
	DataDir string
	// Poll is the idle claim interval (0: 250ms).
	Poll time.Duration
	// HTTP overrides the HTTP client (tests).
	HTTP *http.Client
	// Logf, when set, receives the worker's progress log.
	Logf func(format string, args ...any)
}

// Worker is the claim side of the lease protocol and the only place a
// task runs: the engine behind cmd/scanworker and behind each of the
// server's in-process workers. It claims a lease, runs the task through
// executeFlow, heartbeats the lease with its current checkpoint bytes
// so a crash loses no more than one heartbeat interval of work, and
// uploads the result. On ErrLeaseGone (reclaimed, or the job was
// canceled or drained) it abandons the task; on shutdown it checkpoints
// and releases the task back to the queue.
type Worker struct {
	opts WorkerOptions
	tr   leaseTransport
	logf func(string, ...any)
	// observe, when set, supplies the observer a leased task's flow
	// events go to: the job's recorder for in-process workers. Remote
	// workers run unobserved.
	observe func(*Assignment) obs.Observer
}

// NewWorker builds a Worker that claims from a scand server over HTTP.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Server == "" {
		return nil, errors.New("jobs: WorkerOptions.Server is required")
	}
	return newWorker(opts, &Client{Base: opts.Server, HTTP: opts.HTTP})
}

// newWorker builds a Worker over any lease transport.
func newWorker(opts WorkerOptions, tr leaseTransport) (*Worker, error) {
	if opts.Name == "" {
		return nil, errors.New("jobs: WorkerOptions.Name is required")
	}
	if opts.DataDir == "" {
		return nil, errors.New("jobs: WorkerOptions.DataDir is required")
	}
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, err
	}
	if opts.Poll <= 0 {
		opts.Poll = 250 * time.Millisecond
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Worker{opts: opts, tr: tr, logf: logf}, nil
}

// Run claims and executes tasks until ctx is canceled. A task in flight
// at cancellation checkpoints, releases its lease and returns to the
// queue; Run then returns nil.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return nil
		}
		a, err := w.tr.Claim(ctx, w.opts.Name)
		switch {
		case err != nil:
			// Draining server, network blip: back off and retry.
			w.logf("claim: %v", err)
			if !sleepCtx(ctx, w.opts.Poll) {
				return nil
			}
		case a == nil:
			if !sleepCtx(ctx, w.opts.Poll) {
				return nil
			}
		default:
			w.runAssignment(ctx, a)
		}
	}
}

func (w *Worker) ckptPath(a *Assignment) string {
	return filepath.Join(w.opts.DataDir, fmt.Sprintf("%s-task-%d.ckpt", a.Job, a.Task))
}

// runAssignment executes one leased task end to end.
func (w *Worker) runAssignment(ctx context.Context, a *Assignment) {
	w.logf("claimed %s %s (lease %s)", a.Job, a.Name, a.Lease)
	path := w.ckptPath(a)
	defer os.Remove(path)
	os.Remove(path)
	if len(a.Checkpoint) > 0 {
		if err := writeFileAtomic(path, a.Checkpoint); err != nil {
			w.logf("seed checkpoint: %v", err)
			w.tr.ReleaseClaim(context.Background(), a.Lease, nil)
			return
		}
	}

	// The task context: canceled by worker shutdown, by lease loss, or
	// by the job's remaining wall-clock budget.
	taskCtx, cancel := context.WithCancel(ctx)
	if a.TimeoutMS > 0 {
		cancel()
		taskCtx, cancel = context.WithTimeout(ctx, time.Duration(a.TimeoutMS)*time.Millisecond)
	}
	defer cancel()

	// Heartbeat until the task finishes, uploading the current
	// checkpoint so the server can reclaim mid-task progress. A 410
	// means the lease was reclaimed: stop working, the task is someone
	// else's now.
	var gone bool
	var mu sync.Mutex
	hbStop := make(chan struct{})
	var hbDone sync.WaitGroup
	hbDone.Add(1)
	go func() {
		defer hbDone.Done()
		interval := time.Duration(a.TTLMS) * time.Millisecond / 3
		if interval <= 0 {
			interval = time.Second
		}
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-ticker.C:
				ckpt, _ := os.ReadFile(path)
				if _, err := w.tr.Heartbeat(context.Background(), a.Lease, ckpt); err != nil {
					if errors.Is(err, ErrLeaseGone) {
						mu.Lock()
						gone = true
						mu.Unlock()
						cancel()
						return
					}
					w.logf("heartbeat: %v", err)
				}
			}
		}
	}()

	ctl := &runctl.Control{
		Budget: runctl.Budget{
			Ctx:            taskCtx,
			MaxAttempts:    a.Spec.MaxAttempts,
			MaxTrials:      a.Spec.MaxTrials,
			StopAfterPolls: a.StopAfterPolls,
		},
		Store:     runctl.NewFileStore(path),
		Resume:    a.Resume,
		SaveEvery: 8,
	}
	var rec obs.Observer
	if w.observe != nil {
		rec = w.observe(a)
	}
	res := executeFlow(&a.Spec, a.Circuit,
		sim.FaultRange{Start: a.ShardStart, End: a.ShardEnd}, ctl, rec)
	close(hbStop)
	hbDone.Wait()

	mu.Lock()
	abandoned := gone
	mu.Unlock()
	if abandoned {
		w.logf("lease %s gone (reclaimed, canceled or drained); abandoning %s %s", a.Lease, a.Job, a.Name)
		return
	}
	ckpt, _ := os.ReadFile(path)
	if ctx.Err() != nil && res.Status.Stopped() {
		// Shutdown: hand the task back with its checkpoint so another
		// worker continues instead of the job suspending.
		if err := w.tr.ReleaseClaim(context.Background(), a.Lease, ckpt); err != nil && !errors.Is(err, ErrLeaseGone) {
			w.logf("release: %v", err)
		}
		w.logf("released %s %s", a.Job, a.Name)
		return
	}
	if err := w.tr.CompleteClaim(context.Background(), a.Lease, res, ckpt); err != nil {
		if errors.Is(err, ErrLeaseGone) {
			w.logf("lease %s gone at upload; result discarded", a.Lease)
			return
		}
		w.logf("result upload: %v", err)
		return
	}
	w.logf("finished %s %s: %s", a.Job, a.Name, res.Status)
}

// sleepCtx sleeps d or until ctx cancels, reporting false on cancel.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
