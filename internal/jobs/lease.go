package jobs

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runctl"
)

// The worker-claim protocol is the only way a task runs: the server's
// in-process workers speak it by direct calls (localTransport), and
// scanworker processes on other machines speak it over HTTP (*Client).
// A claim leases one task under a TTL; the worker heartbeats to renew,
// uploading its current checkpoint bytes so the server always holds the
// task's latest resumable state. A worker that stops heartbeating —
// crashed, killed, partitioned — loses the lease to the janitor, which
// re-queues the task marked retried: the next claimant (local or
// remote) resumes from the uploaded checkpoint, and because every
// engine's resume is bit-identical, the job's final result is
// byte-identical to one computed without the crash. Late uploads under
// a reclaimed lease get ErrLeaseGone (HTTP 410) and are discarded, so a
// slow-but-alive worker can never double-report a task.

// lease is one claimed task's server-side record.
type lease struct {
	token   string
	worker  string
	t       *task
	expires time.Time
	// gone is set the moment the lease ends (completed, released,
	// reclaimed or dropped by cancel/drain). leaseObserver holds goneMu
	// across each forwarded event, so once gone is set no event of the
	// run can still reach the job's recorder.
	goneMu sync.Mutex
	gone   bool
}

// leaseTransport is the worker's side of the lease protocol. *Client
// implements it over HTTP; localTransport by direct calls on a Server.
type leaseTransport interface {
	Claim(ctx context.Context, worker string) (*Assignment, error)
	Heartbeat(ctx context.Context, token string, ckpt []byte) (time.Duration, error)
	CompleteClaim(ctx context.Context, token string, res *taskResult, ckpt []byte) error
	ReleaseClaim(ctx context.Context, token string, ckpt []byte) error
}

// localTransport is the lease protocol of the in-process workers
// NewServer starts. Its claim blocks on the queue instead of polling,
// so an in-process task starts the moment it is enqueued.
type localTransport struct{ s *Server }

func (l localTransport) Claim(_ context.Context, worker string) (*Assignment, error) {
	return l.s.claim(worker, l.s.q.pop)
}

func (l localTransport) Heartbeat(_ context.Context, token string, ckpt []byte) (time.Duration, error) {
	return l.s.HeartbeatLease(token, ckpt)
}

func (l localTransport) CompleteClaim(_ context.Context, token string, res *taskResult, ckpt []byte) error {
	return l.s.CompleteLease(token, res, ckpt)
}

func (l localTransport) ReleaseClaim(_ context.Context, token string, ckpt []byte) error {
	return l.s.ReleaseLease(token, ckpt)
}

// leaseObserver feeds an in-process task's flow events into its job's
// recorder for as long as the lease lives, so a run abandoned by a
// cancel cannot write into a later leg's stream.
type leaseObserver struct {
	obs.Observer
	l *lease
}

func (o leaseObserver) Event(phase, name string, fields ...obs.Field) {
	o.l.goneMu.Lock()
	defer o.l.goneMu.Unlock()
	if !o.l.gone {
		o.Observer.Event(phase, name, fields...)
	}
}

// observeLease returns the observer an in-process worker runs a leased
// task under (nil when the lease is already gone).
func (s *Server) observeLease(a *Assignment) obs.Observer {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.leases[a.Lease]
	if !ok {
		return nil
	}
	return leaseObserver{Observer: l.t.job.rec, l: l}
}

// claimRequest is the claim endpoint's body.
type claimRequest struct {
	Worker string `json:"worker"`
}

// leaseUpdate is the heartbeat/release body: optional checkpoint bytes
// (JSON base64) persisted to the task's server-side store.
type leaseUpdate struct {
	Checkpoint []byte `json:"checkpoint,omitempty"`
}

// resultUpload is the result endpoint's body.
type resultUpload struct {
	Result     *taskResult `json:"result"`
	Checkpoint []byte      `json:"checkpoint,omitempty"`
}

// Assignment is a leased task's self-contained work order: everything a
// worker with no access to the server's data directory needs to run the
// task and nothing else. Checkpoint carries the task's current
// server-side store: its interrupted, released or reclaimed state.
type Assignment struct {
	Lease string `json:"lease"`
	TTLMS int64  `json:"ttl_ms"`
	Job   string `json:"job"`
	Task  int    `json:"task"`
	Name  string `json:"name"`
	Spec  Spec   `json:"spec"`

	Circuit    string `json:"circuit"`
	ShardStart int    `json:"shard_start,omitempty"`
	ShardEnd   int    `json:"shard_end,omitempty"`

	Checkpoint []byte `json:"checkpoint,omitempty"`
	Resume     bool   `json:"resume"`
	// StopAfterPolls/TimeoutMS are the task-effective budget values the
	// server would have applied locally (initial-leg interrupt hook;
	// remaining job wall clock).
	StopAfterPolls int64 `json:"stop_after_polls,omitempty"`
	TimeoutMS      int64 `json:"timeout_ms,omitempty"`
}

// ClaimTask leases the next claimable task to worker. A nil Assignment
// (and nil error) means the queue has nothing claimable right now.
func (s *Server) ClaimTask(worker string) (*Assignment, error) {
	return s.claim(worker, s.q.tryPop)
}

// claim pops tasks with pop until one can be leased to worker. A nil
// Assignment (and nil error) means pop found nothing.
func (s *Server) claim(worker string, pop func() (*task, bool)) (*Assignment, error) {
	if worker == "" {
		return nil, &SpecError{Field: "worker", Reason: "empty worker name"}
	}
	for {
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			return nil, ErrDraining
		}
		s.mu.Unlock()
		t, ok := pop()
		if !ok {
			return nil, nil
		}
		if hook := s.testTaskStart; hook != nil {
			hook(t)
		}
		if a, live := s.leaseTask(worker, t); live {
			return a, nil
		}
		// The claimed task belonged to a closed or finished leg, or the
		// server began draining; its quota slot was returned — keep
		// scanning.
	}
}

// leaseTask registers a lease for a popped task and builds its
// Assignment. It reports false (releasing the quota slot) when the task
// is no longer runnable.
func (s *Server) leaseTask(worker string, t *task) (*Assignment, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := t.job
	tenant := j.status.Spec.Tenant
	ts := &j.status.Tasks[t.idx]
	if ts.Done || j.legClosed || s.draining {
		s.q.release(tenant)
		return nil, false
	}
	a := &Assignment{
		TTLMS:      s.leaseTTL.Milliseconds(),
		Job:        j.status.ID,
		Task:       t.idx,
		Name:       ts.Name,
		Spec:       j.status.clone().Spec,
		Circuit:    t.circuit,
		ShardStart: t.shard.Start,
		ShardEnd:   t.shard.End,
		Resume:     j.resumeLeg || t.retried,
	}
	if !a.Resume {
		a.StopAfterPolls = j.status.Spec.StopAfterPolls
	}
	if !j.deadline.IsZero() {
		ms := time.Until(j.deadline).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		a.TimeoutMS = ms
	}
	if data, err := os.ReadFile(j.ckptPath(t.idx)); err == nil {
		a.Checkpoint = data
	}
	ts.Started = true
	if j.status.State == StateQueued {
		j.status.State = StateRunning
	}
	s.leaseSeq++
	a.Lease = fmt.Sprintf("lease-%06d", s.leaseSeq)
	s.leases[a.Lease] = &lease{
		token:   a.Lease,
		worker:  worker,
		t:       t,
		expires: s.testNow().Add(s.leaseTTL),
	}
	j.persistStatusLocked()
	j.rec.Event("job", "task_claimed",
		obs.F("task", ts.Name), obs.F("worker", worker), obs.F("lease", a.Lease))
	return a, true
}

// HeartbeatLease renews a lease and persists the worker's uploaded
// checkpoint bytes, returning the TTL the worker should heartbeat
// within. ErrLeaseGone tells the worker the task was reclaimed.
func (s *Server) HeartbeatLease(token string, ckpt []byte) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.leases[token]
	if !ok {
		return 0, ErrLeaseGone
	}
	l.expires = s.testNow().Add(s.leaseTTL)
	if len(ckpt) > 0 {
		if err := writeFileAtomic(l.t.job.ckptPath(l.t.idx), ckpt); err != nil {
			return 0, err
		}
	}
	return s.leaseTTL, nil
}

// CompleteLease accepts a leased task's final result and final
// checkpoint bytes and finishes the task. A checkpoint that cannot be
// persisted fails the task: a stopped task would otherwise resume from
// a stale store.
func (s *Server) CompleteLease(token string, res *taskResult, ckpt []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, err := s.endLeaseLocked(token)
	if err != nil {
		return err
	}
	j := l.t.job
	if err = l.persistCheckpoint(ckpt); err != nil {
		res = &taskResult{Status: runctl.Failed, Error: err.Error()}
	}
	j.rec.Event("job", "task_done",
		obs.F("task", j.status.Tasks[l.t.idx].Name),
		obs.F("status", res.Status.String()), obs.F("worker", l.worker))
	j.taskFinishedLocked(l.t.idx, res)
	return err
}

// ReleaseLease hands a leased task back (graceful worker shutdown): the
// uploaded checkpoint is persisted and the task re-queued as retried,
// so the next claimant resumes where this worker stopped. A checkpoint
// that cannot be persisted fails the task instead, as in CompleteLease.
func (s *Server) ReleaseLease(token string, ckpt []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, err := s.endLeaseLocked(token)
	if err != nil {
		return err
	}
	if err = l.persistCheckpoint(ckpt); err != nil {
		l.t.job.taskFinishedLocked(l.t.idx, &taskResult{Status: runctl.Failed, Error: err.Error()})
	} else {
		s.requeueLocked(l, "task_released")
	}
	return err
}

// endLeaseLocked removes a live lease, marks it gone and returns its
// tenant's quota slot. Called with the server lock held.
func (s *Server) endLeaseLocked(token string) (*lease, error) {
	l, ok := s.leases[token]
	if !ok {
		return nil, ErrLeaseGone
	}
	delete(s.leases, token)
	l.goneMu.Lock()
	l.gone = true
	l.goneMu.Unlock()
	s.q.release(l.t.job.status.Spec.Tenant)
	return l, nil
}

// persistCheckpoint writes uploaded checkpoint bytes (none: no-op) to
// the task's store, naming the path on failure.
func (l *lease) persistCheckpoint(ckpt []byte) error {
	if len(ckpt) == 0 {
		return nil
	}
	path := l.t.job.ckptPath(l.t.idx)
	if err := writeFileAtomic(path, ckpt); err != nil {
		return fmt.Errorf("persist checkpoint %s: %w", path, err)
	}
	return nil
}

// requeueLocked returns a dropped lease's task to the queue as retried.
// Called with the server lock held, after the lease is deleted.
func (s *Server) requeueLocked(l *lease, event string) {
	t := l.t
	j := t.job
	ts := &j.status.Tasks[t.idx]
	ts.Started = false
	t.retried = true
	j.rec.Event("job", event,
		obs.F("task", ts.Name), obs.F("worker", l.worker), obs.F("lease", l.token))
	j.persistStatusLocked()
	if !j.legClosed && !ts.Done {
		s.q.push(t)
	}
}

// dropJobLeasesLocked discards every lease of one job (cancel/drain
// closing the leg). Its workers get ErrLeaseGone at their next
// heartbeat and abandon the run. Called with the server lock held.
func (s *Server) dropJobLeasesLocked(j *job) {
	for token, l := range s.leases {
		if l.t.job == j {
			s.endLeaseLocked(token)
		}
	}
}

// janitor reclaims expired leases until Drain stops it.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	tick := s.leaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-ticker.C:
			s.reclaimExpired()
		}
	}
}

// reclaimExpired re-queues every task whose lease ran out of heartbeat.
func (s *Server) reclaimExpired() {
	now := s.testNow()
	s.mu.Lock()
	defer s.mu.Unlock()
	for token, l := range s.leases {
		if !l.expires.After(now) {
			s.endLeaseLocked(token)
			s.requeueLocked(l, "task_reclaimed")
		}
	}
}

// WorkerInfo is one live lease in the fleet view.
type WorkerInfo struct {
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
	Job    string `json:"job"`
	Task   string `json:"task"`
	// ExpiresMS is how long until the lease is reclaimed without a
	// heartbeat.
	ExpiresMS int64 `json:"expires_ms"`
}

// WorkersView lists the live leases, newest last — the fleet half of
// `scanctl top`.
func (s *Server) WorkersView() []WorkerInfo {
	now := s.testNow()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]WorkerInfo, 0, len(s.leases))
	for _, l := range s.leases {
		out = append(out, WorkerInfo{
			Worker:    l.worker,
			Lease:     l.token,
			Job:       l.t.job.status.ID,
			Task:      l.t.job.status.Tasks[l.t.idx].Name,
			ExpiresMS: l.expires.Sub(now).Milliseconds(),
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Lease < out[b].Lease })
	return out
}
