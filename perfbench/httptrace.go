package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

type parentKey struct{}

// withParent carries span id as the parent of the HTTP requests made
// under ctx.
func withParent(ctx context.Context, id int) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, parentKey{}, id)
}

func parentOf(ctx context.Context) int {
	id, _ := ctx.Value(parentKey{}).(int)
	return id
}

// httpTrace records a span per job-service HTTP request, from the
// clients' and the workers' side of the wire. Worker requests name only
// a lease token, so it reads each claim response to learn which job a
// lease serves, and each heartbeat body to size its checkpoint; nothing
// inside the service is touched. Spans are tied to their job by trace
// (the job ID) and linked to the job's span after the run, because a
// worker can claim a task before the submitting client has seen the
// job's ID. While disabled it passes requests straight through.
type httpTrace struct {
	tr      *Tracer
	enabled atomic.Bool

	mu        sync.Mutex
	leases    map[string]lease // lease token → claimed task
	claims    int64
	claimHits int64
	hbBytes   int64 // checkpoint bytes carried by heartbeats
	reclaims  int64 // 410 responses: leases lost to reclamation
	unexpect  []string
}

// lease is one claimed task as the workers' requests see it.
type lease struct {
	job  string
	exec int // the open "jobs.task_exec" span
}

func newHTTPTrace(tr *Tracer) *httpTrace {
	return &httpTrace{tr: tr, leases: make(map[string]lease)}
}

// enable switches recording on or off (a nil httpTrace ignores it).
func (h *httpTrace) enable(on bool) {
	if h != nil {
		h.enabled.Store(on)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// wrap returns base wrapped in the recorder.
func (h *httpTrace) wrap(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		if !h.enabled.Load() {
			return base.RoundTrip(req)
		}
		return h.roundTrip(base, req)
	})
}

// jobsOp classifies a job-service request by method and path, and
// returns the lease token or job ID the path names.
func jobsOp(req *http.Request) (op, key string) {
	parts := strings.Split(strings.Trim(req.URL.Path, "/"), "/")
	post := req.Method == http.MethodPost
	switch {
	case len(parts) == 2 && parts[1] == "jobs" && post:
		return "submit", ""
	case len(parts) == 3 && parts[2] == "claim":
		return "claim", ""
	case len(parts) == 5 && parts[2] == "claims" && parts[4] == "result":
		return "result_upload", parts[3]
	case len(parts) == 5 && parts[2] == "claims":
		return parts[4], parts[3] // heartbeat, release
	case len(parts) == 3 && parts[1] == "jobs":
		return "get", parts[2]
	case len(parts) >= 4 && parts[1] == "jobs":
		return parts[3], parts[2] // events, result, checkpoints, cancel, resume
	}
	return "other", ""
}

func (h *httpTrace) roundTrip(base http.RoundTripper, req *http.Request) (*http.Response, error) {
	op, key := jobsOp(req)
	parent, trace := parentOf(req.Context()), ""
	switch op {
	case "heartbeat", "result_upload", "release":
		h.mu.Lock()
		l, ok := h.leases[key]
		if ok && op != "heartbeat" {
			delete(h.leases, key)
		}
		h.mu.Unlock()
		if ok {
			trace = l.job
			if op == "heartbeat" {
				parent = l.exec
			} else {
				h.tr.End(l.exec)
			}
		}
	case "claim", "submit", "other":
	default:
		trace = key // job ID
	}
	if op == "heartbeat" {
		n, body, err := checkpointSize(req)
		if err != nil {
			return nil, err
		}
		req = body
		h.mu.Lock()
		h.hbBytes += int64(n)
		h.mu.Unlock()
	}
	span := h.tr.Start("jobs."+op, parent, trace)
	resp, err := base.RoundTrip(req)
	if err != nil {
		h.tr.End(span)
		return resp, err
	}
	if op == "claim" {
		h.claimed(span, resp)
	}
	h.tr.End(span)
	h.status(op, resp.StatusCode)
	return resp, nil
}

// claimed handles a claim response: a task (200) labels the claim with
// its job and opens the task's "jobs.task_exec" span, which the
// result upload closes.
func (h *httpTrace) claimed(span int, resp *http.Response) {
	h.mu.Lock()
	h.claims++
	h.mu.Unlock()
	if resp.StatusCode != http.StatusOK {
		return
	}
	a, ok := peekJSON[struct{ Lease, Job string }](resp)
	if !ok {
		return
	}
	h.tr.SetTrace(span, a.Job)
	exec := h.tr.Start("jobs.task_exec", 0, a.Job)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.claimHits++
	h.leases[a.Lease] = lease{job: a.Job, exec: exec}
}

// status counts the responses the protocol does not expect in a
// healthy run: a 410 is a lease lost to reclamation, and any other
// non-2xx is a failure.
func (h *httpTrace) status(op string, code int) {
	if code/100 == 2 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if code == http.StatusGone {
		h.reclaims++
		return
	}
	h.unexpect = append(h.unexpect, fmt.Sprintf("jobs.%s answered HTTP %d", op, code))
}

// checkpointSize reads a heartbeat body's checkpoint length and returns
// a copy of the request with the body restored.
func checkpointSize(req *http.Request) (int, *http.Request, error) {
	if req.Body == nil {
		return 0, req, nil
	}
	data, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	var u struct {
		Checkpoint []byte `json:"checkpoint"`
	}
	_ = json.Unmarshal(data, &u) // a malformed body is the server's to reject
	out := req.Clone(req.Context())
	out.Body = io.NopCloser(bytes.NewReader(data))
	return len(u.Checkpoint), out, nil
}

// peekJSON decodes a response body without consuming it.
func peekJSON[T any](resp *http.Response) (T, bool) {
	var v T
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(data))
	if err != nil {
		return v, false
	}
	return v, json.Unmarshal(data, &v) == nil
}

// linkJobs completes the job spans after the run: a span without a
// trace takes its parent's, a parentless span of a job hangs under the
// job's "jobs.job" span, and each job gains a "jobs.queue_wait" span
// from its submit response to its first claim response.
func linkJobs(spans []Span) []Span {
	out := append([]Span(nil), spans...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	idx := make(map[int]int, len(out))
	roots := make(map[string]int)
	for i, s := range out {
		idx[s.ID] = i
		if s.Name == "jobs.job" && s.Trace != "" {
			roots[s.Trace] = s.ID
		}
	}
	submitEnd := make(map[string]int64)
	firstClaim := make(map[string]int64)
	for i := range out {
		s := &out[i]
		if s.Trace == "" && s.Parent != 0 {
			if p, ok := idx[s.Parent]; ok {
				s.Trace = out[p].Trace
			}
		}
		if s.Parent == 0 && s.Trace != "" && s.Name != "jobs.job" {
			s.Parent = roots[s.Trace]
		}
		switch s.Name {
		case "jobs.submit":
			submitEnd[s.Trace] = s.End
		case "jobs.claim":
			if t, ok := firstClaim[s.Trace]; !ok || s.End < t {
				firstClaim[s.Trace] = s.End
			}
		}
	}
	next := 1
	if len(out) > 0 {
		next = out[len(out)-1].ID + 1
	}
	jobIDs := make([]string, 0, len(roots))
	for job := range roots {
		jobIDs = append(jobIDs, job)
	}
	sort.Strings(jobIDs)
	for _, job := range jobIDs {
		sub, ok1 := submitEnd[job]
		claim, ok2 := firstClaim[job]
		if !ok1 || !ok2 {
			continue
		}
		if claim < sub {
			claim = sub // claimed before the client saw the response: no wait
		}
		out = append(out, Span{ID: next, Parent: roots[job], Trace: job, Name: "jobs.queue_wait", Start: sub, End: claim})
		next++
	}
	return out
}

// metrics fills the jobs.* per-layer metrics from the linked spans.
func (h *httpTrace) metrics(spans []Span, res *Result) {
	durs := make(map[string][]float64)
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.Dur())/1e9)
	}
	med := func(name, metric string) {
		res.setN(metric, median(durs[name]), len(durs[name]))
	}
	med("jobs.submit", "jobs.submit_s")
	med("jobs.queue_wait", "jobs.queue_wait_s")
	med("jobs.claim", "jobs.claim_s")
	med("jobs.heartbeat", "jobs.heartbeat_s")
	med("jobs.result_upload", "jobs.result_upload_s")
	med("jobs.task_exec", "jobs.task_exec_s")

	h.mu.Lock()
	defer h.mu.Unlock()
	res.ratio("jobs.claim_hit_ratio", Ratio{Num: float64(h.claimHits), Base: float64(h.claims)})
	res.set("jobs.heartbeats", float64(len(durs["jobs.heartbeat"])))
	res.ratio("jobs.heartbeat_ckpt_bytes", Ratio{Num: float64(h.hbBytes), Base: float64(len(durs["jobs.heartbeat"]))})
	res.set("jobs.tasks", float64(len(durs["jobs.task_exec"])))
	res.set("jobs.reclaims", float64(h.reclaims))
	if h.reclaims > 0 {
		res.fail("%d leases reclaimed", h.reclaims)
	}
	for _, why := range h.unexpect {
		res.fail("%s", why)
	}
}
