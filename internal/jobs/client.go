package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client talks to a scand server's HTTP API. The zero value is not
// usable; set Base (e.g. "http://127.0.0.1:8080"). All methods return
// *APIError for non-2xx responses, so callers can branch on the status
// code (404 vs 409 vs 400).
type Client struct {
	// Base is the server's root URL, without a trailing slash.
	Base string
	// HTTP is the underlying client (nil: http.DefaultClient).
	HTTP *http.Client
}

// APIError is a non-2xx API response.
type APIError struct {
	Code    int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("jobs: server returned %d: %s", e.Code, e.Message)
}

// Is maps a 410 response onto ErrLeaseGone so lease-protocol callers
// can use errors.Is across the wire.
func (e *APIError) Is(target error) bool {
	return target == ErrLeaseGone && e.Code == http.StatusGone
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(parts ...string) string {
	return strings.TrimSuffix(c.Base, "/") + "/" + strings.Join(parts, "/")
}

// do issues one request and decodes a 2xx JSON body into out (skipped
// when out is nil). Non-2xx bodies become *APIError.
func (c *Client) do(ctx context.Context, method, url string, body io.Reader, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return apiError(resp.StatusCode, data)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func apiError(code int, body []byte) *APIError {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return &APIError{Code: code, Message: e.Error}
	}
	return &APIError{Code: code, Message: strings.TrimSpace(string(body))}
}

// Submit posts a job spec and returns the accepted job's status.
func (c *Client) Submit(ctx context.Context, sp Spec) (*Status, error) {
	payload, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	var st Status
	if err := c.do(ctx, http.MethodPost, c.url("v1", "jobs"), bytes.NewReader(payload), &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// List returns every job's status in submission order.
func (c *Client) List(ctx context.Context) ([]*Status, error) {
	var out []*Status
	if err := c.do(ctx, http.MethodGet, c.url("v1", "jobs"), nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Get returns one job's status.
func (c *Client) Get(ctx context.Context, id string) (*Status, error) {
	var st Status
	if err := c.do(ctx, http.MethodGet, c.url("v1", "jobs", id), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Cancel cancels a job; it settles canceled and resumable at once.
func (c *Client) Cancel(ctx context.Context, id string) (*Status, error) {
	var st Status
	if err := c.do(ctx, http.MethodPost, c.url("v1", "jobs", id, "cancel"), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Resume re-enqueues a suspended or canceled job from its checkpoints.
func (c *Client) Resume(ctx context.Context, id string) (*Status, error) {
	var st Status
	if err := c.do(ctx, http.MethodPost, c.url("v1", "jobs", id, "resume"), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Result fetches a completed job's result.json bytes verbatim.
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("v1", "jobs", id, "result"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, apiError(resp.StatusCode, data)
	}
	return data, nil
}

// Checkpoints lists a job's checkpoint artifact names.
func (c *Client) Checkpoints(ctx context.Context, id string) ([]string, error) {
	var names []string
	if err := c.do(ctx, http.MethodGet, c.url("v1", "jobs", id, "checkpoints"), nil, &names); err != nil {
		return nil, err
	}
	return names, nil
}

// Checkpoint fetches one checkpoint artifact's bytes.
func (c *Client) Checkpoint(ctx context.Context, id, name string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("v1", "jobs", id, "checkpoints", name), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, apiError(resp.StatusCode, data)
	}
	return data, nil
}

// Events opens the job's JSONL event stream: history replay, then live
// lines until the job settles. The caller must Close the reader.
func (c *Client) Events(ctx context.Context, id string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("v1", "jobs", id, "events"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, apiError(resp.StatusCode, data)
	}
	return resp.Body, nil
}

// Claim leases the next claimable task for worker. A nil Assignment
// with nil error means the queue has nothing claimable right now.
func (c *Client) Claim(ctx context.Context, worker string) (*Assignment, error) {
	payload, err := json.Marshal(claimRequest{Worker: worker})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("v1", "worker", "claim"), bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode == http.StatusNoContent {
		return nil, nil
	}
	if resp.StatusCode/100 != 2 {
		return nil, apiError(resp.StatusCode, data)
	}
	var a Assignment
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, err
	}
	return &a, nil
}

// Heartbeat renews a lease, uploading the worker's current checkpoint
// bytes, and returns the TTL to heartbeat within. ErrLeaseGone (via
// errors.Is) means the task was reclaimed.
func (c *Client) Heartbeat(ctx context.Context, token string, ckpt []byte) (time.Duration, error) {
	payload, err := json.Marshal(leaseUpdate{Checkpoint: ckpt})
	if err != nil {
		return 0, err
	}
	var out struct {
		TTLMS int64 `json:"ttl_ms"`
	}
	if err := c.do(ctx, http.MethodPost, c.url("v1", "worker", "claims", token, "heartbeat"), bytes.NewReader(payload), &out); err != nil {
		return 0, err
	}
	return time.Duration(out.TTLMS) * time.Millisecond, nil
}

// CompleteClaim uploads a leased task's result and final checkpoint.
func (c *Client) CompleteClaim(ctx context.Context, token string, res *taskResult, ckpt []byte) error {
	payload, err := json.Marshal(resultUpload{Result: res, Checkpoint: ckpt})
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, c.url("v1", "worker", "claims", token, "result"), bytes.NewReader(payload), nil)
}

// ReleaseClaim hands a leased task back (graceful shutdown), uploading
// the checkpoint the next claimant resumes from.
func (c *Client) ReleaseClaim(ctx context.Context, token string, ckpt []byte) error {
	payload, err := json.Marshal(leaseUpdate{Checkpoint: ckpt})
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, c.url("v1", "worker", "claims", token, "release"), bytes.NewReader(payload), nil)
}

// Workers lists the live leases — the fleet half of `scanctl top`.
func (c *Client) Workers(ctx context.Context) ([]WorkerInfo, error) {
	var out []WorkerInfo
	if err := c.do(ctx, http.MethodGet, c.url("v1", "workers"), nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Watch streams the job's events to w (nil: discard) until the stream
// closes, then returns the job's settled status. If the event stream
// drops early (server restart mid-follow), Watch falls back to polling
// the status until the job reaches a terminal state or ctx is done.
func (c *Client) Watch(ctx context.Context, id string, w io.Writer) (*Status, error) {
	if w == nil {
		w = io.Discard
	}
	if body, err := c.Events(ctx, id); err == nil {
		_, copyErr := io.Copy(w, body)
		body.Close()
		_ = copyErr
	}
	for {
		st, err := c.Get(ctx, id)
		if err != nil {
			return nil, err
		}
		if st.State.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}
