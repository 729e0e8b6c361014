// Package client is the typed Go client for the qlecd daemon
// (cmd/qlecd, internal/service): submit jobs and batches, poll state,
// stream SSE progress, download content-addressed results. All calls
// honour their context; transport-level failures and 5xx responses
// retry with full-jitter exponential backoff — safe even for POST
// /v1/jobs, because submissions are content-addressed and therefore
// idempotent.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"qlec/internal/metrics"
	"qlec/internal/obs"
	"qlec/internal/service"
)

// Client talks to one qlecd base URL.
type Client struct {
	base    string
	hc      *http.Client
	retries int
	backoff time.Duration
	log     *slog.Logger

	// Cumulative re-attempts after a retryable failure, and SSE
	// connections resumed with Last-Event-ID after a dropped stream;
	// WithLogger's debug lines carry them (atomics: clients are used
	// concurrently).
	retried    atomic.Int64
	reconnects atomic.Int64
}

// BaseURL reports the daemon base URL this client targets.
func (c *Client) BaseURL() string { return c.base }

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (timeouts, proxies, test
// servers).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets how many times a failed call is retried (default 3).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the base retry backoff (default 100ms). Each retry
// sleeps a uniformly random duration in [0, min(64·base, base·2^n)] —
// "full jitter", so a fleet of clients retrying against one recovering
// daemon spreads out instead of stampeding in lockstep.
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithLogger receives structured logs (retries, reconnects) tagged with
// the request IDs the daemon sees; default discards.
func WithLogger(l *slog.Logger) Option { return func(c *Client) { c.log = l } }

// New builds a client for a base URL like "http://localhost:8080".
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:    strings.TrimRight(base, "/"),
		hc:      &http.Client{Timeout: 30 * time.Second},
		retries: 3,
		backoff: 100 * time.Millisecond,
		log:     obs.NopLogger(),
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIError is a non-2xx response from the daemon.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("qlecd: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
}

// retryable reports whether the failure is worth another attempt:
// transport errors and 5xx. 4xx are the caller's bug and final.
func retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Status >= 500
	}
	// Transport-level failure (connection refused, reset, timeout).
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// do runs one JSON request with retry/backoff; out, when non-nil,
// receives the decoded 2xx body. One request ID covers every attempt of
// the logical call, so the daemon's logs show the retries as one
// operation.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	rid := requestID(ctx)
	var lastErr error
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			c.log.Debug("retrying request",
				"method", method, "path", path, "attempt", attempt, "requestId", rid,
				"totalRetries", c.retried.Add(1), "err", lastErr)
			select {
			case <-time.After(c.jitterBackoff(attempt - 1)):
			case <-ctx.Done():
				return errors.Join(ctx.Err(), lastErr)
			}
		}
		lastErr = c.once(ctx, method, path, rid, body, out)
		if lastErr == nil || !retryable(lastErr) {
			return lastErr
		}
	}
	return lastErr
}

// jitterBackoff is the full-jitter schedule (AWS-style): a uniform
// draw from [0, ceil] where ceil doubles per attempt from the base,
// capped at 64× base. Randomizing the whole interval — not just a
// fraction of it — is what decorrelates simultaneous retriers.
func (c *Client) jitterBackoff(attempt int) time.Duration {
	if c.backoff <= 0 {
		return 0
	}
	if attempt > 6 {
		attempt = 6 // 2^6 = 64, the cap
	}
	ceil := c.backoff << uint(attempt)
	if cap := 64 * c.backoff; ceil > cap {
		ceil = cap
	}
	return time.Duration(rand.Int64N(int64(ceil) + 1))
}

// requestID prefers an ID already on the context (a caller correlating
// several calls) over a fresh one.
func requestID(ctx context.Context) string {
	if id := obs.RequestIDFromContext(ctx); id != "" {
		return id
	}
	return obs.NewRequestID()
}

func (c *Client) once(ctx context.Context, method, path, rid string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set(obs.RequestIDHeader, rid)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var apiErr struct {
			Error string `json:"error"`
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if json.Unmarshal(msg, &apiErr) == nil && apiErr.Error != "" {
			return &APIError{Status: resp.StatusCode, Message: apiErr.Error}
		}
		return &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(msg))}
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}

// Submit posts a job. The returned Job may already be done (cache hit)
// or be an existing in-flight job (coalesced duplicate).
func (c *Client) Submit(ctx context.Context, req service.Request) (*service.Job, error) {
	var j service.Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Job fetches one job record.
func (c *Client) Job(ctx context.Context, id string) (*service.Job, error) {
	var j service.Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Cancel requests cancellation; idempotent. A running job stops at its
// next round boundary — poll or stream events for the terminal state.
func (c *Client) Cancel(ctx context.Context, id string) (*service.Job, error) {
	var j service.Job
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Result downloads a content-addressed result envelope.
func (c *Client) Result(ctx context.Context, hash string) (*service.ResultEnvelope, error) {
	var env service.ResultEnvelope
	if err := c.do(ctx, http.MethodGet, "/v1/results/"+hash, nil, &env); err != nil {
		return nil, err
	}
	return &env, nil
}

// Health probes /healthz (process liveness; stays 200 while draining).
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Ready probes /readyz (drain-aware readiness; 503 once a graceful
// shutdown begins).
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

// SubmitBatch posts a config list to /v1/batches: every config is
// validated and content-addressed up front, then executed through the
// daemon's cell pool (fleet-wide when peers are configured) with one
// aggregate event stream.
func (c *Client) SubmitBatch(ctx context.Context, reqs []service.Request) (*service.Batch, error) {
	in := struct {
		Requests []service.Request `json:"requests"`
	}{Requests: reqs}
	var b service.Batch
	if err := c.do(ctx, http.MethodPost, "/v1/batches", in, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

// Batch fetches one batch record (with its per-config table).
func (c *Client) Batch(ctx context.Context, id string) (*service.Batch, error) {
	var b service.Batch
	if err := c.do(ctx, http.MethodGet, "/v1/batches/"+id, nil, &b); err != nil {
		return nil, err
	}
	return &b, nil
}

// Events streams a job's SSE progress, invoking fn per event until fn
// returns false, the stream ends (terminal state), or ctx is done.
// Dropped connections reconnect with Last-Event-ID, so no terminal
// event is lost, up to the client's retry budget per gap.
func (c *Client) Events(ctx context.Context, id string, fn func(service.Event) bool) error {
	return c.stream(ctx, "/v1/jobs/"+id+"/events", fn)
}

// BatchEvents streams a batch's aggregate SSE progress: per-config
// terminal events, rolled-up progress, and the final state event.
func (c *Client) BatchEvents(ctx context.Context, id string, fn func(service.Event) bool) error {
	return c.stream(ctx, "/v1/batches/"+id+"/events", fn)
}

// stream is the reconnecting SSE loop behind Events and BatchEvents.
// Reconnects use the same full-jitter schedule as request retries.
func (c *Client) stream(ctx context.Context, path string, fn func(service.Event) bool) error {
	rid := requestID(ctx)
	lastSeq := 0
	attempts := 0
	for {
		if attempts > 0 {
			c.reconnects.Add(1)
		}
		terminal, err := c.streamOnce(ctx, path, rid, &lastSeq, fn)
		if terminal {
			return err
		}
		if err == nil {
			// Clean EOF without a terminal state: the server (or a proxy)
			// closed a live stream — resume it, don't report success.
			err = io.ErrUnexpectedEOF
		}
		if !retryable(err) || attempts >= c.retries {
			return err
		}
		c.log.Debug("reconnecting event stream",
			"path", path, "attempt", attempts+1, "lastSeq", lastSeq, "requestId", rid,
			"totalReconnects", c.reconnects.Load()+1, "err", err)
		select {
		case <-time.After(c.jitterBackoff(attempts)):
		case <-ctx.Done():
			return ctx.Err()
		}
		attempts++
	}
}

// streamOnce consumes one SSE connection. terminal reports a clean end:
// fn stopped the stream, or the stream announced a terminal state and
// the server closed it. rid is shared across a stream's reconnects so
// the daemon's access logs show them as one logical subscription.
func (c *Client) streamOnce(ctx context.Context, path, rid string, lastSeq *int, fn func(service.Event) bool) (terminal bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set(obs.RequestIDHeader, rid)
	if *lastSeq > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(*lastSeq))
	}
	// SSE outlives any sane request timeout; use the transport without
	// the client-wide deadline.
	hc := *c.hc
	hc.Timeout = 0
	resp, err := hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return false, &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(msg))}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var data []byte
	sawTerminal := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "data: "):
			data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && data != nil:
			var e service.Event
			if err := json.Unmarshal(data, &e); err != nil {
				return false, fmt.Errorf("client: decode event: %w", err)
			}
			data = nil
			if e.Seq > *lastSeq {
				*lastSeq = e.Seq
			}
			if e.Type == service.EventState && e.State.Terminal() {
				sawTerminal = true
			}
			if !fn(e) {
				return true, nil
			}
		}
	}
	if err := sc.Err(); err != nil && !sawTerminal {
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		return false, err
	}
	// A clean EOF after a terminal state is the normal end of stream; a
	// clean EOF without one is a dropped connection worth resuming.
	return sawTerminal, nil
}

// Wait polls until the job reaches a terminal state.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (*service.Job, error) {
	if poll <= 0 {
		poll = 250 * time.Millisecond
	}
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if j.State.Terminal() {
			return j, nil
		}
		select {
		case <-time.After(poll):
		case <-ctx.Done():
			return j, ctx.Err()
		}
	}
}

// RunOne drives a single-simulation (KindOne) job end to end: submit,
// stream progress through onEvent (nil ok), wait for the terminal
// state, download the result. The returned Job reports cache hits and
// attempt counts.
func (c *Client) RunOne(ctx context.Context, req service.Request, onEvent func(service.Event)) (*metrics.Result, *service.Job, error) {
	req.Kind = service.KindOne
	j, err := c.Submit(ctx, req)
	if err != nil {
		return nil, nil, err
	}
	if !j.State.Terminal() {
		err := c.Events(ctx, j.ID, func(e service.Event) bool {
			if onEvent != nil {
				onEvent(e)
			}
			return true
		})
		if err != nil && ctx.Err() != nil {
			return nil, j, err
		}
		// Stream errors beyond the retry budget degrade to polling.
		if j, err = c.Wait(ctx, j.ID, 0); err != nil {
			return nil, j, err
		}
	}
	switch j.State {
	case service.StateDone:
		env, err := c.Result(ctx, j.Hash)
		if err != nil {
			return nil, j, err
		}
		if env.One == nil {
			return nil, j, fmt.Errorf("client: result %s is not a single-run payload (kind %q)", j.Hash, env.Kind)
		}
		return env.One, j, nil
	case service.StateFailed:
		return nil, j, fmt.Errorf("client: job %s failed: %s", j.ID, j.Error)
	case service.StateCancelled:
		return nil, j, fmt.Errorf("client: job %s cancelled", j.ID)
	default:
		return nil, j, fmt.Errorf("client: job %s in unexpected state %q", j.ID, j.State)
	}
}
