package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"hira/internal/telemetry"
)

// Client talks to a hira-server job API. Transient failures — dropped
// connections, 502/504 from an intermediary, queue-full 503s — are
// retried with jittered exponential backoff (honoring the server's
// Retry-After hint when it asks for longer), and a broken event stream
// reconnects with Last-Event-ID instead of falling straight back to
// polling, so a brief server restart looks like a pause, not an error.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient. Use a client without a
	// global timeout: Wait holds a streaming response open for the
	// duration of a job.
	HTTPClient *http.Client
	// MaxRetries bounds how many times a transiently failed request is
	// retried (beyond the initial attempt). 0 means 4; negative disables
	// retries entirely.
	MaxRetries int
}

const (
	// pollInterval is Wait's fallback polling cadence when the event
	// stream is unavailable.
	pollInterval = 500 * time.Millisecond
	// retryBaseDelay is the first backoff delay, doubled per retry (with
	// ±50% jitter, capped at 5s). The server's Retry-After wins when it
	// asks for longer.
	retryBaseDelay = 200 * time.Millisecond
)

// maxRetries resolves the retry budget.
func (c *Client) maxRetries() int {
	if c.MaxRetries < 0 {
		return 0
	}
	if c.MaxRetries == 0 {
		return 4
	}
	return c.MaxRetries
}

// backoff returns the jittered delay before retry number attempt (0-based).
func backoff(attempt int) time.Duration {
	d := retryBaseDelay
	for i := 0; i < attempt && d < 5*time.Second; i++ {
		d *= 2
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	// Full ±50% jitter: concurrent clients kicked off by the same event
	// (a server restart) must not retry in lockstep.
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// sleepCtx waits d or until ctx is done, reporting whether it waited.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// retryAfter parses a Retry-After header in either RFC 9110 form —
// integer seconds or an HTTP-date (delay is the time remaining until
// it); 0 when absent, unparseable, or already in the past.
func retryAfter(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	h := resp.Header.Get("Retry-After")
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// NewClient returns a client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues a request and decodes the JSON response into out,
// translating non-2xx responses into errors carrying the server's
// message. Transient failures retry with backoff. What counts as
// transient depends on the method: a 503 always does (the server
// explicitly rejected the request before doing anything, so retrying a
// POST cannot double-submit), while network errors and gateway 502/504s
// retry only for idempotent methods — a lost POST response may mean the
// job was actually accepted, and retrying would submit it twice.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return err
		}
	}
	idempotent := method != http.MethodPost
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if data != nil {
			rd = bytes.NewReader(data)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
		if err != nil {
			return err
		}
		if data != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.httpClient().Do(req)
		var reqErr error
		transient := false
		if err != nil {
			reqErr = err
			transient = idempotent
		} else {
			switch {
			case resp.StatusCode/100 == 2:
				defer resp.Body.Close()
				if out == nil {
					return nil
				}
				return json.NewDecoder(resp.Body).Decode(out)
			case resp.StatusCode == http.StatusServiceUnavailable:
				transient = true
			case resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusGatewayTimeout:
				transient = idempotent
			}
			var ae apiError
			if json.NewDecoder(resp.Body).Decode(&ae) == nil && ae.Error != "" {
				reqErr = fmt.Errorf("%s %s: %s (%s)", method, path, ae.Error, resp.Status)
			} else {
				reqErr = fmt.Errorf("%s %s: %s", method, path, resp.Status)
			}
			resp.Body.Close()
		}
		if !transient || attempt >= c.maxRetries() || ctx.Err() != nil {
			return reqErr
		}
		delay := backoff(attempt)
		if ra := retryAfter(resp); ra > delay {
			delay = ra
		}
		if !sleepCtx(ctx, delay) {
			return reqErr
		}
	}
}

// Submit posts a job spec and returns the accepted (queued) job.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (*Job, error) {
	var j Job
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", spec, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Job fetches a job's current state (result included once done).
func (c *Client) Job(ctx context.Context, id string) (*Job, error) {
	var j Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &j); err != nil {
		return nil, err
	}
	return &j, nil
}

// Jobs lists all jobs (results elided).
func (c *Client) Jobs(ctx context.Context) ([]Job, error) {
	var out []Job
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Cancel requests cancellation of a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
}

// Trace fetches a job's span timeline.
func (c *Client) Trace(ctx context.Context, id string) (*telemetry.View, error) {
	var v telemetry.View
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// Forensics fetches a finished job's per-policy RowHammer forensics
// report (jobs submitted with SimSpec.Forensics).
func (c *Client) Forensics(ctx context.Context, id string) (*ForensicsView, error) {
	var v ForensicsView
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/forensics", nil, &v); err != nil {
		return nil, err
	}
	return &v, nil
}

// Stats fetches the server's engine tallies.
func (c *Client) Stats(ctx context.Context) (*StatsReport, error) {
	var rep StatsReport
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// Wait blocks until the job reaches a terminal state and returns it. It
// consumes the server's event stream, invoking onProgress (may be nil)
// as cells resolve; if the stream is unavailable it falls back to
// polling. ctx cancels the wait, not the job — pair with Cancel for
// that.
func (c *Client) Wait(ctx context.Context, id string, onProgress func(done, total int)) (*Job, error) {
	var op func(Progress)
	if onProgress != nil {
		op = func(p Progress) { onProgress(p.Done, p.Total) }
	}
	return c.WaitProgress(ctx, id, op)
}

// WaitProgress is Wait surfacing the full Progress payload — including
// the mid-sweep resolution tally (simulated / cache hits / resumed
// ticks) and checkpoint-store counters the server streams for figure
// and policies jobs. A broken stream reconnects with backoff, resuming
// via Last-Event-ID; once the retry budget is spent it falls back to
// polling.
func (c *Client) WaitProgress(ctx context.Context, id string, onProgress func(Progress)) (*Job, error) {
	var lastID string
	for attempt := 0; ; attempt++ {
		j, err := c.waitStream(ctx, id, onProgress, &lastID)
		if err == nil {
			return j, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		if attempt >= c.maxRetries() {
			break
		}
		if !sleepCtx(ctx, backoff(attempt)) {
			return nil, ctx.Err()
		}
	}
	return c.waitPoll(ctx, id)
}

// waitStream consumes /v1/jobs/{id}/stream until a terminal state event,
// tracking the last seen event id in *lastID so a reconnect can tell the
// server what the client already has.
func (c *Client) waitStream(ctx context.Context, id string, onProgress func(Progress), lastID *string) (*Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return nil, err
	}
	if *lastID != "" {
		req.Header.Set("Last-Event-ID", *lastID)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("stream: %s", resp.Status)
	}

	// Lines are read into a pooled buffer the scanner grows for the
	// rare large result, up to 16 MiB; the event and data fields are
	// copied into buffers reused across the stream's events.
	bufp := streamLinePool.Get().(*[]byte)
	defer streamLinePool.Put(bufp)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(*bufp, 16*1024*1024)
	var event, data []byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.HasPrefix(line, []byte("id: ")):
			*lastID = string(line[len("id: "):])
		case bytes.HasPrefix(line, []byte("event: ")):
			event = append(event[:0], line[len("event: "):]...)
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data[:0], line[len("data: "):]...)
		case len(line) == 0:
			switch string(event) {
			case "progress":
				if onProgress != nil {
					var p Progress
					if json.Unmarshal(data, &p) == nil {
						onProgress(p)
					}
				}
			case "state":
				var j Job
				if err := json.Unmarshal(data, &j); err != nil {
					return nil, err
				}
				if j.State.Terminal() {
					return &j, nil
				}
			}
			event, data = event[:0], data[:0]
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("stream for job %s ended without a terminal state", id)
}

// streamLinePool recycles waitStream's line buffers across streams.
// Events are a few KB (a figure result's state event included).
var streamLinePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 16*1024)
	return &b
}}

// waitPoll polls GET /v1/jobs/{id} until terminal.
func (c *Client) waitPoll(ctx context.Context, id string) (*Job, error) {
	t := time.NewTicker(pollInterval)
	defer t.Stop()
	for {
		j, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		if j.State.Terminal() {
			return j, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
		}
	}
}

// Run submits a spec and waits for it to finish.
func (c *Client) Run(ctx context.Context, spec JobSpec, onProgress func(done, total int)) (*Job, error) {
	j, err := c.Submit(ctx, spec)
	if err != nil {
		return nil, err
	}
	return c.Wait(ctx, j.ID, onProgress)
}

// FigureResult decodes a done figure job's result payload.
func (j *Job) FigureResult() (*FigureResultPayload, error) {
	if j.State != StateDone {
		return nil, fmt.Errorf("job %s is %s, not done", j.ID, j.State)
	}
	var res FigureResultPayload
	if err := json.Unmarshal(j.Result, &res); err != nil {
		return nil, err
	}
	return &res, nil
}
