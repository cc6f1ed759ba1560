// Package permclient is the Go SDK for permd, the permutation-serving
// daemon in cmd/permd. It speaks the /v1 HTTP API with the failure
// semantics a multi-tenant deployment needs baked in:
//
//   - typed errors: an *APIError carries the HTTP status and the
//     server's message, and quota/overload refusals (429, 503) are
//     recognized as retryable with the server's own Retry-After;
//   - backoff: every call retries retryable failures with exponential
//     backoff, honoring Retry-After when the server sent one, until the
//     request context expires or Config.MaxRetries is spent;
//   - hedged point reads: At races a second request after
//     Config.HedgeAfter, for tail latency, never for throughput — the
//     two requests are byte-identical by the server's determinism
//     contract, so whichever answer lands first is the answer;
//   - streaming chunks: Stream returns an iterator over π(start..) that
//     pages through /v1/perm/{seed}/chunk in Config.PageSize slices,
//     holding O(PageSize) memory no matter how far it runs.
//
// A Client is safe for concurrent use. The zero Config is usable; every
// field has a default. See the README's "permclient" section for a
// worked quickstart and OPERATIONS.md for the server-side quota
// semantics the client's backoff cooperates with.
package permclient

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Config shapes a Client. The zero value is usable: every field has a
// default applied by New.
type Config struct {
	// BaseURL is the permd base, e.g. "http://localhost:8080"
	// (default). A trailing slash is trimmed.
	BaseURL string
	// ClientID, when non-empty, is sent as the X-Permd-Client header on
	// every request — the identity the server's quota layer meters.
	ClientID string
	// HTTPClient is the transport (default http.DefaultClient).
	HTTPClient *http.Client
	// MaxRetries bounds how many times one call retries a retryable
	// failure (default 4; 0 uses the default, negative disables
	// retries).
	MaxRetries int
	// Backoff is the first retry delay, doubling per attempt with
	// jitter (default 100ms). A server Retry-After overrides it.
	Backoff time.Duration
	// MaxBackoff caps the delay between attempts, including
	// server-provided Retry-After hints (default 30s).
	MaxBackoff time.Duration
	// HedgeAfter is how long At waits for the first request before
	// racing a hedge (default 0: hedging off).
	HedgeAfter time.Duration
	// PageSize is the chunk length Stream requests per page
	// (default 65536).
	PageSize int
}

func (c Config) withDefaults() Config {
	if c.BaseURL == "" {
		c.BaseURL = "http://localhost:8080"
	}
	c.BaseURL = strings.TrimRight(c.BaseURL, "/")
	if c.HTTPClient == nil {
		c.HTTPClient = http.DefaultClient
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.PageSize <= 0 {
		c.PageSize = 1 << 16
	}
	return c
}

// APIError is a non-2xx answer from permd: the status code and the
// server's plain-text message, plus the Retry-After hint (0 when
// absent) on throttle/overload statuses.
type APIError struct {
	// StatusCode is the HTTP status permd answered with.
	StatusCode int
	// Message is the server's error body, trimmed.
	Message string
	// RetryAfter is the server's Retry-After hint, when one was sent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("permd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// Temporary reports whether retrying the identical request can
// succeed: quota exhaustion (429), build-queue overload (503) and
// server faults (5xx) are temporary; 4xx contract violations are not.
func (e *APIError) Temporary() bool {
	return e.StatusCode == http.StatusTooManyRequests || e.StatusCode >= 500
}

// ErrThrottled matches (errors.Is) any *APIError carrying HTTP 429 —
// the server's per-client quota refused the request.
var ErrThrottled = errors.New("permclient: throttled (HTTP 429)")

// ErrOverloaded matches any *APIError carrying HTTP 503 — every
// materialization build slot stayed busy past the server's queue
// deadline.
var ErrOverloaded = errors.New("permclient: server overloaded (HTTP 503)")

// Is makes errors.Is(err, ErrThrottled) and errors.Is(err,
// ErrOverloaded) work on APIErrors without unwrapping by hand.
func (e *APIError) Is(target error) bool {
	switch target {
	case ErrThrottled:
		return e.StatusCode == http.StatusTooManyRequests
	case ErrOverloaded:
		return e.StatusCode == http.StatusServiceUnavailable
	}
	return false
}

// Client talks to one permd daemon (or a load-balanced pool of
// replicas agreeing on the determinism contract). Create one with New;
// safe for concurrent use.
type Client struct {
	cfg Config
	// sleep is time.Sleep, injectable so backoff tests run in
	// microseconds.
	sleep func(context.Context, time.Duration) error
}

// New builds a Client from cfg (zero value fine; see Config).
func New(cfg Config) *Client {
	return &Client{cfg: cfg.withDefaults(), sleep: sleepCtx}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// get runs one GET with retry/backoff and returns the whole body. Every
// retryable failure (Temporary APIErrors, transport errors) backs off —
// by the server's Retry-After when it sent one, else exponentially with
// jitter — until MaxRetries attempts are spent or ctx expires.
func (c *Client) get(ctx context.Context, path string) ([]byte, error) {
	var body []byte
	err := c.retry(ctx, func() error {
		var err error
		_, body, err = c.do(ctx, http.MethodGet, path, nil, "")
		return err
	})
	return body, err
}

// retry runs op under the client's backoff policy.
func (c *Client) retry(ctx context.Context, op func() error) error {
	delay := c.cfg.Backoff
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || attempt >= c.cfg.MaxRetries || !retryable(err) {
			return err
		}
		wait := delay
		// Honor the server's own hint when it sent one; it knows its
		// refill rate and queue deadline better than our doubling does.
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.RetryAfter > 0 {
			wait = apiErr.RetryAfter
		}
		wait = min(wait, c.cfg.MaxBackoff)
		// Full jitter below the computed wait avoids retry stampedes
		// when many clients were refused in the same instant.
		wait = wait/2 + time.Duration(rand.Int64N(int64(wait/2)+1))
		if err := c.sleep(ctx, wait); err != nil {
			return err
		}
		delay = min(delay*2, c.cfg.MaxBackoff)
	}
}

func retryable(err error) bool {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.Temporary()
	}
	// Transport-level failures (connection refused, reset) are worth a
	// retry; context expiry is not.
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// do runs exactly one request and returns the response header and
// whole body, mapping non-2xx onto *APIError. body, when non-nil, is
// sent with the given content type.
func (c *Client) do(ctx context.Context, method, path string, body []byte, contentType string) (http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, rd)
	if err != nil {
		return nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	c.decorate(req)
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, apiError(resp)
	}
	b, err := io.ReadAll(resp.Body)
	return resp.Header, b, err
}

func (c *Client) decorate(req *http.Request) {
	if c.cfg.ClientID != "" {
		req.Header.Set("X-Permd-Client", c.cfg.ClientID)
	}
}

// apiError drains resp (non-2xx) into a typed error.
func apiError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	e := &APIError{
		StatusCode: resp.StatusCode,
		Message:    strings.TrimSpace(string(msg)),
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.ParseInt(ra, 10, 64); err == nil && secs > 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// parseLines parses a one-decimal-per-line permd response body.
func parseLines(body []byte) ([]int64, error) {
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) == 1 && lines[0] == "" {
		return nil, nil
	}
	out := make([]int64, len(lines))
	for i, l := range lines {
		v, err := strconv.ParseInt(l, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("permclient: bad response line %q: %v", l, err)
		}
		out[i] = v
	}
	return out, nil
}
