package permclient

import (
	"context"
	"encoding/json"
	"fmt"
	"iter"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// Opt is a per-call option.
type Opt func(*callOpts)

type callOpts struct {
	backend   string
	epochMode string // "" (fresh) or "recycled"; see WithRecycled
}

// WithBackend pins the serving backend for this call ("sim", "shmem",
// "inplace", "bijective" or "cluster"); without it the server's default
// applies.
func WithBackend(backend string) Opt {
	return func(o *callOpts) { o.backend = backend }
}

func applyOpts(opts []Opt) callOpts {
	var o callOpts
	for _, f := range opts {
		f(&o)
	}
	return o
}

// Chunk fetches π(start) .. π(start+length-1) of the permutation
// (seed, n) in one request. For ranges beyond one server page, prefer
// Stream, which holds O(PageSize) memory.
func (c *Client) Chunk(ctx context.Context, seed uint64, n, start, length int64, opts ...Opt) ([]int64, error) {
	o := applyOpts(opts)
	q := url.Values{}
	q.Set("n", strconv.FormatInt(n, 10))
	q.Set("start", strconv.FormatInt(start, 10))
	q.Set("len", strconv.FormatInt(length, 10))
	if o.backend != "" {
		q.Set("backend", o.backend)
	}
	body, err := c.get(ctx, fmt.Sprintf("/v1/perm/%d/chunk?%s", seed, q.Encode()))
	if err != nil {
		return nil, err
	}
	return parseLines(body)
}

// At fetches the single value π(i) of the permutation (seed, n). When
// Config.HedgeAfter > 0 and the first request has not answered within
// it, a second identical request races it and the first answer wins —
// the server's determinism contract makes the two byte-identical, so
// hedging can only cut tail latency, never change the value.
func (c *Client) At(ctx context.Context, seed uint64, n, i int64, opts ...Opt) (int64, error) {
	o := applyOpts(opts)
	q := url.Values{}
	q.Set("n", strconv.FormatInt(n, 10))
	q.Set("i", strconv.FormatInt(i, 10))
	if o.backend != "" {
		q.Set("backend", o.backend)
	}
	path := fmt.Sprintf("/v1/perm/%d/at?%s", seed, q.Encode())
	var body []byte
	err := c.retry(ctx, func() error {
		var err error
		body, err = c.hedged(ctx, path)
		return err
	})
	if err != nil {
		return 0, err
	}
	vals, err := parseLines(body)
	if err != nil {
		return 0, err
	}
	if len(vals) != 1 {
		return 0, fmt.Errorf("permclient: want one value, got %d", len(vals))
	}
	return vals[0], nil
}

// hedged runs one logical GET as up to two racing requests: the
// primary, and after HedgeAfter a hedge. The first outcome — success
// or failure — wins; the loser's context is canceled so the server
// stops serving it.
func (c *Client) hedged(ctx context.Context, path string) ([]byte, error) {
	if c.cfg.HedgeAfter <= 0 {
		_, body, err := c.do(ctx, http.MethodGet, path, nil, "")
		return body, err
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		body []byte
		err  error
	}
	results := make(chan result, 2)
	launch := func() {
		_, body, err := c.do(hctx, http.MethodGet, path, nil, "")
		results <- result{body, err}
	}
	go launch()
	t := time.NewTimer(c.cfg.HedgeAfter)
	defer t.Stop()
	select {
	case r := <-results:
		return r.body, r.err
	case <-t.C:
		go launch()
	}
	r := <-results
	if r.err != nil && ctx.Err() == nil {
		// The first finisher failed; the slower twin may yet succeed.
		if r2 := <-results; r2.err == nil {
			return r2.body, nil
		}
	}
	return r.body, r.err
}

// Stream returns an iterator over π(start), π(start+1), ... of the
// permutation (seed, n), paging through the chunk endpoint in
// Config.PageSize requests — O(PageSize) memory for any range, with
// the client's full retry/backoff policy applied per page. Iteration
// stops at the end of the domain, at the first yield of a non-nil
// error, or when the consumer breaks; breaking mid-page abandons the
// remaining pages unfetched.
func (c *Client) Stream(ctx context.Context, seed uint64, n, start int64, opts ...Opt) iter.Seq2[int64, error] {
	return c.pages(n, start, func(pos, length int64) ([]int64, error) {
		return c.Chunk(ctx, seed, n, pos, length, opts...)
	})
}

// pages is the one pager behind Stream and EpochStream: it yields the
// values of [start, n) fetched by page(pos, length) in Config.PageSize
// requests, stopping at the end of the domain, at the first error, or
// when the consumer breaks.
func (c *Client) pages(n, start int64, page func(pos, length int64) ([]int64, error)) iter.Seq2[int64, error] {
	return func(yield func(int64, error) bool) {
		for pos := start; pos < n; {
			vals, err := page(pos, min(n-pos, int64(c.cfg.PageSize)))
			if err == nil && len(vals) == 0 {
				err = fmt.Errorf("permclient: empty page at %d of [0, %d)", pos, n)
			}
			if err != nil {
				yield(0, err)
				return
			}
			for _, v := range vals {
				if !yield(v, nil) {
					return
				}
			}
			pos += int64(len(vals))
		}
	}
}

// Shuffle returns lines in exactly-uniform random order under
// (seed, backend). The server refuses backends that are not exactly
// uniform (a non-Temporary *APIError with HTTP 400).
func (c *Client) Shuffle(ctx context.Context, seed uint64, lines []string, opts ...Opt) ([]string, error) {
	o := applyOpts(opts)
	q := url.Values{}
	q.Set("seed", strconv.FormatUint(seed, 10))
	if o.backend != "" {
		q.Set("backend", o.backend)
	}
	payload, err := json.Marshal(lines)
	if err != nil {
		return nil, err
	}
	var out []string
	err = c.retry(ctx, func() error {
		_, body, err := c.do(ctx, http.MethodPost, "/v1/shuffle?"+q.Encode(), payload, "application/json")
		if err != nil {
			return err
		}
		out = out[:0]
		return json.Unmarshal(body, &out)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Sample returns a uniformly random k-subset of [0, n) in uniformly
// random order, drawn by the server's exactly-uniform sampling path.
func (c *Client) Sample(ctx context.Context, n, k int64, seed uint64) ([]int64, error) {
	q := url.Values{}
	q.Set("n", strconv.FormatInt(n, 10))
	q.Set("k", strconv.FormatInt(k, 10))
	q.Set("seed", strconv.FormatUint(seed, 10))
	body, err := c.get(ctx, "/v1/sample?"+q.Encode())
	if err != nil {
		return nil, err
	}
	return parseLines(body)
}

// Health is the daemon's /healthz echo: liveness plus the config a
// client (or replica) needs to reason about the determinism contract.
type Health struct {
	Status         string `json:"status"`
	Procs          int    `json:"procs"`
	Handles        int    `json:"handles"`
	MaxN           int64  `json:"max_n"`
	MaxChunk       int    `json:"max_chunk"`
	DefaultBackend string `json:"default_backend"`
	MaxBuilds      int    `json:"max_builds"`
	Quota          bool   `json:"quota"`
}

// Health fetches the daemon's liveness/config echo.
func (c *Client) Health(ctx context.Context) (Health, error) {
	body, err := c.get(ctx, "/healthz")
	if err != nil {
		return Health{}, err
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		return Health{}, fmt.Errorf("permclient: decoding /healthz: %v", err)
	}
	return h, nil
}
