package permclient

import (
	"context"
	"fmt"
	"iter"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// The workload surface of the SDK: experiment bucketing (/v1/assign)
// and epoch shuffling (/v1/epochs). Both ride the server's bijective
// backend, so the answers are pure functions of their inputs — an
// Assign may be retried, hedged or re-asked a year later and the
// bucket cannot change; an epoch's values are byte-stable across
// restarts and replicas.

// WithRecycled selects recycled-sequence epoch derivation for an
// Epoch/EpochStream call: epoch e+1's shuffle key is drawn from the
// stream state epoch e left behind (Ito & Kikuchi), instead of the
// default fresh 2^192-jump separation. The mode is part of the
// determinism contract — the same (seed, n, epoch, mode) always
// yields the same bytes — so mixing modes across a training run
// changes which permutations it sees.
func WithRecycled() Opt {
	return func(o *callOpts) { o.epochMode = "recycled" }
}

// Assignment is one /v1/assign answer: the bucket's name and its
// index in the weight spec.
type Assignment struct {
	Bucket string
	Index  int
}

// Assign returns the experiment bucket of user id under experiment
// seed, with the id domain [0, n) split by spec ("control:9,treat:1"
// — comma-separated name:weight pairs). Bucket proportions are exact
// by construction on the server, and the lookup is O(1) in n. A
// malformed spec, an id outside [0, n) or a non-bijective
// WithBackend override is a non-Temporary *APIError with HTTP 400.
func (c *Client) Assign(ctx context.Context, seed uint64, n, id int64, spec string, opts ...Opt) (Assignment, error) {
	o := applyOpts(opts)
	q := url.Values{}
	q.Set("seed", strconv.FormatUint(seed, 10))
	q.Set("n", strconv.FormatInt(n, 10))
	q.Set("id", strconv.FormatInt(id, 10))
	q.Set("spec", spec)
	if o.backend != "" {
		q.Set("backend", o.backend)
	}
	path := "/v1/assign?" + q.Encode()
	var a Assignment
	err := c.retry(ctx, func() error {
		header, body, err := c.do(ctx, http.MethodGet, path, nil, "")
		if err != nil {
			return err
		}
		a.Bucket = strings.TrimRight(string(body), "\n")
		if a.Bucket == "" {
			return fmt.Errorf("permclient: empty bucket name in /v1/assign response")
		}
		idx, err := strconv.Atoi(header.Get("Permd-Bucket"))
		if err != nil {
			return fmt.Errorf("permclient: bad Permd-Bucket header %q: %v", header.Get("Permd-Bucket"), err)
		}
		a.Index = idx
		return nil
	})
	if err != nil {
		return Assignment{}, err
	}
	return a, nil
}

// Epoch fetches π_e(start) .. π_e(start+length-1) of epoch e's
// permutation of the dataset (seed, n) in one request. The epoch key
// derivation defaults to fresh (LongJump-separated) streams; pass
// WithRecycled for recycled-sequence derivation. For ranges beyond
// one server page, prefer EpochStream.
func (c *Client) Epoch(ctx context.Context, seed uint64, n, epoch, start, length int64, opts ...Opt) ([]int64, error) {
	o := applyOpts(opts)
	q := url.Values{}
	q.Set("seed", strconv.FormatUint(seed, 10))
	q.Set("n", strconv.FormatInt(n, 10))
	q.Set("epoch", strconv.FormatInt(epoch, 10))
	q.Set("start", strconv.FormatInt(start, 10))
	q.Set("len", strconv.FormatInt(length, 10))
	if o.epochMode != "" {
		q.Set("mode", o.epochMode)
	}
	if o.backend != "" {
		q.Set("backend", o.backend)
	}
	body, err := c.get(ctx, "/v1/epochs?"+q.Encode())
	if err != nil {
		return nil, err
	}
	return parseLines(body)
}

// EpochStream returns an iterator over π_e(start), π_e(start+1), ...
// of epoch e's permutation of (seed, n), paging through /v1/epochs in
// Config.PageSize requests — O(PageSize) memory for a full-dataset
// epoch, with the client's retry/backoff policy applied per page.
// Iteration stops at the end of the dataset, at the first yield of a
// non-nil error, or when the consumer breaks.
func (c *Client) EpochStream(ctx context.Context, seed uint64, n, epoch, start int64, opts ...Opt) iter.Seq2[int64, error] {
	return c.pages(n, start, func(pos, length int64) ([]int64, error) {
		return c.Epoch(ctx, seed, n, epoch, pos, length, opts...)
	})
}
