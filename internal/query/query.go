// Package query is permd's one request grammar: how the public /v1/*
// endpoints and the peer-facing /v1/cluster/* endpoints read their
// parameters, and how a bad one is worded. A handler reads every
// parameter through one Reader, in order, and then answers at most one
// 400: the Reader's first fault. The faults are worded
//
//	missing n                                          Required
//	bad n="x": want a decimal integer                  Int, Index, Offset
//	bad len="-3": want a non-negative decimal integer  Count
//	bad seed "x": want a decimal uint64                Seed
//	bad from="x": want a decimal sequence number       Seq
//	bad Last-Event-ID "x": want a decimal sequence number  (HeaderSeq)
//	i=100 outside [0, 100)                             Index
//	start=200 outside [0, 100]                         Offset
//
// plus the range and domain faults a caller words itself (Check). A
// query parameter is named name="value"; a seed, which the public API
// also takes as a path segment, and a header are named bare.
package query

import (
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
)

// Reader reads one request's parameters. The first fault sticks: every
// read after it returns the zero value, and Err reports that fault.
type Reader struct {
	q   url.Values
	err error
}

// New returns a Reader over q.
func New(q url.Values) *Reader { return &Reader{q: q} }

// Err returns the first fault, or nil.
func (r *Reader) Err() error { return r.err }

// fail records a fault unless one is recorded already.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// Check records a fault in the caller's words unless ok. Its arguments
// are boxed on every call, fault or not; Index and Offset format only
// on a fault, which keeps the range checks of the O(1) endpoints free
// of that allocation.
func (r *Reader) Check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

// Get returns name's raw value: "" when it is absent or after a fault.
func (r *Reader) Get(name string) string {
	if r.err != nil {
		return ""
	}
	return r.q.Get(name)
}

// Required records "missing name" when name is absent or empty. It
// returns name, so a typed read can wrap it: r.Count(r.Required("n"), 0).
func (r *Reader) Required(name string) string {
	if r.Get(name) == "" {
		r.fail("missing %s", name)
	}
	return name
}

// Int reads name as a decimal int64, def when it is absent.
func (r *Reader) Int(name string, def int64) int64 {
	return r.int(name, def, math.MinInt64, "bad %s=%q: want a decimal integer")
}

// Count reads name as a non-negative decimal int64, def when it is
// absent.
func (r *Reader) Count(name string, def int64) int64 {
	return r.int(name, def, 0, "bad %s=%q: want a non-negative decimal integer")
}

// int parses name as a decimal int64 of at least least, def when it is
// absent; a fault is worded by form, given the name and the value.
func (r *Reader) int(name string, def, least int64, form string) int64 {
	v := r.Get(name)
	x, err := strconv.ParseInt(v, 10, 64)
	switch {
	case r.err != nil:
		return 0
	case v == "":
		return def
	case err != nil || x < least:
		r.fail(form, name, v)
		return 0
	}
	return x
}

// Index reads name as an index into [0, n); an absent name reads as
// -1 and is refused like any index outside the range.
func (r *Reader) Index(name string, n int64) int64 {
	i := r.Int(name, -1)
	if r.err == nil && (i < 0 || i >= n) {
		r.fail("%s=%d outside [0, %d)", name, i, n)
		return 0
	}
	return i
}

// Offset reads name as an offset into [0, n], 0 when it is absent.
func (r *Reader) Offset(name string, n int64) int64 {
	x := r.Int(name, 0)
	if r.err == nil && (x < 0 || x > n) {
		r.fail("%s=%d outside [0, %d]", name, x, n)
		return 0
	}
	return x
}

// Seed reads name as a decimal uint64 seed, 0 when it is absent.
func (r *Reader) Seed(name string) uint64 {
	return r.uint(name, r.Get(name), 0, "bad %s %q: want a decimal uint64")
}

// Seq reads name as a decimal uint64 sequence number, def when it is
// absent.
func (r *Reader) Seq(name string, def uint64) uint64 {
	return r.uint(name, r.Get(name), def, "bad %s=%q: want a decimal sequence number")
}

// HeaderSeq reads header name of h as Seq reads a parameter.
func (r *Reader) HeaderSeq(h http.Header, name string, def uint64) uint64 {
	return r.uint(name, h.Get(name), def, "bad %s %q: want a decimal sequence number")
}

// uint parses the value v of name as a decimal uint64, def when v is
// empty; a fault is worded by form, given the name and the value.
func (r *Reader) uint(name, v string, def uint64, form string) uint64 {
	x, err := strconv.ParseUint(v, 10, 64)
	switch {
	case r.err != nil:
		return 0
	case v == "":
		return def
	case err != nil:
		r.fail(form, name, v)
		return 0
	}
	return x
}
