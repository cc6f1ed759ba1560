// Package metrics is permd's instrumentation registry. Each metric
// family is declared once — name, help, kind and label — and the
// declaration hands back whatever the call sites record into. One
// Write prints every family in the Prometheus text exposition format,
// in declaration order, so scrapes diff cleanly. Recording is one
// atomic add; every derived figure is computed at scrape time. The
// package uses the standard library only.
//
// Declarations, LabeledCounter.With included, must all happen before
// the registry is shared: they are not synchronized with Write.
package metrics

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sync/atomic"
)

// Value is one integer sample: a counter or gauge cell, recorded with
// Add (negative only on gauges).
type Value = atomic.Int64

// Registry holds the declared families. The zero value is ready.
type Registry struct {
	fams []family
}

type family struct {
	name, help, kind string
	value            *Value // the sample of a Counter or Gauge family
	samples          func(w io.Writer)
}

func (r *Registry) add(name, help, kind string, value *Value, samples func(io.Writer)) {
	r.fams = append(r.fams, family{name, help, kind, value, samples})
}

// Counter declares an unlabeled counter family.
func (r *Registry) Counter(name, help string) *Value { return r.value(name, help, "counter") }

// Gauge declares an unlabeled integer gauge family.
func (r *Registry) Gauge(name, help string) *Value { return r.value(name, help, "gauge") }

func (r *Registry) value(name, help, kind string) *Value {
	v := new(Value)
	r.add(name, help, kind, v, func(w io.Writer) { fmt.Fprintf(w, "%s %d\n", name, v.Load()) })
	return v
}

// Func declares a family of the given kind, "counter" or "gauge",
// whose integer sample f returns at scrape time: a figure kept by
// another component.
func (r *Registry) Func(name, help, kind string, f func() int64) {
	r.add(name, help, kind, nil, func(w io.Writer) { fmt.Fprintf(w, "%s %d\n", name, f()) })
}

// RatioFunc declares a gauge family whose sample is the quotient f
// computes at scrape time, printed with %g.
func (r *Registry) RatioFunc(name, help string, f func() float64) {
	r.add(name, help, "gauge", nil, func(w io.Writer) { fmt.Fprintf(w, "%s %g\n", name, f()) })
}

// LabeledGaugeFunc declares an integer gauge family with one label,
// read at scrape time: f calls emit once per sample, in print order.
func (r *Registry) LabeledGaugeFunc(name, help, label string, f func(emit func(value string, v int64))) {
	r.add(name, help, "gauge", nil, func(w io.Writer) {
		f(func(value string, v int64) { fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, value, v) })
	})
}

// LabeledCounter is a counter family with one label, its samples by
// label value. They print sorted by label value.
type LabeledCounter map[string]*Value

// LabeledCounter declares a counter family with one label.
func (r *Registry) LabeledCounter(name, help, label string) LabeledCounter {
	lc := make(LabeledCounter)
	r.add(name, help, "counter", nil, func(w io.Writer) {
		for _, k := range slices.Sorted(maps.Keys(lc)) {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, k, lc[k].Load())
		}
	})
	return lc
}

// With declares the sample for one label value and returns it.
func (lc LabeledCounter) With(value string) *Value {
	if lc[value] == nil {
		lc[value] = new(Value)
	}
	return lc[value]
}

// Write prints every family in declaration order: HELP and TYPE lines,
// then its samples.
func (r *Registry) Write(w io.Writer) {
	for _, f := range r.fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		f.samples(w)
	}
}

// Values returns the current sample of every Counter and Gauge family
// by name.
func (r *Registry) Values() map[string]int64 {
	vals := make(map[string]int64)
	for _, f := range r.fams {
		if f.value != nil {
			vals[f.name] = f.value.Load()
		}
	}
	return vals
}
