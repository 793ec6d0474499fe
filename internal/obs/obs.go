// Package obs is the dependency-free observability core of the YOUTIAO
// pipeline: atomic counters and gauges, fixed-bucket latency histograms
// with quantile estimation, and a lightweight span tracer with
// parent/child structure, all collected behind a Registry that renders
// stable-JSON Snapshots (see snapshot.go) and an expvar-style HTTP
// handler (see http.go).
//
// Two contracts shape the design:
//
//   - Disabled is free. Every metric type and the Registry itself are
//     nil-safe: methods on a nil receiver are no-ops that neither
//     allocate nor synchronize, so instrumented code records
//     unconditionally and pays only a nil check when observability is
//     off. A build carries its registry in its context (NewContext);
//     each instrumented call looks it up once with FromContext, and a
//     context without one yields the nil registry.
//
//   - Counters are deterministic, timing is not. Counter values are
//     pure functions of the work performed — invariant in the worker
//     count, the scheduler and the wall clock — so two runs at the same
//     options and seed produce byte-identical counter sections.
//     Gauges, histogram quantiles and span wall times measure the
//     execution itself and differ run to run; Snapshot.StripTimings
//     removes exactly those fields, which is what lets CI diff two run
//     manifests. Observability never feeds back into the design:
//     nothing in this package participates in artifact keys or RNG
//     streams.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. The nil Counter
// is a valid no-op, so hot paths can hold a *Counter that is nil while
// observability is disabled.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 on a nil receiver).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value: capacity, occupancy,
// accumulated busy time. Unlike counters, gauges carry no determinism
// contract — they may depend on the machine, the worker count and the
// scheduler — so StripTimings drops them from canonical snapshots.
type Gauge struct{ v atomic.Int64 }

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add accumulates v. No-op on a nil receiver.
func (g *Gauge) Add(v int64) {
	if g == nil {
		return
	}
	g.v.Add(v)
}

// Max raises the gauge to v if v exceeds the current value.
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value (0 on a nil receiver).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a named collection of metrics. The nil *Registry is the
// disabled registry: every lookup returns a nil metric whose methods
// no-op, so a single `Options.Obs *obs.Registry` field (nil by default)
// switches the whole instrumentation layer.
//
// Metric lookups take a mutex: resolve them once per call, never per
// inner-loop iteration (a hot loop holds the resolved *Counter, as
// parallel.Rands holds its gauges).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	spans    map[string]*spanStat
}

// New returns an empty, enabled registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		spans:    make(map[string]*spanStat),
	}
}

// Counter returns (creating if needed) the named counter, or nil on a
// nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge, or nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named latency histogram,
// or nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// ctxKey is the context key under which NewContext stores a registry.
type ctxKey struct{}

// NewContext returns a copy of ctx that carries r, the way a build
// hands its Options.Obs to every instrumented package it calls. A nil r
// shadows any registry ctx already carries, so a build without one
// records nothing.
func NewContext(ctx context.Context, r *Registry) context.Context {
	if FromContext(ctx) == r {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext returns the registry ctx carries, or the nil (disabled)
// registry when it carries none.
func FromContext(ctx context.Context) *Registry {
	r, _ := ctx.Value(ctxKey{}).(*Registry)
	return r
}
