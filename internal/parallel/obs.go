package parallel

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// poolObs caches the resolved metrics of the observing registry so the
// dispatch hot path pays one atomic pointer load and no map lookups.
// With no observer installed the load returns nil and every ForEach
// variant runs its historical zero-allocation path untouched — not even
// time.Now is called.
type poolObs struct {
	// calls counts ForEach-family invocations and tasks the total task
	// fan-out. Both are deterministic: pipeline code sizes its fan-outs
	// by the problem, never by the worker count, so the values are
	// invariant in Workers (obs's counter contract).
	calls *obs.Counter
	tasks *obs.Counter
	// wall histograms the per-call wall time (queue + execution of the
	// whole batch, as seen by the caller).
	wall *obs.Histogram
	// busyNs accumulates per-worker busy time; busyNs / (wall ·
	// maxWorkers) is the pool occupancy. maxWorkers records the largest
	// resolved worker count observed. Both are timing/capacity gauges,
	// excluded from canonical snapshots.
	busyNs     *obs.Gauge
	maxWorkers *obs.Gauge
	// rngPooled counts generators allocated into Rands pools and
	// rngReseeds the task reseeds served from them — every reseed is
	// one TaskRand allocation and seeding loop avoided. rngMaterialized
	// counts the reseeded streams that drew past the 273-value window
	// a seededSource computes from the seed alone, and so paid a full
	// math/rand seeding after all. Gauges (execution/capacity detail):
	// the first two scale with the resolved worker count, which the
	// deterministic counter section must not see.
	rngPooled       *obs.Gauge
	rngReseeds      *obs.Gauge
	rngMaterialized *obs.Gauge
}

var observer atomic.Pointer[poolObs]

// Observe routes the package's worker-pool instrumentation into r; nil
// disables it again. The observer is process-global (ForEach has no
// configuration struct to thread a registry through) and takes effect
// for calls that start after it is installed.
func Observe(r *obs.Registry) {
	if r == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&poolObs{
		calls:           r.Counter("parallel/calls"),
		tasks:           r.Counter("parallel/tasks"),
		wall:            r.Histogram("parallel/call_wall"),
		busyNs:          r.Gauge("parallel/worker_busy_ns"),
		maxWorkers:      r.Gauge("parallel/max_workers"),
		rngPooled:       r.Gauge("parallel/rng_pooled"),
		rngReseeds:      r.Gauge("parallel/rng_scratch_reuse"),
		rngMaterialized: r.Gauge("parallel/rng_materialized"),
	})
}

// obsBegin records the start of one ForEach-family call over n tasks on
// w resolved workers. Returns (nil, zero time) when observation is off.
func obsBegin(n, w int) (*poolObs, time.Time) {
	o := observer.Load()
	if o == nil {
		return nil, time.Time{}
	}
	o.calls.Inc()
	o.tasks.Add(int64(n))
	o.maxWorkers.Max(int64(w))
	return o, time.Now()
}

// end closes the call record opened by obsBegin.
func (o *poolObs) end(start time.Time) {
	if o == nil {
		return
	}
	o.wall.Observe(time.Since(start))
}

// busy accumulates one worker's busy interval.
func (o *poolObs) busy(start time.Time) {
	if o == nil {
		return
	}
	o.busyNs.Add(int64(time.Since(start)))
}
