package parallel

import (
	"time"

	"repro/internal/obs"
)

// ForEachCtx and ForEachCtxWorker record into the registry their
// context carries (obs.FromContext); the context-free variants record
// nothing. parallel/calls counts those calls and parallel/tasks their
// total fan-out. Both are deterministic: pipeline code sizes its
// fan-outs by the problem, never by the worker count, so the values
// are invariant in Workers (obs's counter contract). parallel/call_wall
// histograms each call's wall time as the caller sees it;
// parallel/worker_busy_ns accumulates per-worker busy time and
// parallel/max_workers keeps the largest resolved worker count, so
// busy / (wall · max_workers) is the pool occupancy. Both gauges are
// timing/capacity detail, excluded from canonical snapshots.

// begin records the start of one call over n tasks on w resolved
// workers. With a nil registry it records nothing and does not read the
// clock.
func begin(r *obs.Registry, n, w int) time.Time {
	if r == nil {
		return time.Time{}
	}
	r.Counter("parallel/calls").Inc()
	r.Counter("parallel/tasks").Add(int64(n))
	r.Gauge("parallel/max_workers").Max(int64(w))
	return time.Now()
}

// end closes the call record opened by begin.
func end(r *obs.Registry, start time.Time) {
	if r != nil {
		r.Histogram("parallel/call_wall").Observe(time.Since(start))
	}
}

// busy accumulates one worker's busy interval since start.
func busy(r *obs.Registry, start time.Time) {
	if r != nil {
		r.Gauge("parallel/worker_busy_ns").Add(int64(time.Since(start)))
	}
}
