package crosstalk

import (
	"sync/atomic"

	"repro/internal/obs"
)

// fitObs caches the resolved characterization counters.
//
// All four are deterministic: the grid is fixed by FitConfig, trimming
// is a pure function of the sample set, and the pipeline issues the
// same Predict calls for any worker count.
type fitObs struct {
	fits        *obs.Counter
	candidates  *obs.Counter
	trimmed     *obs.Counter
	predictions *obs.Counter
}

var observer atomic.Pointer[fitObs]

// Observe routes characterization instrumentation into r; nil disables
// it. Process-global, like parallel.Observe.
func Observe(r *obs.Registry) {
	if r == nil {
		observer.Store(nil)
		return
	}
	observer.Store(&fitObs{
		fits:        r.Counter("crosstalk/fits"),
		candidates:  r.Counter("crosstalk/fit_candidates"),
		trimmed:     r.Counter("crosstalk/trimmed_samples"),
		predictions: r.Counter("crosstalk/predictions"),
	})
}
