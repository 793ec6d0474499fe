package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	youtiao "repro"
	"repro/internal/stage"
)

// stageNames are the pipeline stages, in pipeline order; every traced run
// reports execs and busy time for each, zero when it never executed.
var stageNames = []string{
	"fabricate", "faults", "characterize-xy", "characterize-zz",
	"partition", "fdm-group", "allocate", "anneal", "tdm",
}

// span is one timed interval of a traced run. Times are nanoseconds since
// the recorder was created.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"startNs"`
	End   int64  `json:"endNs"`
	// Parent indexes the span that caused this one, -1 when unset: stage
	// spans of the serve workloads cannot be tied to a request, because
	// the program carries no request id into the stage store.
	Parent int `json:"parent"`
	// Seq is the request's sequence number, -1 for stage spans.
	Seq int64 `json:"seq"`
}

// recorder keeps a traced run's spans in memory until the run ends. A nil
// recorder records nothing, which is how untraced runs measure.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// current is the open request span stage spans attach to, on a
	// workload that runs one design at a time; -1 otherwise.
	current atomic.Int64
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.current.Store(-1)
	return r
}

// begin opens a span and returns its index.
func (r *recorder) begin(name string, seq int64, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: -1, Parent: parent, Seq: seq})
	return len(r.spans) - 1
}

// end closes span i.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// install wraps every real stage execution of cache in a span; memory and
// disk hits never reach the wrapper.
func (r *recorder) install(cache *youtiao.SharedCache) {
	if r == nil {
		return
	}
	cache.WrapExec(func(name string, _ stage.Key, fn func(context.Context) (any, error)) func(context.Context) (any, error) {
		return func(ctx context.Context) (any, error) {
			i := r.begin(name, -1, int(r.current.Load()))
			defer r.end(i)
			return fn(ctx)
		}
	})
}

// uninstall removes the wrapper install put on cache.
func (r *recorder) uninstall(cache *youtiao.SharedCache) {
	if r != nil {
		cache.WrapExec(nil)
	}
}

// stageLedger sums the stage spans: executions and busy seconds per stage.
func (r *recorder) stageLedger() (execs map[string]int, busy map[string]float64) {
	execs, busy = map[string]int{}, map[string]float64{}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.Seq >= 0 {
			continue
		}
		execs[s.Name]++
		busy[s.Name] += float64(s.End-s.Start) / 1e9
	}
	return execs, busy
}

// designLedger returns, for each request span that has stage spans under
// it, its wall time and the part of it no stage span covers, in
// milliseconds.
func (r *recorder) designLedger() (wall, uncovered []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i, s := range r.spans {
		kids, ok := children[i]
		if !ok {
			continue
		}
		wall = append(wall, float64(s.End-s.Start)/1e6)
		uncovered = append(uncovered, float64(s.End-s.Start-covered(kids))/1e6)
	}
	return wall, uncovered
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curStart, curEnd int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curStart, curEnd, open = x[0], x[1], true
		case x[0] > curEnd:
			total += curEnd - curStart
			curStart, curEnd = x[0], x[1]
		case x[1] > curEnd:
			curEnd = x[1]
		}
	}
	if open {
		total += curEnd - curStart
	}
	return total
}

// write stores the spans as JSON lines under dir.
func (r *recorder) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
