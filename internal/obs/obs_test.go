package obs

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Fatal("Counter lookup is not idempotent")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(3)
	if got := g.Load(); got != 10 {
		t.Fatalf("gauge = %d, want 10", got)
	}
	g.Max(4)
	if got := g.Load(); got != 10 {
		t.Fatalf("Max lowered the gauge to %d", got)
	}
	g.Max(25)
	if got := g.Load(); got != 25 {
		t.Fatalf("Max(25) = %d, want 25", got)
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(3)
	c.Inc()
	if c.Load() != 0 {
		t.Fatal("nil counter loaded non-zero")
	}
	g := r.Gauge("x")
	g.Set(1)
	g.Max(2)
	if g.Load() != 0 {
		t.Fatal("nil gauge loaded non-zero")
	}
	h := r.Histogram("x")
	h.Observe(time.Second)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram recorded")
	}
	sp := r.StartSpan("a")
	sp.Child("b").End()
	sp.End()
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || snap.Spans != nil {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

func TestSpanTreeAndOrdering(t *testing.T) {
	r := New()
	root := r.StartSpan("design")
	for i := 0; i < 3; i++ {
		c := root.Child("tdm")
		c.End()
	}
	root.Child("fabricate").End()
	root.End()

	snap := r.Snapshot()
	var paths []string
	counts := map[string]int64{}
	for _, sp := range snap.Spans {
		paths = append(paths, sp.Path)
		counts[sp.Path] = sp.Count
	}
	want := []string{"design", "design/fabricate", "design/tdm"}
	if !reflect.DeepEqual(paths, want) {
		t.Fatalf("span order = %v, want %v", paths, want)
	}
	if counts["design/tdm"] != 3 || counts["design"] != 1 {
		t.Fatalf("span counts wrong: %v", counts)
	}
}

// Span End is called from worker goroutines (the characterize stages
// fan out), so concurrent ends of sibling spans must aggregate cleanly.
func TestSpanConcurrentEnds(t *testing.T) {
	r := New()
	root := r.StartSpan("p")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root.Child("c").End()
		}()
	}
	wg.Wait()
	root.End()
	snap := r.Snapshot()
	for _, sp := range snap.Spans {
		if sp.Path == "p/c" && sp.Count != 16 {
			t.Fatalf("p/c count = %d, want 16", sp.Count)
		}
	}
}

func TestSnapshotStripTimings(t *testing.T) {
	r := New()
	r.Counter("jobs").Add(2)
	r.Gauge("busy_ns").Add(12345)
	r.Histogram("lat").Observe(3 * time.Millisecond)
	sp := r.StartSpan("work")
	time.Sleep(time.Millisecond)
	sp.End()

	s := r.Snapshot().StripTimings()
	if s.Counters["jobs"] != 2 {
		t.Fatalf("counter lost: %+v", s)
	}
	if s.Gauges != nil {
		t.Fatalf("gauges survived StripTimings: %v", s.Gauges)
	}
	h := s.Histograms["lat"]
	if h.Count != 1 || h.SumNs != 0 || h.P50Ns != 0 || h.P95Ns != 0 || h.P99Ns != 0 {
		t.Fatalf("histogram timing survived: %+v", h)
	}
	if len(s.Spans) != 1 || s.Spans[0].WallNs != 0 || s.Spans[0].Count != 1 {
		t.Fatalf("span timing survived: %+v", s.Spans)
	}
}

// Stripped snapshots of two registries that observed the same work must
// be deeply equal even though the raw snapshots differ in timing.
func TestStrippedSnapshotsEqualAcrossRuns(t *testing.T) {
	run := func(sleep time.Duration) Snapshot {
		r := New()
		r.Counter("ops").Add(42)
		h := r.Histogram("lat")
		h.Observe(sleep)
		h.Observe(2 * sleep)
		sp := r.StartSpan("root")
		sp.Child("leaf").End()
		sp.End()
		return r.Snapshot()
	}
	a, b := run(time.Microsecond), run(50*time.Microsecond)
	if reflect.DeepEqual(a, b) {
		t.Fatal("raw snapshots unexpectedly equal (timing should differ)")
	}
	if !reflect.DeepEqual(a.StripTimings(), b.StripTimings()) {
		t.Fatalf("stripped snapshots differ:\n%+v\n%+v", a.StripTimings(), b.StripTimings())
	}
}

// The disabled (nil) registry must be free on the hot path: no
// allocations for counter adds, histogram observes, or span open/end.
func TestDisabledRegistryZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	h := r.Histogram("x")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		h.Observe(time.Millisecond)
		sp := r.StartSpan("a")
		sp.Child("b").End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled-registry hot path allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	build := func() *Registry {
		r := New()
		r.Counter("b").Add(2)
		r.Counter("a").Add(1)
		return r
	}
	j1, err := build().Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	j2, err := build().Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("snapshot JSON not stable:\n%s\n%s", j1, j2)
	}
}

// A context carries at most one registry: the innermost NewContext
// wins, nil shadows an outer registry, and a bare context yields the
// nil registry.
func TestContextCarriesRegistry(t *testing.T) {
	bg := context.Background()
	if FromContext(bg) != nil {
		t.Fatal("bare context carries a registry")
	}
	if NewContext(bg, nil) != bg {
		t.Fatal("attaching nil to a bare context wrapped it")
	}
	a, b := New(), New()
	ca := NewContext(bg, a)
	if FromContext(ca) != a || NewContext(ca, a) != ca {
		t.Fatal("registry did not round-trip")
	}
	if FromContext(NewContext(ca, b)) != b {
		t.Fatal("inner registry did not win")
	}
	if FromContext(NewContext(ca, nil)) != nil {
		t.Fatal("nil did not shadow the outer registry")
	}
}
