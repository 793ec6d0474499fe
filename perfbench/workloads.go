package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// stream is the request stream of a serve workload, generated from its
// spec and the run's seed.
type stream struct {
	trace  *sim.Trace
	genS   float64
	reqs   []sim.Event
	shapes []string
	bodies [][]byte
	fs     []bool
}

// generate expands spec at seed. A request is first seen when its shape is
// not among known, the shapes designed before the trace starts, and not
// earlier in the trace.
func generate(spec sim.Spec, seed int64, known []sim.Event) (*stream, error) {
	t0 := time.Now()
	tr, err := sim.Generate(spec, seed)
	if err != nil {
		return nil, err
	}
	t := &stream{trace: tr, genS: time.Since(t0).Seconds(), reqs: requests(tr)}
	t.fs = firstSeen(t.reqs, known)
	for _, ev := range t.reqs {
		body, err := requestBody(ev)
		if err != nil {
			return nil, err
		}
		t.shapes = append(t.shapes, shapeKey(ev))
		t.bodies = append(t.bodies, body)
	}
	if len(t.reqs) == 0 {
		return nil, fmt.Errorf("workload %s seed %d generated no requests", spec.Name, seed)
	}
	return t, nil
}

func (t *stream) header() string {
	return fmt.Sprintf("trace %s seed %d: %.0f s, events %d, requests %d, defects %d, new shapes %d",
		t.trace.Header.Workload, t.trace.Header.Seed, float64(t.trace.Header.DurationNs)/1e9,
		t.trace.Header.Events, t.trace.Requests(), t.trace.Defects(), countTrue(t.fs))
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// hosted owns a serve workload's server, its disk tier directory and the
// first design digest of every request shape.
type hosted struct {
	dir string
	svc *service
	dg  digests
	ref *reference
}

// serveWindowS is how long serve-warm's clients run between two reference
// passes, and churnSegment how much of churn's trace is replayed between
// two.
const (
	serveWindowS = 0.5
	churnSegment = 2 * time.Second
)

// stopService stops the running server, if any, and collects its heap, so
// the next set-up does not stack its memory on the last one's garbage.
func (h *hosted) stopService() error {
	if h.svc == nil {
		return nil
	}
	err := h.svc.stop()
	h.svc = nil
	runtime.GC()
	return err
}

func (h *hosted) close() error {
	err := h.stopService()
	if rerr := os.RemoveAll(h.dir); err == nil {
		err = rerr
	}
	return err
}

// serveWarm drives a server whose every request shape was designed during
// set-up, from conns closed-loop clients: every stage lookup is a memory
// hit, so the time goes to HTTP, admission, the store and encoding.
type serveWarm struct {
	*stream
	hosted
}

func newServeWarm(seed int64, workDir string, ref *reference) (*serveWarm, error) {
	spec, err := loadSpec("serve-warm")
	if err != nil {
		return nil, err
	}
	t, err := generate(spec, seed, nil)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(workDir, fmt.Sprintf("serve-warm-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return &serveWarm{stream: t, hosted: hosted{dir: dir, ref: ref}}, nil
}

// setup restarts the server over the run's disk tier and requests every
// shape once. The first set-up designs each shape cold and writes it
// through; later ones recall it from disk, as a restarted replica would.
func (w *serveWarm) setup() error {
	if err := w.stopService(); err != nil {
		return err
	}
	svc, err := startService(w.dir)
	if err != nil {
		return err
	}
	w.svc = svc
	for i, ev := range w.reqs {
		if !w.fs[i] {
			continue
		}
		if err := w.dg.check(w.shapes[i], svc.post(w.bodies[i], ev.Client)); err != nil {
			return fmt.Errorf("pre-warm %s: %w", w.shapes[i], err)
		}
	}
	return nil
}

// measure cycles through the trace from conns clients that each send
// their next request when the last one returns.
func (w *serveWarm) measure(seconds float64, rec *recorder) (*phase, error) {
	before, err := w.svc.read()
	if err != nil {
		return nil, err
	}
	rec.install(w.svc.srv.Cache())
	type sample struct {
		i  int
		r  reply
		ok bool
	}
	var next atomic.Int64
	perConn := make([][]sample, conns)
	// The clients run in windows with a reference pass between each two,
	// and each window's CPU time is scaled by the passes around it.
	var elapsed, scaled float64
	var raw time.Duration
	pass := w.ref.pass()
	for elapsed < seconds {
		var wg sync.WaitGroup
		start, cpu0 := time.Now(), processCPU()
		deadline := start.Add(time.Duration(min(serveWindowS, seconds-elapsed) * float64(time.Second)))
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for time.Now().Before(deadline) {
					n := int(next.Add(1) - 1)
					i := n % len(w.reqs)
					span := rec.begin("request", int64(n), -1)
					r := w.svc.post(w.bodies[i], w.reqs[i].Client)
					rec.end(span)
					err := w.dg.check(w.shapes[i], r)
					if err != nil {
						fmt.Fprintf(os.Stderr, "request %d: %v\n", n, err)
					}
					perConn[c] = append(perConn[c], sample{i: i, r: r, ok: err == nil})
				}
			}(c)
		}
		wg.Wait()
		elapsed += time.Since(start).Seconds()
		cpu := processCPU() - cpu0
		raw += cpu
		next := w.ref.pass()
		scaled += scale(cpu, pass, next)
		pass = next
	}
	rec.uninstall(w.svc.srv.Cache())
	after, err := w.svc.read()
	if err != nil {
		return nil, err
	}

	ph := &phase{layer: map[string]float64{}}
	var overhead, design []float64
	var bytes int
	for _, samples := range perConn {
		for _, s := range samples {
			ph.attempted++
			if !s.ok {
				ph.failed++
				continue
			}
			ms := float64(s.r.latency.Nanoseconds()) / 1e6
			// Set-up designed every shape, so no request is first seen.
			ph.latMs = append(ph.latMs, ms)
			overhead = append(overhead, ms-s.r.elapsedMs)
			design = append(design, s.r.elapsedMs)
			bytes += s.r.bytes
		}
	}
	serverLayers(before, after, ph.layer)
	ph.layer["gen.generate_s"] = w.genS
	if n := len(ph.latMs); n > 0 {
		ph.cpuMs = scaled / float64(n)
		ph.rawCPUMs = float64(raw.Nanoseconds()) / 1e6 / float64(n)
		ph.refPassMs = median(w.ref.passMs)
		ph.layer["serve.rps"] = float64(n) / elapsed
		ph.layer["serve.response_kb"] = float64(bytes) / 1024 / float64(n)
	}
	od := summarize(overhead)
	ph.layer["serve.overhead_p50_ms"] = od.P50
	ph.layer["serve.overhead_tail_ms"] = od.Tail
	ph.layer["serve.design_p50_ms"] = median(design)
	ph.notes = append(ph.notes, w.header(),
		fmt.Sprintf("closed loop, %d clients: %d requests in %.2f s, warm_rps %.1f 1/s; serve overhead p50 %.4f ms p%g %.4f ms",
			conns, len(ph.latMs), elapsed, ph.layer["serve.rps"], od.P50, od.TailPct, od.Tail))
	return ph, nil
}

// churn replays a defect-storm trace open loop over conns connections. Each
// drift invalidates the drifting chip's fault plan and every stage after
// it, so the store is written while it is read and re-characterization
// sets the tail.
type churn struct {
	*stream
	hosted
	initial []sim.Event
	setups  int
}

func newChurn(seed int64, seconds float64, workDir string, ref *reference) (*churn, error) {
	spec, err := loadSpec("churn")
	if err != nil {
		return nil, err
	}
	// The run measures the spec's first seconds; a half-length traced
	// phase replays a prefix of the same trace.
	spec.DurationSec = seconds
	// Set-up designs the initial shapes, so their requests are repeats.
	initial := initialShapes(spec)
	t, err := generate(spec, seed, initial)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(workDir, fmt.Sprintf("churn-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return &churn{stream: t, hosted: hosted{dir: dir, ref: ref}, initial: initial}, nil
}

// initialShapes lists every request shape the spec's clients can send
// before any chip drifts.
func initialShapes(spec sim.Spec) []sim.Event {
	chips := map[string]sim.ChipSpec{}
	for _, c := range spec.Chips {
		chips[c.Name] = c
	}
	seen := map[string]bool{}
	var out []sim.Event
	for _, cl := range spec.Clients {
		for _, m := range cl.Mix {
			c := chips[m.Chip]
			for k := 0; k < max(m.Seeds, 1); k++ {
				ev := sim.Event{
					Kind: sim.KindRequest, Client: cl.ID, Chip: c.Name, Topology: c.Topology, Qubits: c.Qubits,
					Seed: c.Seed + int64(k), Theta: m.Theta, FDMCapacity: m.FDMCapacity, AnnealSteps: m.AnnealSteps,
					DefectRate: c.DefectRate,
				}
				if k := shapeKey(ev); !seen[k] {
					seen[k] = true
					out = append(out, ev)
				}
			}
		}
	}
	return out
}

// setup starts a server on a fresh disk tier and designs every shape the
// clients send before the first drift, so the run starts in the steady
// state that drift then disturbs.
func (w *churn) setup() error {
	if err := w.stopService(); err != nil {
		return err
	}
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	w.setups++
	svc, err := startService(filepath.Join(w.dir, fmt.Sprint(w.setups)))
	if err != nil {
		return err
	}
	w.svc = svc
	for _, ev := range w.initial {
		body, err := requestBody(ev)
		if err != nil {
			return err
		}
		if err := w.dg.check(shapeKey(ev), svc.post(body, ev.Client)); err != nil {
			return fmt.Errorf("pre-warm %s: %w", shapeKey(ev), err)
		}
	}
	return nil
}

// measure replays the requests due in the first seconds of the trace, in
// segments of churnSegment of trace time. Each segment is released open
// loop from its own start and drained before a reference pass, and its
// CPU time is scaled by the passes around it.
func (w *churn) measure(seconds float64, rec *recorder) (*phase, error) {
	var due []time.Duration
	for _, ev := range w.reqs {
		if float64(ev.AtNs) > seconds*1e9 {
			break
		}
		due = append(due, time.Duration(ev.AtNs))
	}
	before, err := w.svc.read()
	if err != nil {
		return nil, err
	}
	rec.install(w.svc.srv.Cache())
	ok := make([]bool, len(due))
	lat := make([]time.Duration, len(due))
	late := make([]time.Duration, len(due))
	var scaled float64
	var raw time.Duration
	pass := w.ref.pass()
	for a, seg := 0, time.Duration(0); a < len(due); seg += churnSegment {
		b, rel := a, []time.Duration(nil)
		for ; b < len(due) && due[b] < seg+churnSegment; b++ {
			rel = append(rel, due[b]-seg)
		}
		if b == a {
			continue
		}
		cpu0 := processCPU()
		l, lt := openLoop(rel, conns, func(j int) {
			i := a + j
			span := rec.begin("request", w.reqs[i].Seq, -1)
			r := w.svc.post(w.bodies[i], w.reqs[i].Client)
			rec.end(span)
			if err := w.dg.check(w.shapes[i], r); err != nil {
				fmt.Fprintf(os.Stderr, "request %d: %v\n", w.reqs[i].Seq, err)
				return
			}
			ok[i] = true
		})
		cpu := processCPU() - cpu0
		raw += cpu
		next := w.ref.pass()
		scaled += scale(cpu, pass, next)
		pass = next
		copy(lat[a:], l)
		copy(late[a:], lt)
		a = b
	}
	rec.uninstall(w.svc.srv.Cache())
	after, err := w.svc.read()
	if err != nil {
		return nil, err
	}

	ph := &phase{layer: map[string]float64{}, attempted: len(due)}
	var lateMs []float64
	lateMax := 0.0
	for i := range due {
		lateMs = append(lateMs, float64(late[i].Nanoseconds())/1e6)
		lateMax = max(lateMax, lateMs[i])
		if !ok[i] {
			ph.failed++
			continue
		}
		ph.latMs = append(ph.latMs, float64(lat[i].Nanoseconds())/1e6)
		ph.firstSeen = append(ph.firstSeen, w.fs[i])
	}
	// The share of requests that need a redesign moves from seed to seed
	// with the drift process, so the CPU time is counted per redesign: per
	// first-seen request, with the hits around them included.
	if n := countTrue(ph.firstSeen); n > 0 {
		ph.cpuMs = scaled / float64(n)
		ph.rawCPUMs = float64(raw.Nanoseconds()) / 1e6 / float64(n)
		ph.refPassMs = median(w.ref.passMs)
	}
	serverLayers(before, after, ph.layer)
	ld := summarize(lateMs)
	ph.layer["gen.generate_s"] = w.genS
	ph.layer["gen.late_tail_ms"] = ld.Tail
	ph.layer["gen.late_max_ms"] = lateMax
	ph.notes = append(ph.notes, w.header(),
		fmt.Sprintf("open loop over %d connections: %d requests due in %.1f s, %d first seen; generator late p%g %.4f ms",
			conns, len(due), seconds, countTrue(w.fs[:len(due)]), ld.TailPct, ld.Tail))
	return ph, nil
}
