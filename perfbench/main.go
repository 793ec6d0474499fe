// Command perfbench is the design service's benchmark. It runs one seeded
// workload against the library or an in-process youtiao-serve on a
// loopback listener, checks every design it gets back, and prints its
// metrics; the last line of standard output is one JSON result.
//
//	perfbench --workload churn --seed 3 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the run measures half its time untraced and half traced, keeps the
// traced half's spans in memory, writes them under .bench_build/spans at
// the end, and reports the per-layer metrics. NOTES.md says why each
// workload exists and which end-to-end metric each per-layer metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// setupRepeats is how many times a run builds its system under test before
// it measures, and again after: setup_s is the median of their CPU times.
const setupRepeats = 5

type metricDef struct{ name, unit string }

// endToEnd are the metrics every workload reports untraced. Both are CPU
// time, which time the process waits for a CPU does not inflate, scaled by
// a reference task (reference.go) so that the host's speed modes do not
// move them either; NOTES.md maps them onto each workload and says why.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms", "ms"},
}

// perLayer are the metrics every workload reports traced, zero where the
// workload does not reach the layer.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, s := range stageNames {
		defs = append(defs, metricDef{"stage." + s + ".execs", "count"}, metricDef{"stage." + s + ".busy_s", "s"})
	}
	return append(defs,
		metricDef{"p50_ms", "ms"},
		metricDef{"tail_ms", "ms"},
		metricDef{"first_seen_p50_ms", "ms"},
		metricDef{"peak_rss_mb", "MB"},
		metricDef{"design.uncovered_ms", "ms"},
		metricDef{"store.hits", "count"},
		metricDef{"store.misses", "count"},
		metricDef{"store.singleflight_waits", "count"},
		metricDef{"store.evictions", "count"},
		metricDef{"store.hit_ratio", "ratio"},
		metricDef{"cas.disk_hits", "count"},
		metricDef{"cas.disk_entries", "count"},
		metricDef{"cas.disk_bytes", "bytes"},
		metricDef{"cas.decode_errors", "count"},
		metricDef{"cas.write_p50_ms", "ms"},
		metricDef{"serve.rps", "1/s"},
		metricDef{"serve.overhead_p50_ms", "ms"},
		metricDef{"serve.overhead_tail_ms", "ms"},
		metricDef{"serve.design_p50_ms", "ms"},
		metricDef{"serve.response_kb", "kB"},
		metricDef{"serve.shed", "count"},
		metricDef{"serve.timeouts", "count"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_pause_ms", "ms"},
		metricDef{"go.alloc_kb_per_req", "kB"},
		metricDef{"gen.generate_s", "s"},
		metricDef{"gen.late_tail_ms", "ms"},
		metricDef{"gen.late_max_ms", "ms"},
		metricDef{"failed_ratio", "ratio"},
		metricDef{"trace.overhead_ratio", "ratio"},
		metricDef{"host.steal_ratio", "ratio"},
		metricDef{"host.ref_pass_ms", "ms"},
		metricDef{"cpu.unscaled_ms", "ms"},
	)
}()

// phase is what one measured stretch of a workload produced.
type phase struct {
	// latMs holds each completed request's latency; firstSeen marks the
	// requests whose shape is new to the service that answered them, and
	// is empty when none is.
	latMs     []float64
	firstSeen []bool
	attempted int
	failed    int
	// layer holds the per-layer metrics the workload itself measures.
	layer map[string]float64
	// cpuMs is the process CPU time, all threads, per unit of work,
	// scaled by the reference: the median over designs on the cold rungs,
	// the measured stretch's total over its completed requests on
	// serve-warm and over its first-seen requests on churn.
	cpuMs float64
	// rawCPUMs is cpuMs before scaling, and refPassMs the median CPU time
	// of the reference passes it was scaled by.
	rawCPUMs, refPassMs float64
	// notes are human-readable lines for the report.
	notes []string
}

// workload is one benchmark workload. setup builds the system under test
// from scratch, replacing any earlier build; measure drives it for a time.
type workload interface {
	setup() error
	measure(seconds float64, rec *recorder) (*phase, error)
	close() error
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloadNames = []string{"cold-36", "cold-144", "cold-400", "serve-warm", "churn"}

func newWorkload(name string, seed int64, seconds float64, workDir string, ref *reference) (workload, error) {
	if r, ok := rungs[name]; ok {
		return newCold(r, seed, ref)
	}
	switch name {
	case "serve-warm":
		return newServeWarm(seed, workDir, ref)
	case "churn":
		return newChurn(seed, seconds, workDir, ref)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	workDir := flag.String("work-dir", ".bench_build/work", "scratch directory for disk tiers")
	spanDir := flag.String("span-dir", ".bench_build/spans", "where a traced run writes its spans")
	record := flag.String("record", "", "design the cold rungs at design seeds 1.."+fmt.Sprint(recordSeeds)+" with Workers 1 and 2 and write their expected outputs to this file")
	flag.Parse()

	if *record != "" {
		if err := recordExpected(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, *seconds, *trace == 1, *workDir, *spanDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, workDir, spanDir string) (res *result, err error) {
	// Each workload's reference has the instruction mix closest to its
	// own: churn's CPU time is ~80% forest fit, the rest mostly HTTP, disk
	// writes and the garbage collector.
	ref := newFitReference()
	switch name {
	case "serve-warm":
		ref, err = newServeReference(160)
	case "churn":
		ref, err = newMixedReference(40)
	}
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := ref.close(); err == nil && rerr != nil {
			err = rerr
		}
	}()
	w, err := newWorkload(name, seed, seconds, workDir, ref)
	if err != nil {
		return nil, err
	}
	if traced {
		res, err = runTraced(w, ref, name, seed, seconds, spanDir)
	} else {
		res, err = runUntraced(w, ref, name, seed, seconds)
	}
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	return res, err
}

// setUp builds the workload's system setupRepeats times, appending each
// set-up's CPU time, scaled by the reference passes around it, to setups.
func setUp(w workload, ref *reference, setups []float64) ([]float64, error) {
	pass := ref.pass()
	for i := 0; i < setupRepeats; i++ {
		cpu0 := processCPU()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		cpu := processCPU() - cpu0
		next := ref.pass()
		setups = append(setups, scale(cpu, pass, next)/1e3)
		pass = next
	}
	return setups, nil
}

func runUntraced(w workload, ref *reference, name string, seed int64, seconds float64) (*result, error) {
	setups, err := setUp(w, ref, nil)
	if err != nil {
		return nil, err
	}
	ph, err := w.measure(seconds, nil)
	if err != nil {
		return nil, err
	}
	if setups, err = setUp(w, ref, setups); err != nil {
		return nil, err
	}
	fmt.Printf("%s seed %d: setup_s %.4f s scaled CPU (median of %v)\n", name, seed, median(setups), roundAll(setups))
	return endToEndResult(ph, median(setups))
}

func runTraced(w workload, ref *reference, name string, seed int64, seconds float64, spanDir string) (*result, error) {
	if _, err := setUp(w, ref, nil); err != nil {
		return nil, err
	}
	base, err := w.measure(seconds/2, nil)
	if err != nil {
		return nil, err
	}
	// A fresh set-up, so churn's traced half also starts on an empty disk
	// tier.
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	rec := newRecorder()
	before, cpuBefore := readRuntime(), readCPU()
	ph, err := w.measure(seconds/2, rec)
	if err != nil {
		return nil, err
	}
	rt, cpu := readRuntime().sub(before), readCPU().sub(cpuBefore)
	path, err := rec.write(spanDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
	if err != nil {
		return nil, err
	}
	fmt.Printf("spans: %s\n", path)
	ph.layer["host.steal_ratio"] = cpu.stealRatio()
	res, err := perLayerResult(ph, base, rec, rt)
	if err != nil {
		return nil, err
	}
	// The untraced half's requests were checked too.
	res.Attempted += base.attempted
	res.Failed += base.failed
	res.Correct = res.Failed == 0
	return res, nil
}

func endToEndResult(ph *phase, setupS float64) (*result, error) {
	all := summarize(ph.latMs)
	if all.N == 0 {
		return nil, fmt.Errorf("no request completed")
	}
	for _, n := range ph.notes {
		fmt.Println(n)
	}
	fmt.Printf("cpu_ms %.4f ms (unscaled %.4f ms, reference pass p50 %.2f ms); wall p50_ms %.4f ms, tail_ms p%g %.4f ms (n=%d)\n",
		ph.cpuMs, ph.rawCPUMs, ph.refPassMs, all.P50, all.TailPct, all.Tail, all.N)
	if ph.cpuMs <= 0 {
		return nil, fmt.Errorf("no CPU time measured")
	}
	vals := map[string]float64{
		"setup_s": setupS,
		"cpu_ms":  ph.cpuMs,
	}
	return finish(ph, endToEnd, vals, true)
}

func perLayerResult(ph, base *phase, rec *recorder, rt runtimeDelta) (*result, error) {
	vals := map[string]float64{}
	for k, v := range ph.layer {
		vals[k] = v
	}
	execs, busy := rec.stageLedger()
	for _, s := range stageNames {
		vals["stage."+s+".execs"] = float64(execs[s])
		vals["stage."+s+".busy_s"] = busy[s]
	}
	var fresh []float64
	for i, f := range ph.firstSeen {
		if f {
			fresh = append(fresh, ph.latMs[i])
		}
	}
	first := summarize(fresh)
	all := summarize(ph.latMs)
	vals["p50_ms"] = all.P50
	vals["cpu.unscaled_ms"] = ph.rawCPUMs
	vals["host.ref_pass_ms"] = ph.refPassMs
	vals["tail_ms"] = all.Tail
	vals["first_seen_p50_ms"] = first.P50
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	vals["peak_rss_mb"] = rss
	wall, uncovered := rec.designLedger()
	vals["design.uncovered_ms"] = median(uncovered)
	if len(wall) > 0 {
		// Characterize's two channels run concurrently, so stage busy
		// times add up to more than the wall time they cover.
		k := float64(len(wall))
		fmt.Printf("ledger per design (n=%d): wall p50 %.1f ms, uncovered p50 %.2f ms; mean busy: characterize-xy %.1f ms, characterize-zz %.1f ms, allocate %.1f ms\n",
			len(wall), median(wall), median(uncovered),
			busy["characterize-xy"]*1e3/k, busy["characterize-zz"]*1e3/k, busy["allocate"]*1e3/k)
	}
	n := float64(len(ph.latMs))
	vals["go.gc_cycles"] = float64(rt.gcCycles)
	vals["go.gc_pause_ms"] = rt.gcPause.Seconds() * 1e3
	if n > 0 {
		vals["go.alloc_kb_per_req"] = float64(rt.allocBytes) / 1024 / n
	}
	if ph.attempted > 0 {
		vals["failed_ratio"] = float64(ph.failed) / float64(ph.attempted)
	}
	if base.cpuMs > 0 {
		vals["trace.overhead_ratio"] = ph.cpuMs / base.cpuMs
	}
	for _, n := range ph.notes {
		fmt.Println(n)
	}
	fmt.Printf("tail_ms is p%g of %d requests; first seen: %d requests\n", all.TailPct, all.N, first.N)
	for _, d := range perLayer {
		fmt.Printf("  %-32s %-6s %g\n", d.name, d.unit, vals[d.name])
	}
	return finish(ph, perLayer, vals, false)
}

// finish assembles the result over exactly defs. With requireAll unset a
// def with no value is a layer the workload does not reach, reported as
// zero.
func finish(ph *phase, defs []metricDef, vals map[string]float64, requireAll bool) (*result, error) {
	res := &result{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && requireAll {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no request attempted")
	}
	return res, nil
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.4f", x)
	}
	return out
}

// runtimeDelta is the Go runtime's work between two readings.
type runtimeDelta struct {
	gcCycles   uint32
	gcPause    time.Duration
	allocBytes uint64
}

type runtimeReading struct{ ms runtime.MemStats }

func readRuntime() runtimeReading {
	var r runtimeReading
	runtime.ReadMemStats(&r.ms)
	return r
}

func (r runtimeReading) sub(earlier runtimeReading) runtimeDelta {
	return runtimeDelta{
		gcCycles:   r.ms.NumGC - earlier.ms.NumGC,
		gcPause:    time.Duration(r.ms.PauseTotalNs - earlier.ms.PauseTotalNs),
		allocBytes: r.ms.TotalAlloc - earlier.ms.TotalAlloc,
	}
}

// cpuReading is the machine's CPU time in clock ticks, from /proc/stat:
// all of it, and the part the hypervisor gave to other guests.
type cpuReading struct{ total, steal int64 }

// readCPU reads /proc/stat; a machine without it reads as zero.
func readCPU() cpuReading {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuReading{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var r cpuReading
	// user nice system idle iowait irq softirq steal, then guest time,
	// which user and nice already count.
	for i, f := range strings.Fields(line)[1:] {
		var v int64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return cpuReading{}
		}
		switch {
		case i == 7:
			r.steal = v
			r.total += v
		case i < 7:
			r.total += v
		}
	}
	return r
}

func (r cpuReading) sub(earlier cpuReading) cpuReading {
	return cpuReading{total: r.total - earlier.total, steal: r.steal - earlier.steal}
}

// stealRatio is the share of the machine's CPU time stolen by the host.
func (r cpuReading) stealRatio() float64 {
	if r.total <= 0 {
		return 0
	}
	return float64(r.steal) / float64(r.total)
}

// processCPU is the CPU time every thread of the process has used so far.
// Time the host takes a CPU away from the process is not in it.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size, from VmHWM.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak rss: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("peak rss: parse %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak rss: no VmHWM in /proc/self/status")
}
