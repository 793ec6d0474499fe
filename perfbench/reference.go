package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"
)

// The host the benchmark was sized on runs in speed modes that last from
// seconds to many minutes, and in a slow one every instruction takes
// longer: the CPU time of a cold design, not only its wall time, rose by
// 1.8x (NOTES.md, Noise). No timing of the program alone can tell such a
// mode from slower code, so every measured stretch is paired with a pass
// of a reference task timed right before it, and its CPU time is scaled
// by refNominalMs over the pass's CPU time.
//
// A slow mode does not slow all code alike, so a workload is paired with
// the reference whose instruction mix is closest to its own. Both are
// frozen with the benchmark and call nothing in the program, so a change
// to the program moves the measured work but never the reference.
//
//   - The fit reference grows regression trees on fixed synthetic data:
//     ordering index slices by a feature through a closure, then scanning
//     prefix sums for the best split. That is the forest fit that takes
//     ~90% of a design's CPU time. It runs on as many goroutines as there
//     are Ps, as a design's workers do.
//   - The serve reference is a loopback HTTP exchange with a frozen
//     handler: it decodes a small JSON request and encodes a ~4 kB JSON
//     document, and the client reads and hashes the body, from as many
//     clients as the serve workloads have.

// refNominalMs is the CPU time, in ms, that a reference pass is scaled to.
const refNominalMs = 40

const (
	refRows     = 1024
	refFeatures = 6
	refDepth    = 7
	refMinLeaf  = 4
	refTrees    = 4 // per goroutine and pass
)

// refData is one goroutine's fixed training set.
type refData struct {
	x     [][]float64
	y     []float64
	idx   []int
	order []int
}

func newRefData(seed int64) *refData {
	rng := rand.New(rand.NewSource(seed))
	d := &refData{y: make([]float64, refRows), idx: make([]int, refRows), order: make([]int, refRows)}
	for i := 0; i < refRows; i++ {
		row := make([]float64, refFeatures)
		for f := range row {
			row[f] = rng.Float64()
		}
		d.x = append(d.x, row)
		d.y[i] = row[0]*row[1] + 0.5*row[2] - row[3]*row[3] + 0.1*rng.NormFloat64()
	}
	return d
}

// tree grows one tree over every row and returns the sum of its leaf
// values, so the work cannot be optimized away.
func (d *refData) tree() float64 {
	for i := range d.idx {
		d.idx[i] = i
	}
	return d.grow(d.idx, 0)
}

func (d *refData) grow(idx []int, depth int) float64 {
	var sum, sumSq float64
	for _, i := range idx {
		sum += d.y[i]
		sumSq += d.y[i] * d.y[i]
	}
	n := float64(len(idx))
	if depth >= refDepth || len(idx) < 2*refMinLeaf {
		return sum / n
	}
	parent := sumSq - sum*sum/n
	best, bestF, bestT := 0.0, -1, 0.0
	order := d.order[:len(idx)]
	for f := 0; f < refFeatures; f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return d.x[order[a]][f] < d.x[order[b]][f] })
		var sl, sql float64
		for k := 0; k < len(order)-1; k++ {
			v := d.y[order[k]]
			sl += v
			sql += v * v
			nl := float64(k + 1)
			if k+1 < refMinLeaf || len(order)-k-1 < refMinLeaf {
				continue
			}
			sr, sqr, nr := sum-sl, sumSq-sql, n-nl
			if gain := parent - (sql - sl*sl/nl) - (sqr - sr*sr/nr); gain > best {
				best, bestF = gain, f
				bestT = (d.x[order[k]][f] + d.x[order[k+1]][f]) / 2
			}
		}
	}
	if bestF < 0 {
		return sum / n
	}
	// Partition idx in place around the threshold.
	l, r := 0, len(idx)-1
	for l <= r {
		if d.x[idx[l]][bestF] <= bestT {
			l++
		} else {
			idx[l], idx[r] = idx[r], idx[l]
			r--
		}
	}
	if l == 0 || l == len(idx) {
		return sum / n
	}
	return d.grow(idx[:l], depth+1) + d.grow(idx[l:], depth+1)
}

// reference runs reference passes and scales measured CPU time by them.
type reference struct {
	// work runs one pass's goroutines and waits for them.
	work func()
	stop func() error
	// passMs holds every pass's CPU time, for the report.
	passMs []float64
}

// newFitReference returns the fit reference.
func newFitReference() *reference {
	var data []*refData
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		data = append(data, newRefData(int64(g+1)))
	}
	var sink float64
	return &reference{
		work: func() {
			sums := make([]float64, len(data))
			var wg sync.WaitGroup
			for g, d := range data {
				wg.Add(1)
				go func(g int, d *refData) {
					defer wg.Done()
					for t := 0; t < refTrees; t++ {
						sums[g] += d.tree()
					}
				}(g, d)
			}
			wg.Wait()
			for _, s := range sums {
				sink += s
			}
		},
		stop: func() error { return nil },
	}
}

type refRequest struct {
	Seed int64 `json:"seed"`
}

type refLine struct {
	Qubits  []int     `json:"qubits"`
	FreqGHz []float64 `json:"freqGHz"`
}

type refDocument struct {
	Name  string             `json:"name"`
	Lines []refLine          `json:"lines"`
	Cost  map[string]float64 `json:"cost"`
}

// refHandler answers a refRequest with a document built from its seed.
func refHandler(w http.ResponseWriter, r *http.Request) {
	var req refRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rng := rand.New(rand.NewSource(req.Seed))
	doc := refDocument{Name: fmt.Sprintf("square-%d", req.Seed), Cost: map[string]float64{}}
	for i := 0; i < 24; i++ {
		l := refLine{}
		for k := 0; k < 4; k++ {
			l.Qubits = append(l.Qubits, rng.Intn(400))
			l.FreqGHz = append(l.FreqGHz, 4.5+rng.Float64())
		}
		doc.Lines = append(doc.Lines, l)
		doc.Cost[fmt.Sprintf("line-%d", i)] = rng.Float64()
	}
	body, err := json.Marshal(doc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// newServeReference starts the serve reference's loopback server; a pass
// makes exchanges exchanges, split over its clients.
func newServeReference(exchanges int) (*reference, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: http.HandlerFunc(refHandler)}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	url := "http://" + ln.Addr().String() + "/"
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
	var failed error
	var mu sync.Mutex
	exchange := func(seed int64) {
		body, _ := json.Marshal(refRequest{Seed: seed})
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err == nil {
			var data []byte
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			sha256.Sum256(data)
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("http %d", resp.StatusCode)
			}
		}
		if err != nil {
			mu.Lock()
			failed = err
			mu.Unlock()
		}
	}
	return &reference{
		work: func() {
			var wg sync.WaitGroup
			for c := 0; c < conns; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := c; i < exchanges; i += conns {
						exchange(int64(i % 16))
					}
				}(c)
			}
			wg.Wait()
		},
		stop: func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			client.CloseIdleConnections()
			err := hs.Shutdown(ctx)
			if serr := <-served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
				err = serr
			}
			if err == nil && failed != nil {
				err = fmt.Errorf("serve reference: %w", failed)
			}
			return err
		},
	}, nil
}

// newMixedReference returns a reference whose pass is a fit pass and then
// a serve pass of exchanges exchanges.
func newMixedReference(exchanges int) (*reference, error) {
	fit := newFitReference()
	srv, err := newServeReference(exchanges)
	if err != nil {
		return nil, err
	}
	return &reference{
		work: func() { fit.work(); srv.work() },
		stop: srv.stop,
	}, nil
}

// pass runs one reference pass and returns its CPU time. It collects the
// heap first, so the pass neither pays for the garbage of the stretch
// before it nor leaves a collection half done for the stretch after it.
func (r *reference) pass() time.Duration {
	runtime.GC()
	cpu0 := processCPU()
	r.work()
	cpu := processCPU() - cpu0
	r.passMs = append(r.passMs, float64(cpu.Nanoseconds())/1e6)
	return cpu
}

func (r *reference) close() error { return r.stop() }

// scale converts cpu, measured between a pass that took before and one
// that took after, to ms at the reference's nominal speed.
func scale(cpu, before, after time.Duration) float64 {
	return float64(cpu.Nanoseconds()) / float64(before.Nanoseconds()+after.Nanoseconds()) * 2 * refNominalMs
}
