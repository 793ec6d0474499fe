package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	youtiao "repro"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
)

// conns is the number of client connections: the machine's CPU count the
// benchmark was sized on, so the client never outnumbers the server.
const conns = 2

// service is an in-process youtiao-serve on a loopback listener, with a
// disk tier as a deployed -cache-dir server has.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
}

func startService(cacheDir string) (*service, error) {
	srv, err := serve.New(serve.Config{
		CacheDir: cacheDir,
		Logf:     log.New(os.Stderr, "serve: ", 0).Printf,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits for its serve loop to end.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	err := s.srv.Shutdown(ctx)
	if herr := s.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// reply is what the benchmark keeps of one /v1/design exchange.
type reply struct {
	status    int
	latency   time.Duration
	elapsedMs float64 // time inside the design call, as the server reports it
	bytes     int
	digest    [sha256.Size]byte // of the response's design object
	err       error
}

func requestBody(ev sim.Event) ([]byte, error) {
	return json.Marshal(serve.DesignRequest{
		Topology:    ev.Topology,
		Qubits:      ev.Qubits,
		Seed:        ev.Seed,
		Theta:       ev.Theta,
		FDMCapacity: ev.FDMCapacity,
		AnnealSteps: ev.AnnealSteps,
		DefectRate:  ev.DefectRate,
	})
}

func (s *service) post(body []byte, client string) reply {
	t0 := time.Now()
	req, err := http.NewRequest(http.MethodPost, s.base+"/v1/design", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(serve.ClientIDHeader, client)
	resp, err := s.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, latency: time.Since(t0), bytes: len(data), err: err}
	if err != nil || r.status != http.StatusOK {
		return r
	}
	design, elapsed, err := splitResponse(data)
	if err != nil {
		r.err = err
		return r
	}
	r.elapsedMs = elapsed
	r.digest = sha256.Sum256(design)
	return r
}

// splitResponse extracts the design object and elapsedMs of a /v1/design
// body without decoding the whole document. It relies on encoding/json
// writing DesignResponse's fields in declaration order, and fails on any
// other layout, so a change to the response format fails the run loudly.
func splitResponse(body []byte) (design []byte, elapsedMs float64, err error) {
	const head, next, tail = `{"design":`, `,"manifest":`, `,"elapsedMs":`
	i := bytes.Index(body, []byte(next))
	j := bytes.LastIndex(body, []byte(tail))
	if !bytes.HasPrefix(body, []byte(head)) || i <= len(head) || j <= i {
		return nil, 0, fmt.Errorf("response is not design, manifest, ..., elapsedMs in that order")
	}
	end := bytes.IndexByte(body[j:], '}')
	if end < 0 {
		return nil, 0, fmt.Errorf("response has no end after elapsedMs")
	}
	v, err := strconv.ParseFloat(string(body[j+len(tail):j+end]), 64)
	if err != nil {
		return nil, 0, fmt.Errorf("response elapsedMs: %w", err)
	}
	return body[len(head):i], v, nil
}

// scrape reads the server's /metrics.
func (s *service) scrape() (obs.Snapshot, error) {
	var snap obs.Snapshot
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("/metrics: http %d", resp.StatusCode)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// digests remembers each request shape's first design, which every later
// 200 response for the shape must repeat, across server restarts too.
type digests struct {
	mu    sync.Mutex
	first map[string][sha256.Size]byte
}

// check fails a reply that is not a 200 carrying its shape's design.
func (d *digests) check(shape string, r reply) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("http %d", r.status)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.first == nil {
		d.first = map[string][sha256.Size]byte{}
	}
	if first, ok := d.first[shape]; ok && first != r.digest {
		return fmt.Errorf("design of %s differs from its first response", shape)
	}
	d.first[shape] = r.digest
	return nil
}

// serverReading is the server-side state the per-layer metrics are
// deltas of.
type serverReading struct {
	snap  obs.Snapshot
	stats youtiao.CacheStats
	rep   youtiao.StageReport
}

func (s *service) read() (serverReading, error) {
	snap, err := s.scrape()
	cache := s.srv.Cache()
	return serverReading{snap: snap, stats: cache.Stats(), rep: cache.StageReport()}, err
}

// serverLayers adds the store, disk tier and server counters accrued
// between two readings to layer.
func serverLayers(a, b serverReading, layer map[string]float64) {
	counter := func(name string) float64 { return float64(b.snap.Counters[name] - a.snap.Counters[name]) }
	rep := b.rep.Sub(a.rep)
	layer["store.hits"] = float64(rep.Hits)
	layer["store.misses"] = float64(rep.Misses)
	layer["store.singleflight_waits"] = counter("stage/singleflight_waits")
	layer["store.evictions"] = float64(b.stats.Evictions - a.stats.Evictions)
	if n := rep.Hits + rep.Misses + rep.DiskHits; n > 0 {
		layer["store.hit_ratio"] = float64(rep.Hits) / float64(n)
	}
	layer["cas.disk_hits"] = float64(b.stats.DiskHits - a.stats.DiskHits)
	layer["cas.disk_entries"] = float64(b.stats.DiskEntries)
	layer["cas.disk_bytes"] = float64(b.stats.DiskBytes)
	layer["cas.decode_errors"] = float64(b.stats.DecodeErrors - a.stats.DecodeErrors)
	// A histogram cannot be differenced, so this median covers every
	// write since the server started, set-up included.
	layer["cas.write_p50_ms"] = float64(b.snap.Histograms["stage/disk_write"].P50Ns) / 1e6
	layer["serve.shed"] = counter("serve/shed")
	layer["serve.timeouts"] = counter("serve/timeouts")
}
