package sim

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	youtiao "repro"
	"repro/internal/serve"
)

// TestServerDriverClassification: every status code of the serving
// contract maps onto its outcome class, and a dead endpoint is a
// transport outcome.
func TestServerDriverClassification(t *testing.T) {
	cases := []struct {
		status int
		want   string
	}{
		{http.StatusOK, OutcomeOK},
		{http.StatusTooManyRequests, OutcomeShed},
		{http.StatusServiceUnavailable, OutcomeShed},
		{http.StatusBadRequest, OutcomeBadRequest},
		{http.StatusGatewayTimeout, OutcomeTimeout},
		{http.StatusUnprocessableEntity, OutcomeFailed},
		{http.StatusInternalServerError, OutcomeFailed},
	}
	var status int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(status)
	}))
	defer srv.Close()
	d := NewServerDriver(srv.URL, time.Second)
	ev := Event{Kind: KindRequest, Client: "t", Chip: "a", Topology: "square", Qubits: 4}
	for _, tc := range cases {
		status = tc.status
		if got := d.Design(context.Background(), ev); got.Class != tc.want {
			t.Errorf("status %d -> %q, want %q", tc.status, got.Class, tc.want)
		}
	}

	srv.Close()
	if got := d.Design(context.Background(), ev); got.Class != OutcomeTransport {
		t.Errorf("dead endpoint -> %q, want %q", got.Class, OutcomeTransport)
	}
}

// TestServerDriverRequestShape: the driver posts the event's
// materialized options as a serve.DesignRequest and carries the tenant
// id on the X-Client-ID header.
func TestServerDriverRequestShape(t *testing.T) {
	var (
		mu     sync.Mutex
		gotReq serve.DesignRequest
		gotID  string
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		gotID = r.Header.Get(serve.ClientIDHeader)
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&gotReq); err != nil {
			t.Errorf("request body does not decode as DesignRequest: %v", err)
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	theta := 2.5
	ev := Event{
		Kind: KindRequest, Client: "tenant-alpha", Chip: "fab-a",
		Topology: "hexagon", Qubits: 12, Seed: 5,
		Theta: &theta, FDMCapacity: 3, AnnealSteps: 40, DefectRate: 0.01,
	}
	d := NewServerDriver(srv.URL, 2*time.Second)
	if got := d.Design(context.Background(), ev); got.Class != OutcomeOK {
		t.Fatalf("Design = %+v", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if gotID != "tenant-alpha" {
		t.Errorf("%s header = %q", serve.ClientIDHeader, gotID)
	}
	if gotReq.Topology != "hexagon" || gotReq.Qubits != 12 || gotReq.Seed != 5 {
		t.Errorf("chip fields drifted: %+v", gotReq)
	}
	if gotReq.Theta == nil || *gotReq.Theta != theta {
		t.Errorf("theta = %v, want %g", gotReq.Theta, theta)
	}
	if gotReq.FDMCapacity != 3 || gotReq.AnnealSteps != 40 || gotReq.DefectRate != 0.01 {
		t.Errorf("option fields drifted: %+v", gotReq)
	}
	if gotReq.TimeoutMs != 2000 {
		t.Errorf("timeoutMs = %d, want 2000", gotReq.TimeoutMs)
	}
}

// TestLibraryDriverMirrorsServe: one trace run against the library
// driver and against an in-process serve handler lands every request in
// the same outcome class (the cross-target comparability contract).
func TestLibraryDriverMirrorsServe(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-target replay in -short mode")
	}
	tr := mustGenerate(t, "steady-state", 3)

	lib := NewLibraryDriver(youtiao.NewSharedCache(youtiao.CacheConfig{}), 1)
	libSum, err := Run(context.Background(), tr, lib, RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	hs, err := serve.New(serve.Config{MaxInFlight: 4, RequestTimeout: time.Minute, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(hs.Handler())
	defer web.Close()
	srvSum, err := Run(context.Background(), tr, NewServerDriver(web.URL, time.Minute), RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	if libSum.Outcomes[OutcomeOK] != len(tr.Events) || srvSum.Outcomes[OutcomeOK] != len(tr.Events) {
		t.Fatalf("outcome classes diverged: library %v, server %v", libSum.Outcomes, srvSum.Outcomes)
	}

	// The server's per-tenant accounting saw the trace's clients.
	stats := hs.ClientStats()
	for id, cs := range libSum.Clients {
		if stats[id].OK != int64(cs.OK) {
			t.Errorf("server tallied %d ok for %s, trace completed %d", stats[id].OK, id, cs.OK)
		}
	}
}

// The library driver validates an event as the server validates the
// request body it stands for: out-of-range chips are bad requests.
func TestLibraryDriverValidatesLikeServe(t *testing.T) {
	lib := NewLibraryDriver(youtiao.NewSharedCache(youtiao.CacheConfig{}), 1)
	for _, q := range []int{1, serve.DefaultMaxQubits + 1} {
		out := lib.Design(context.Background(), Event{Kind: KindRequest, Topology: "square", Qubits: q})
		if out.Class != OutcomeBadRequest {
			t.Errorf("qubits %d: outcome %q (%s), want %q", q, out.Class, out.Detail, OutcomeBadRequest)
		}
	}
}
