package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/graph"
)

func newRobustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	g := gen.Community(400, 5)
	s, err := NewWithConfig(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	t.Cleanup(fault.Clear)
	return s
}

func doJSON(s *Server, method, target, body string) *httptest.ResponseRecorder {
	var r *http.Request
	if body != "" {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		r = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// TestClientDisconnectAbortsEstimate: a request whose context is canceled
// mid-run must get an error promptly AND the underlying compute must be
// abandoned (its flight context canceled) within 100ms.
func TestClientDisconnectAbortsEstimate(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2})
	entered := make(chan struct{})
	aborted := make(chan error, 1)
	restore := fault.Set("server.estimate", func(ctx context.Context) error {
		close(entered)
		err := fault.Sleep(ctx, 5*time.Second)
		aborted <- err
		return err
	})
	defer restore()

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(`{}`)).WithContext(ctx)
	respCh := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		respCh <- w
	}()
	<-entered
	canceledAt := time.Now()
	cancel()
	w := <-respCh
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", w.Code, w.Body)
	}
	select {
	case err := <-aborted:
		if !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("compute finished with %v, want ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("compute not abandoned after client disconnect")
	}
	if latency := time.Since(canceledAt); latency > 100*time.Millisecond {
		t.Fatalf("compute abandoned %v after disconnect (want ≤100ms)", latency)
	}
}

// TestSingleflightDedup: concurrent requests with identical parameters
// (modulo technique-string spelling) share one estimation run, and a later
// identical request is served from the cache without recomputing.
func TestSingleflightDedup(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2})
	var runs atomic.Int64
	restore := fault.Set("server.estimate", func(ctx context.Context) error {
		runs.Add(1)
		return fault.Sleep(ctx, 50*time.Millisecond) // hold the flight open so all callers join it
	})
	defer restore()

	spellings := []string{"BRIC", "bric", "CIRB", "bRiC"}
	var wg sync.WaitGroup
	codes := make([]int, 8)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"techniques":%q,"fraction":0.2,"seed":1}`, spellings[i%len(spellings)])
			codes[i] = doJSON(s, http.MethodPost, "/v1/estimate", body).Code
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d", i, c)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("identical concurrent requests ran %d estimations, want 1", got)
	}
	if w := doJSON(s, http.MethodPost, "/v1/estimate", `{"techniques":"cirb","fraction":0.2,"seed":1}`); w.Code != http.StatusOK {
		t.Fatalf("cached request: status %d", w.Code)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("cached request recomputed (runs=%d, want 1)", got)
	}
}

// TestShedLoadWith429: when every estimation slot is busy, a request with
// different parameters is shed with 429 and a Retry-After hint instead of
// queuing behind the running estimate.
func TestShedLoadWith429(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2, MaxInflight: 1})
	entered := make(chan struct{})
	restore := fault.Set("server.estimate", func(ctx context.Context) error {
		select {
		case entered <- struct{}{}:
		default:
		}
		return fault.Sleep(ctx, 5*time.Second)
	})
	defer restore()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(`{"seed":1}`)).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		s.ServeHTTP(httptest.NewRecorder(), req)
		close(done)
	}()
	<-entered

	w := doJSON(s, http.MethodPost, "/v1/estimate", `{"seed":2}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	// Top-k shares the admission bound.
	if w := doJSON(s, http.MethodGet, "/v1/topk?k=3", ""); w.Code != http.StatusTooManyRequests {
		t.Fatalf("topk status = %d, want 429", w.Code)
	}
	cancel()
	<-done
}

// TestPanicRecovery: a crash inside an estimation run answers 500 and the
// daemon keeps serving; same for a crash in the HTTP handler path.
func TestPanicRecovery(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2})
	restore := fault.Set("server.estimate", fault.Panic("estimation crashed"))
	if w := doJSON(s, http.MethodPost, "/v1/estimate", `{}`); w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", w.Code, w.Body)
	}
	restore()
	if w := doJSON(s, http.MethodPost, "/v1/estimate", `{}`); w.Code != http.StatusOK {
		t.Fatalf("post-crash request: status %d, want 200; body %s", w.Code, w.Body)
	}

	restore = fault.Set("server.handle", fault.Panic("handler crashed"))
	if w := doJSON(s, http.MethodGet, "/healthz", ""); w.Code != http.StatusInternalServerError {
		t.Fatalf("handler crash: status %d, want 500", w.Code)
	}
	restore()
	if w := doJSON(s, http.MethodGet, "/healthz", ""); w.Code != http.StatusOK {
		t.Fatalf("post-crash health: status %d, want 200", w.Code)
	}
}

// TestRequestTimeout504: a request-scoped deadline that fires mid-run maps
// to 504 Gateway Timeout.
func TestRequestTimeout504(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2})
	restore := fault.Set("server.estimate", fault.Delay(5*time.Second))
	defer restore()
	w := doJSON(s, http.MethodPost, "/v1/estimate?timeout=30ms", `{}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", w.Code, w.Body)
	}
}

// TestReadsUnblockedDuringEstimate: liveness and graph reads answer
// immediately while an estimation run is in flight (the old implementation
// serialised them behind the run's lock).
func TestReadsUnblockedDuringEstimate(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2})
	entered := make(chan struct{})
	restore := fault.Set("server.estimate", func(ctx context.Context) error {
		close(entered)
		return fault.Sleep(ctx, 5*time.Second)
	})
	defer restore()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(`{}`)).WithContext(ctx)
	done := make(chan struct{})
	go func() {
		s.ServeHTTP(httptest.NewRecorder(), req)
		close(done)
	}()
	<-entered

	start := time.Now()
	for _, target := range []string{"/healthz", "/readyz", "/v1/graph", "/v1/distance?from=0&to=1"} {
		if w := doJSON(s, http.MethodGet, target, ""); w.Code != http.StatusOK {
			t.Fatalf("%s: status %d during in-flight estimate", target, w.Code)
		}
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("reads blocked %v behind in-flight estimate", took)
	}
	cancel()
	<-done
}

// TestValidation400: malformed parameters are rejected at the boundary with
// 400, before any compute is admitted.
func TestValidation400(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2})
	cases := []struct {
		method, target, body string
	}{
		{http.MethodPost, "/v1/estimate", `{"fraction":0}`},
		{http.MethodPost, "/v1/estimate", `{"fraction":-0.5}`},
		{http.MethodPost, "/v1/estimate", `{"fraction":1.5}`},
		{http.MethodPost, "/v1/estimate", `{"techniques":"XYZ"}`},
		{http.MethodPost, "/v1/estimate?timeout=nonsense", `{}`},
		{http.MethodPost, "/v1/estimate?timeout=-5s", `{}`},
		{http.MethodGet, "/v1/farness/0?fraction=2", ""},
		{http.MethodGet, "/v1/topk?k=0", ""},
		{http.MethodGet, "/v1/topk?k=-3", ""},
		{http.MethodGet, "/v1/topk?fraction=0", ""},
	}
	for _, c := range cases {
		if w := doJSON(s, c.method, c.target, c.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s %s %s: status %d, want 400", c.method, c.target, c.body, w.Code)
		}
	}
}

// TestWorkersPlumbed: the server's worker bound reaches the estimation
// options (the old code dropped it on the floor).
func TestWorkersPlumbed(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 3})
	_, opts, err := s.resolve(estimateParams{Techniques: "BRIC", Fraction: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if opts.Workers != 3 {
		t.Fatalf("opts.Workers = %d, want 3", opts.Workers)
	}
}

// TestKeyNormalization: the cache key comes from the parsed technique mask,
// so spelling variants resolve to one entry.
func TestKeyNormalization(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2})
	k1, _, err := s.resolve(estimateParams{Techniques: "bric", Fraction: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	k2, _, err := s.resolve(estimateParams{Techniques: "CIRB", Fraction: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("keys differ for spelling variants: %q vs %q", k1, k2)
	}
	k3, _, err := s.resolve(estimateParams{Techniques: "BR", Fraction: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k3 {
		t.Fatalf("distinct techniques share key %q", k1)
	}
	// The key is exactly techniques/fraction/seed, and the engine knobs stay
	// at their defaults.
	_, opts, err := s.resolve(estimateParams{Techniques: "bric", Fraction: 0.2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(k1, "/") != 2 {
		t.Fatalf("key %q is not techniques/fraction/seed", k1)
	}
	if opts.Traversal != core.TraversalAuto || opts.Batching != core.BatchingAuto || opts.Relabel != graph.RelabelNone {
		t.Fatalf("non-default engine knobs: %v %v %v", opts.Traversal, opts.Batching, opts.Relabel)
	}
}

// TestBodyUnknownField400: a body naming a field the endpoint does not take
// — such as the removed "traversal" knob — is a 400 that names the field,
// not a silently ignored option.
func TestBodyUnknownField400(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2})
	for _, c := range []struct{ target, body, field string }{
		{"/v1/estimate", `{"seed":3,"traversal":"per-source"}`, "traversal"},
		{"/v1/edges", `{"u":1,"v":2,"weight":3}`, "weight"},
	} {
		w := doJSON(s, http.MethodPost, c.target, c.body)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), c.field) {
			t.Errorf("POST %s %s: status %d body %s, want 400 naming %q", c.target, c.body, w.Code, w.Body, c.field)
		}
	}
}

// TestBodyTooLarge413: an oversized JSON body is cut off at maxBodyBytes and
// answered 413, on both endpoints that take one.
func TestBodyTooLarge413(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2})
	pad := strings.Repeat(" ", maxBodyBytes)
	for _, target := range []string{"/v1/estimate", "/v1/edges"} {
		if w := doJSON(s, http.MethodPost, target, pad+`{}`); w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", target, len(pad)+2, w.Code)
		}
	}
}

// TestCloseAbortsInflight: Close cancels running estimates (503) and flips
// readiness so /readyz reports draining.
func TestCloseAbortsInflight(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2})
	entered := make(chan struct{})
	restore := fault.Set("server.estimate", func(ctx context.Context) error {
		close(entered)
		return fault.Sleep(ctx, 5*time.Second)
	})
	defer restore()
	respCh := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/estimate", strings.NewReader(`{}`)))
		respCh <- w
	}()
	<-entered
	s.Close()
	w := <-respCh
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", w.Code, w.Body)
	}
	if w := doJSON(s, http.MethodGet, "/readyz", ""); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after Close: status %d, want 503", w.Code)
	}
}

// TestMutationInstallsFreshGeneration: an edge update invalidates the cache
// atomically — the same params recompute against the new snapshot.
func TestMutationInstallsFreshGeneration(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 2})
	var runs atomic.Int64
	restore := fault.Set("server.estimate", func(ctx context.Context) error {
		runs.Add(1)
		return nil
	})
	defer restore()
	if w := doJSON(s, http.MethodPost, "/v1/estimate", `{}`); w.Code != http.StatusOK {
		t.Fatalf("estimate: status %d", w.Code)
	}
	var before graphBody
	if w := doJSON(s, http.MethodGet, "/v1/graph", ""); true {
		_ = json.NewDecoder(w.Body).Decode(&before)
	}
	// Find a node not adjacent to 0 so the insert is a real new edge.
	g := s.gen.Load().g
	v := -1
	for cand := 1; cand < g.NumNodes(); cand++ {
		if !g.HasEdge(0, graph.NodeID(cand)) {
			v = cand
			break
		}
	}
	if v < 0 {
		t.Fatal("no non-adjacent node found")
	}
	if w := doJSON(s, http.MethodPost, "/v1/edges", fmt.Sprintf(`{"u":0,"v":%d}`, v)); w.Code != http.StatusOK {
		t.Fatalf("edge insert: status %d; body %s", w.Code, w.Body)
	}
	var after graphBody
	if w := doJSON(s, http.MethodGet, "/v1/graph", ""); true {
		_ = json.NewDecoder(w.Body).Decode(&after)
	}
	if after.Edges != before.Edges+1 {
		t.Fatalf("edges %d after insert, want %d", after.Edges, before.Edges+1)
	}
	if w := doJSON(s, http.MethodPost, "/v1/estimate", `{}`); w.Code != http.StatusOK {
		t.Fatalf("re-estimate: status %d", w.Code)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("estimations after mutation = %d, want 2 (cache must be invalidated)", got)
	}
}
