package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// perSourceFraction samples 7 sources of newRobustServer's RIC-reduced
// graph (270 nodes): fewer than the 8 a traversal unit needs before the Auto
// engine batches, so the run traverses its sources one at a time and its
// progress, snapshots and cancellation advance source by source.
const perSourceFraction = 0.025

// perSourceBody is the /v1/estimate body of a RIC run at perSourceFraction.
func perSourceBody(seed int) string {
	return fmt.Sprintf(`{"seed":%d,"techniques":"RIC","fraction":%g}`, seed, perSourceFraction)
}

// perSourceQuery is perSourceBody as /v1/farness query parameters.
func perSourceQuery(seed int) string {
	return fmt.Sprintf("seed=%d&techniques=RIC&fraction=%g", seed, perSourceFraction)
}

// slowFlight intercepts the next estimation flight at its entry checkpoint,
// installs a per-source delay on its progress tracker (throttling the run so
// deadlines land mid-flight, deterministically under any scheduler), and
// releases it. Returns after the throttle is installed.
func slowFlight(t *testing.T, s *Server, perSource time.Duration) {
	t.Helper()
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	restore := fault.Set("server.estimate", func(ctx context.Context) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	})
	t.Cleanup(restore)
	go func() {
		<-entered
		// The flight is registered (trackRun precedes the run goroutine) and
		// parked before EstimateContext, so its Progress is not yet in use.
		var f *flight
		for f == nil {
			s.runsMu.Lock()
			for ff := range s.runs {
				f = ff
			}
			s.runsMu.Unlock()
			if f == nil {
				time.Sleep(time.Millisecond)
			}
		}
		f.prog.OnAdvance = func(int64, int64) { time.Sleep(perSource) }
		close(release)
	}()
}

func decodeEstimate(t *testing.T, w *httptest.ResponseRecorder) estimateBody {
	t.Helper()
	var b estimateBody
	if err := json.NewDecoder(w.Body).Decode(&b); err != nil {
		t.Fatalf("bad estimate body: %v", err)
	}
	return b
}

// TestDegradeAcceptSoftDeadlineSnapshot: a degrade=accept request whose soft
// deadline lands mid-run is answered from the freshest published snapshot —
// 200, partial, with proven mean bounds around the estimate.
func TestDegradeAcceptSoftDeadlineSnapshot(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 1, SoftMargin: 100 * time.Millisecond})
	slowFlight(t, s, 80*time.Millisecond)
	w := doJSON(s, http.MethodPost, "/v1/estimate?timeout=400ms&degrade=accept", perSourceBody(500))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", w.Code, w.Body)
	}
	b := decodeEstimate(t, w)
	if !b.Partial {
		t.Fatalf("degraded answer not marked partial: %+v", b)
	}
	if b.Completed <= 0 || b.Completed >= b.Planned {
		t.Fatalf("implausible snapshot progress %d/%d", b.Completed, b.Planned)
	}
	if b.Progress <= 0 || b.Progress >= 1 {
		t.Fatalf("progress %v out of (0,1)", b.Progress)
	}
	if b.MeanLow > b.MeanFarness || b.MeanFarness > b.MeanHigh {
		t.Fatalf("mean %v outside its bounds [%v, %v]", b.MeanFarness, b.MeanLow, b.MeanHigh)
	}
}

// TestDegradeAcceptHardDeadlinePartial: with no soft window (margin wider
// than the deadline) the accepting waiter leaves at the hard deadline, the
// cancel propagates, and the run's final partial result comes back within
// the grace wait — still 200, still flagged.
func TestDegradeAcceptHardDeadlinePartial(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 1}) // default SoftMargin 500ms > timeout
	slowFlight(t, s, 80*time.Millisecond)
	w := doJSON(s, http.MethodPost, "/v1/estimate?timeout=200ms&degrade=accept", perSourceBody(510))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", w.Code, w.Body)
	}
	b := decodeEstimate(t, w)
	if !b.Partial || b.Completed <= 0 || b.Completed >= b.Planned {
		t.Fatalf("bad hard-deadline partial: %+v", b)
	}
}

// TestPartialNeverCached: after a degraded answer, the next identical request
// must run fresh and produce the exact (non-partial) result.
func TestPartialNeverCached(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 1})
	slowFlight(t, s, 40*time.Millisecond)
	w := doJSON(s, http.MethodPost, "/v1/estimate?timeout=250ms&degrade=accept", perSourceBody(520))
	if w.Code != http.StatusOK || !decodeEstimate(t, w).Partial {
		t.Fatalf("setup: expected partial 200, got %d %s", w.Code, w.Body)
	}
	gen := s.gen.Load()
	gen.mu.Lock()
	cached := len(gen.cache)
	gen.mu.Unlock()
	if cached != 0 {
		t.Fatalf("partial result entered the estimate cache (%d entries)", cached)
	}
	// Same key, generous deadline: a fresh, full run.
	w = doJSON(s, http.MethodPost, "/v1/estimate?timeout=30s&degrade=accept", perSourceBody(520))
	if w.Code != http.StatusOK {
		t.Fatalf("full rerun: %d %s", w.Code, w.Body)
	}
	if b := decodeEstimate(t, w); b.Partial {
		t.Fatalf("second run served a partial as if cached: %+v", b)
	}
	gen.mu.Lock()
	cached = len(gen.cache)
	gen.mu.Unlock()
	if cached != 1 {
		t.Fatalf("full result not cached (%d entries)", cached)
	}
}

// TestDegradeRejectStaysExactOrError: the default policy times out with 504
// rather than serving a partial.
func TestDegradeRejectStaysExactOrError(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 1})
	slowFlight(t, s, 40*time.Millisecond)
	w := doJSON(s, http.MethodPost, "/v1/estimate?timeout=200ms&degrade=reject", perSourceBody(530))
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", w.Code, w.Body)
	}
	if strings.Contains(w.Body.String(), `"partial":true`) {
		t.Fatalf("reject waiter saw partial data: %s", w.Body)
	}
}

// TestDegradeRejectPartialFlightIs503: a reject waiter whose shared flight
// degrades under it (server drain interrupts the run after progress was made)
// gets 503 + Retry-After, never the partial payload.
func TestDegradeRejectPartialFlightIs503(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 1})
	slowFlight(t, s, 40*time.Millisecond)
	respCh := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		respCh <- doJSON(s, http.MethodPost, "/v1/estimate?timeout=30s&degrade=reject", perSourceBody(540))
	}()
	// Let the throttled run bank some sources, then drain the server.
	time.Sleep(150 * time.Millisecond)
	s.Close()
	w := <-respCh
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 without a Retry-After hint")
	}
}

// TestDegradeAcceptDrainServesPartial: the same drain, but an accepting
// waiter keeps the partial the interrupted run assembled.
func TestDegradeAcceptDrainServesPartial(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 1})
	slowFlight(t, s, 40*time.Millisecond)
	respCh := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		respCh <- doJSON(s, http.MethodPost, "/v1/estimate?timeout=30s&degrade=accept", perSourceBody(550))
	}()
	time.Sleep(150 * time.Millisecond)
	s.Close()
	w := <-respCh
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", w.Code, w.Body)
	}
	if b := decodeEstimate(t, w); !b.Partial || b.Completed <= 0 {
		t.Fatalf("drained accept waiter got %+v, want a partial with progress", b)
	}
}

// TestFarnessPartialBounds: the per-node endpoint carries the node's own
// proven bounds on a degraded answer.
func TestFarnessPartialBounds(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 1, SoftMargin: 100 * time.Millisecond})
	slowFlight(t, s, 80*time.Millisecond)
	w := doJSON(s, http.MethodGet, "/v1/farness/3?timeout=400ms&degrade=accept&"+perSourceQuery(560), "")
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", w.Code, w.Body)
	}
	var b farnessBody
	if err := json.NewDecoder(w.Body).Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !b.Partial {
		t.Fatalf("degraded farness not marked partial: %+v", b)
	}
	if b.Low == nil || b.High == nil {
		t.Fatal("partial farness missing bounds")
	}
	if *b.Low > b.Farness || b.Farness > *b.High {
		t.Fatalf("farness %v outside its bounds [%v, %v]", b.Farness, *b.Low, *b.High)
	}
	if b.Progress <= 0 || b.Progress >= 1 {
		t.Fatalf("progress %v out of (0,1)", b.Progress)
	}
}

// TestDegradeValidation: an unknown degrade value is a 400.
func TestDegradeValidation(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 1})
	w := doJSON(s, http.MethodPost, "/v1/estimate?degrade=maybe", `{}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", w.Code, w.Body)
	}
}

// TestStatusEndpoint: /v1/status reports the generation id, in-flight runs
// with live progress fractions, and never blocks behind an estimation.
func TestStatusEndpoint(t *testing.T) {
	s := newRobustServer(t, Config{Workers: 1})
	readStatus := func() statusBody {
		w := doJSON(s, http.MethodGet, "/v1/status", "")
		if w.Code != http.StatusOK {
			t.Fatalf("status endpoint: %d %s", w.Code, w.Body)
		}
		var b statusBody
		if err := json.NewDecoder(w.Body).Decode(&b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	b := readStatus()
	if !b.Ready || b.Generation != 1 || b.Nodes == 0 || len(b.Inflight) != 0 {
		t.Fatalf("idle status: %+v", b)
	}

	// Hold a throttled run mid-flight and observe it.
	slowFlight(t, s, 40*time.Millisecond)
	respCh := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		respCh <- doJSON(s, http.MethodPost, "/v1/estimate?timeout=10s", `{"seed":570}`)
	}()
	deadline := time.Now().Add(2 * time.Second)
	var seen bool
	for time.Now().Before(deadline) {
		b = readStatus()
		if len(b.Inflight) == 1 && b.Inflight[0].Completed > 0 {
			run := b.Inflight[0]
			if run.Planned <= 0 || run.Progress <= 0 || run.Progress > 1 || run.Generation != 1 || run.Key == "" {
				t.Fatalf("inflight run status: %+v", run)
			}
			seen = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !seen {
		t.Fatal("in-flight run never appeared in /v1/status with progress")
	}
	if w := <-respCh; w.Code != http.StatusOK {
		t.Fatalf("held run finished with %d %s", w.Code, w.Body)
	}
	b = readStatus()
	if len(b.Inflight) != 0 || b.CacheEntries != 1 || b.MedianRunMillis <= 0 {
		t.Fatalf("post-run status: %+v", b)
	}

	// A mutation bumps the generation id.
	for v := 200; v < 220; v++ {
		if w := doJSON(s, http.MethodPost, "/v1/edges", `{"u":0,"v":`+itoa(v)+`}`); w.Code == http.StatusOK {
			break
		}
	}
	if b = readStatus(); b.Generation != 2 || b.CacheEntries != 0 {
		t.Fatalf("post-mutation status: %+v", b)
	}
}

func itoa(v int) string {
	b, _ := json.Marshal(v)
	return string(b)
}
