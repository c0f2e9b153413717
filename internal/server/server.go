// Package server exposes the BRICS estimators as a JSON-over-HTTP service
// (see cmd/bricsd). The server owns one graph; estimation runs are cached
// per option set and invalidated by edge updates, each of which rebuilds the
// graph's CSR and installs it as a fresh generation.
//
// Endpoints:
//
//	GET    /healthz                           liveness (never blocks)
//	GET    /readyz                            readiness (503 while draining)
//	GET    /v1/graph                          node/edge counts
//	POST   /v1/estimate                       {"techniques":"BRIC","fraction":0.2,"seed":1}
//	GET    /v1/farness/{node}?...             one node's estimate (same query params)
//	GET    /v1/topk?k=10&sketch=1&...         verified top-k (exact values)
//	GET    /v1/distance?from=1&to=2&mode=auto point-to-point distance
//	POST   /v1/edges                          {"u":1,"v":2} insert (rebuilds the CSR)
//	DELETE /v1/edges?u=1&v=2                  remove an edge
//
// Robustness model. Reads (health, graph, distance, cached estimates) load
// an immutable graph generation with one atomic pointer read and never wait
// behind an in-flight estimation. Concurrent estimate requests with
// identical parameters are deduplicated into a single run (singleflight);
// the run is aborted when its last waiter disconnects or times out. The
// number of simultaneous estimation runs is bounded — excess requests are
// shed with 429 and a Retry-After hint rather than queued. Every estimation
// endpoint honours a per-request deadline (?timeout=..., capped by the
// server's maximum) and a panicking run answers 500 without taking the
// daemon down. Error mapping: invalid parameters 400, capacity 429,
// canceled/draining 503, deadline 504, crash 500.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sketch"
	"repro/internal/topk"
)

// Config tunes the server's admission control and deadlines. The zero value
// of any field selects its default.
type Config struct {
	// Workers bounds the goroutines of each estimation run
	// (0 = GOMAXPROCS).
	Workers int
	// MaxInflight bounds simultaneous estimation runs; requests beyond it
	// are shed with 429. Default 4.
	MaxInflight int
	// DefaultTimeout applies to estimation requests that carry no
	// ?timeout= parameter. Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps any client-requested deadline. Default 5m.
	MaxTimeout time.Duration
	// SoftMargin is how far ahead of a request's hard deadline its soft
	// deadline sits: a degrading (?degrade=accept) estimation request that is
	// still waiting when the soft deadline lands answers with the run's
	// freshest partial snapshot instead of riding into a timeout. Default
	// 500ms, clamped to at most half the request's deadline.
	SoftMargin time.Duration
	// DegradeByDefault selects the policy of estimation requests that carry
	// no ?degrade= parameter: true behaves like degrade=accept (never time
	// out with an empty answer when a partial one exists), false like
	// degrade=reject (exact or error — the historical behaviour, and the
	// default).
	DegradeByDefault bool
	// Sketch configures the per-generation cluster-BFS distance index behind
	// /v1/distance?mode=sketch|auto and /v1/topk?sketch=1. The zero value
	// selects the sketch package defaults; Workers is inherited from the
	// server when unset.
	Sketch sketch.Options
	// AssumeConnected skips the O(n+m) connectivity check at construction.
	// The registry sets it for artifacts whose FlagConnected records that
	// the converter already verified connectivity — the check would fault in
	// every page of an mmap-loaded graph and defeat the lazy load. A lying
	// flag surfaces as a 400 on every edge mutation that leaves the graph
	// disconnected (each mutation checks the rebuilt graph's connectivity).
	AssumeConnected bool
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.SoftMargin <= 0 {
		c.SoftMargin = 500 * time.Millisecond
	}
	if c.Sketch.Workers == 0 {
		c.Sketch.Workers = c.Workers
	}
	return c
}

// Server is the HTTP handler. Create with New or NewWithConfig; it is safe
// for concurrent use.
type Server struct {
	gen   atomic.Pointer[generation] // current graph snapshot + caches; lock-free reads
	mutMu sync.Mutex                 // serialises edge mutations (read-rebuild-swap of gen)

	cfg        Config
	sem        chan struct{}   // admission slots for estimation runs
	baseCtx    context.Context // parent of every flight context; canceled by Close
	baseCancel context.CancelFunc
	ready      atomic.Bool
	mux        *http.ServeMux

	genSeq atomic.Uint64 // generation id source; bumped per edge mutation

	// runs is the status registry: every live estimation flight, across all
	// generations, for /v1/status and the progress-based Retry-After hint.
	runsMu sync.Mutex
	runs   map[*flight]struct{}

	// durs is a ring of recent full-run durations; its median anchors the
	// Retry-After estimate.
	durMu sync.Mutex
	durs  [32]time.Duration
	durI  int

	// runWG counts detached estimation goroutines (Server.run). They can
	// outlive the HTTP requests that started them (waiters time out, the run
	// keeps computing for the cache), so an owner about to invalidate the
	// graph's backing memory — the registry, before munmap — must Close and
	// then WaitRuns.
	runWG sync.WaitGroup
}

// New builds a server over a connected graph with default admission and
// deadline settings.
func New(g *graph.Graph, workers int) (*Server, error) {
	return NewWithConfig(g, Config{Workers: workers})
}

// NewWithConfig builds a server over a connected graph. The graph is served
// as-is — it may be a read-only CSR view over mapped memory (bincsr.Mapped);
// each edge mutation builds a fresh heap CSR rather than writing to it.
func NewWithConfig(g *graph.Graph, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if !cfg.AssumeConnected && !graph.IsConnected(g) {
		return nil, fmt.Errorf("server: graph must be connected")
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		sem:        make(chan struct{}, cfg.MaxInflight),
		baseCtx:    baseCtx,
		baseCancel: baseCancel,
		mux:        http.NewServeMux(),
		runs:       make(map[*flight]struct{}),
	}
	s.genSeq.Store(1)
	s.gen.Store(newGeneration(g, 1))
	s.ready.Store(true)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	s.mux.HandleFunc("/v1/status", s.handleStatus)
	s.mux.HandleFunc("/v1/graph", s.handleGraph)
	s.mux.HandleFunc("/v1/estimate", s.handleEstimate)
	s.mux.HandleFunc("/v1/farness/", s.handleFarness)
	s.mux.HandleFunc("/v1/topk", s.handleTopK)
	s.mux.HandleFunc("/v1/edges", s.handleEdges)
	s.mux.HandleFunc("/v1/distance", s.handleDistance)
	return s, nil
}

// SetReady flips the /readyz answer; cmd/bricsd marks the server not-ready
// at the start of a graceful shutdown so load balancers stop routing to it
// while in-flight requests drain.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Close aborts every in-flight estimation run and marks the server
// not-ready. Subsequent estimation requests fail with 503.
func (s *Server) Close() {
	s.ready.Store(false)
	s.baseCancel()
}

// WaitRuns blocks until every detached estimation goroutine has exited.
// Call after Close (which aborts their contexts) and before invalidating
// the graph's backing memory — e.g. unmapping a bincsr artifact: a run
// traversing an unmapped CSR view is a segfault, not an error.
func (s *Server) WaitRuns() { s.runWG.Wait() }

// ServeHTTP implements http.Handler. A panic in any handler is converted to
// a 500 response instead of crashing the daemon (http.ErrAbortHandler is
// re-raised for net/http to handle).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			if v == http.ErrAbortHandler {
				panic(v)
			}
			writeErr(w, http.StatusInternalServerError, "internal error: %v", v)
		}
	}()
	if err := fault.Inject(r.Context(), "server.handle"); err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	s.mux.ServeHTTP(w, r)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeEstimateErr maps an estimation failure onto its HTTP status:
// capacity 429 (+Retry-After), crash 500, caller deadline 504,
// partial-rejected and canceled/draining 503 (+Retry-After), anything else
// (validation) 400. The Retry-After hint is computed live from the median
// observed run time and the in-flight runs' progress, not a constant.
func (s *Server) writeEstimateErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var pe *panicError
	switch {
	case errors.Is(err, errBusy):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		status = http.StatusTooManyRequests
	case errors.As(err, &pe):
		status = http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, errPartialOnly):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		status = http.StatusServiceUnavailable
	case errors.Is(err, core.ErrCanceled), errors.Is(err, context.Canceled):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		status = http.StatusServiceUnavailable
	}
	writeErr(w, status, "%v", err)
}

// degradeOf parses the ?degrade= policy parameter shared by the estimation
// endpoints, falling back to the configured default when absent.
func (s *Server) degradeOf(q map[string][]string) (bool, error) {
	v := ""
	if vs, ok := q["degrade"]; ok && len(vs) > 0 {
		v = vs[0]
	}
	switch v {
	case "":
		return s.cfg.DegradeByDefault, nil
	case "accept":
		return true, nil
	case "reject":
		return false, nil
	}
	return false, fmt.Errorf("bad degrade %q (want accept or reject)", v)
}

// requestCtx derives the estimation context for one request: the client's
// disconnect signal plus a deadline from ?timeout= (or the server default),
// capped at the configured maximum.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc, error) {
	d := s.cfg.DefaultTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		pd, err := time.ParseDuration(v)
		if err != nil || pd <= 0 {
			return nil, nil, fmt.Errorf("bad timeout %q (want a positive duration like 30s)", v)
		}
		d = pd
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	return ctx, cancel, nil
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		writeErr(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// runStatus describes one in-flight estimation run for /v1/status.
type runStatus struct {
	Key           string  `json:"key"`
	Generation    uint64  `json:"generation"`
	Completed     int64   `json:"completed"`
	Planned       int64   `json:"planned"`
	Progress      float64 `json:"progress"`
	ElapsedMillis int64   `json:"elapsedMillis"`
}

type statusBody struct {
	Ready           bool        `json:"ready"`
	Generation      uint64      `json:"generation"`
	Nodes           int         `json:"nodes"`
	Edges           int         `json:"edges"`
	Inflight        []runStatus `json:"inflight"`
	CacheEntries    int         `json:"cacheEntries"`
	MedianRunMillis int64       `json:"medianRunMillis"`
	RetryAfter      int         `json:"retryAfter"`
}

// statusSnapshot assembles the server's live state; handleStatus serves it
// directly and the multi-graph registry embeds it per graph.
func (s *Server) statusSnapshot() statusBody {
	gen := s.gen.Load()
	gen.mu.Lock()
	cached := len(gen.cache)
	gen.mu.Unlock()
	body := statusBody{
		Ready:           s.ready.Load(),
		Generation:      gen.id,
		Nodes:           gen.g.NumNodes(),
		Edges:           gen.g.NumEdges(),
		Inflight:        []runStatus{},
		CacheEntries:    cached,
		MedianRunMillis: s.medianRunDuration().Milliseconds(),
		RetryAfter:      s.retryAfter(),
	}
	now := time.Now()
	for _, f := range s.inflightRuns() {
		body.Inflight = append(body.Inflight, runStatus{
			Key:           f.key,
			Generation:    f.genID,
			Completed:     f.prog.Completed(),
			Planned:       f.prog.Planned(),
			Progress:      f.prog.Fraction(),
			ElapsedMillis: now.Sub(f.started).Milliseconds(),
		})
	}
	return body
}

// handleStatus reports the server's live state: current generation id, graph
// size, every in-flight estimation run with its progress fraction, the cache
// population, and the Retry-After hint a shed request would receive now.
// Like /healthz it never blocks behind an estimation.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.statusSnapshot())
}

type graphBody struct {
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
}

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	g := s.gen.Load().g
	writeJSON(w, http.StatusOK, graphBody{Nodes: g.NumNodes(), Edges: g.NumEdges()})
}

// estimateParams are shared by /v1/estimate, /v1/farness and /v1/topk. They
// are exactly the inputs that can change an answer; the server always runs
// the default traversal engine, batching and relabelling (pure wall-clock
// knobs that never change farness), so one cache entry serves every client.
type estimateParams struct {
	Techniques string  `json:"techniques"`
	Fraction   float64 `json:"fraction"`
	Seed       int64   `json:"seed"`
}

// resolve validates the params and returns the canonical cache key plus the
// fully-populated estimation options. The key is derived from the parsed
// values, not the raw strings, so "bric", "BRIC" and "CIRB" all dedup onto
// one cache entry; the server's worker bound is plumbed into the options so
// estimation parallelism follows the -workers flag.
func (s *Server) resolve(p estimateParams) (string, core.Options, error) {
	tech, err := ParseTechniques(p.Techniques)
	if err != nil {
		return "", core.Options{}, err
	}
	if p.Fraction <= 0 || p.Fraction > 1 {
		return "", core.Options{}, fmt.Errorf("fraction %g out of range (0,1]", p.Fraction)
	}
	key := fmt.Sprintf("%s/%g/%d", tech, p.Fraction, p.Seed)
	return key, core.Options{
		Techniques:     tech,
		SampleFraction: p.Fraction,
		Seed:           p.Seed,
		Workers:        s.cfg.Workers,
	}, nil
}

func paramsFromQuery(q map[string][]string) (estimateParams, error) {
	p := estimateParams{Techniques: "BRIC", Fraction: 0.2, Seed: 1}
	if v, ok := q["techniques"]; ok && len(v) > 0 {
		p.Techniques = v[0]
	}
	if v, ok := q["fraction"]; ok && len(v) > 0 {
		f, err := strconv.ParseFloat(v[0], 64)
		if err != nil {
			return p, fmt.Errorf("bad fraction: %v", err)
		}
		p.Fraction = f
	}
	if v, ok := q["seed"]; ok && len(v) > 0 {
		sd, err := strconv.ParseInt(v[0], 10, 64)
		if err != nil {
			return p, fmt.Errorf("bad seed: %v", err)
		}
		p.Seed = sd
	}
	return p, nil
}

// maxBodyBytes caps every JSON request body. The largest legitimate body, an
// estimate request, is well under 200 bytes.
const maxBodyBytes = 64 << 10

// decodeBody decodes r's JSON body into v, answering 413 when it exceeds
// maxBodyBytes and 400 when it is malformed or names a field v does not
// have — a stale client sending a removed knob learns so instead of being
// silently ignored. Reports whether decoding succeeded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeErr(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
		} else {
			writeErr(w, http.StatusBadRequest, "bad body: %v", err)
		}
		return false
	}
	return true
}

type estimateBody struct {
	Nodes       int     `json:"nodes"`
	Samples     int     `json:"samples"`
	ReducedTo   int     `json:"reducedTo"`
	Blocks      int     `json:"blocks"`
	ExactCount  int     `json:"exactCount"`
	MeanFarness float64 `json:"meanFarness"`
	// Partial marks a degraded (anytime) answer: the run was cut short and
	// the values are estimates from Completed of Planned samples, with the
	// proven mean bounds below. Partial answers are never cached server-side.
	Partial   bool    `json:"partial,omitempty"`
	Completed int     `json:"completed,omitempty"`
	Planned   int     `json:"planned,omitempty"`
	Progress  float64 `json:"progress,omitempty"`
	MeanLow   float64 `json:"meanLow,omitempty"`
	MeanHigh  float64 `json:"meanHigh,omitempty"`
}

func estimateBodyOf(res *core.Result) estimateBody {
	exact := 0
	var mean float64
	for i, f := range res.Farness {
		if res.Exact[i] {
			exact++
		}
		mean += f
	}
	if len(res.Farness) > 0 {
		mean /= float64(len(res.Farness))
	}
	body := estimateBody{
		Nodes:       len(res.Farness),
		Samples:     res.Stats.Samples,
		ReducedTo:   res.Stats.ReducedNodes,
		Blocks:      res.Stats.Blocks.Count,
		ExactCount:  exact,
		MeanFarness: mean,
	}
	if res.Partial {
		body.Partial = true
		body.Completed = res.Completed
		body.Planned = res.Planned
		if res.Planned > 0 {
			body.Progress = float64(res.Completed) / float64(res.Planned)
		}
		var lo, hi float64
		for i := range res.Low {
			lo += res.Low[i]
			hi += res.High[i]
		}
		if n := len(res.Low); n > 0 {
			body.MeanLow, body.MeanHigh = lo/float64(n), hi/float64(n)
		}
	}
	return body
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	p := estimateParams{Techniques: "BRIC", Fraction: 0.2, Seed: 1}
	if !decodeBody(w, r, &p) {
		return
	}
	key, opts, err := s.resolve(p)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	degrade, err := s.degradeOf(r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel, err := s.requestCtx(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	res, err := s.estimate(ctx, key, opts, degrade)
	if err != nil {
		s.writeEstimateErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, estimateBodyOf(res))
}

type farnessBody struct {
	Node      graph.NodeID `json:"node"`
	Farness   float64      `json:"farness"`
	Closeness float64      `json:"closeness"`
	Exact     bool         `json:"exact"`
	// Partial marks a degraded answer; Low/High are then the node's proven
	// farness bounds and Progress the run's completed fraction.
	Partial  bool     `json:"partial,omitempty"`
	Low      *float64 `json:"low,omitempty"`
	High     *float64 `json:"high,omitempty"`
	Progress float64  `json:"progress,omitempty"`
}

func (s *Server) handleFarness(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/farness/")
	id, err := strconv.ParseInt(idStr, 10, 32)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad node id %q", idStr)
		return
	}
	p, err := paramsFromQuery(r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	key, opts, err := s.resolve(p)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	degrade, err := s.degradeOf(r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel, err := s.requestCtx(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	res, err := s.estimate(ctx, key, opts, degrade)
	if err != nil {
		s.writeEstimateErr(w, err)
		return
	}
	if id < 0 || int(id) >= len(res.Farness) {
		writeErr(w, http.StatusNotFound, "node %d out of range", id)
		return
	}
	f := res.Farness[id]
	body := farnessBody{Node: graph.NodeID(id), Farness: f, Exact: res.Exact[id]}
	if f > 0 {
		body.Closeness = 1 / f
	}
	if res.Partial {
		body.Partial = true
		if len(res.Low) == len(res.Farness) {
			lo, hi := res.Low[id], res.High[id]
			body.Low, body.High = &lo, &hi
		}
		if res.Planned > 0 {
			body.Progress = float64(res.Completed) / float64(res.Planned)
		}
	}
	writeJSON(w, http.StatusOK, body)
}

type topkBody struct {
	Nodes    []graph.NodeID `json:"nodes"`
	Farness  []float64      `json:"farness"`
	Verified int            `json:"verified"`
	Filtered int            `json:"filtered"`
	Certain  bool           `json:"certain"`
	// Partial marks a degraded ranking: verification was cut short at the
	// soft deadline and unverified slots hold estimates. Never cached.
	Partial bool `json:"partial,omitempty"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	k := 10
	if v := q.Get("k"); v != "" {
		kk, err := strconv.Atoi(v)
		if err != nil || kk <= 0 {
			writeErr(w, http.StatusBadRequest, "bad k %q (want an integer ≥ 1)", v)
			return
		}
		k = kk
	}
	p, err := paramsFromQuery(q)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	_, opts, err := s.resolve(p)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	degrade, err := s.degradeOf(q)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	ctx, cancel, err := s.requestCtx(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	// A degrading top-k run races its soft deadline, not the hard one: the
	// anytime search then degrades to the best-so-far ranking with time to
	// spare for the response, instead of dying at the hard deadline empty.
	runCtx := ctx
	if degrade {
		opts.Anytime = true
		if dl, ok := ctx.Deadline(); ok {
			if soft := time.Until(dl) - s.cfg.SoftMargin; soft > 0 {
				var softCancel context.CancelFunc
				runCtx, softCancel = context.WithTimeout(ctx, soft)
				defer softCancel()
			}
		}
	}
	// Top-k runs bypass the estimate cache but still count against the
	// admission bound: take a slot or shed the request.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.writeEstimateErr(w, errBusy)
		return
	}
	gen := s.gen.Load()
	topts := topk.Options{Estimate: opts}
	// ?sketch=1 enables the cluster-sketch candidate filter: proven farness
	// lower bounds skip verification traversals without changing the result.
	if v := q.Get("sketch"); v != "" {
		use, err := strconv.ParseBool(v)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad sketch %q (want a boolean)", v)
			return
		}
		if use {
			topts.Sketch = s.sketchFor(gen)
		}
	}
	res, err := topk.ClosenessContext(runCtx, gen.g, k, topts)
	if err != nil {
		s.writeEstimateErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, topkBody{
		Nodes: res.Nodes, Farness: res.Farness,
		Verified: res.Verified, Filtered: res.Filtered, Certain: res.Certain,
		Partial: res.Partial,
	})
}

type edgeBody struct {
	U graph.NodeID `json:"u"`
	V graph.NodeID `json:"v"`
}

type edgeResult struct {
	Edges int `json:"edges"`
}

// mutate applies one edge update under the mutation lock by rebuilding the
// current generation's CSR with {u, v} added (insert) or removed, and on
// success installs a fresh generation: new snapshot, empty cache, no flights,
// next id. The rebuild is a heap copy, so a mutation never writes through to
// the (possibly mapped, read-only) initial graph. Inserting an existing edge
// or a self loop is a no-op that still installs a generation; deleting an
// absent edge, or any change that leaves the graph disconnected, is refused.
// Runs still computing against the old generation finish (and cache) there
// harmlessly — new requests only ever see the new generation. The fault
// checkpoint lets the chaos suite stall or crash a mutation mid-swap.
func (s *Server) mutate(u, v graph.NodeID, insert bool) (edges int, err error) {
	s.mutMu.Lock()
	defer s.mutMu.Unlock()
	g := s.gen.Load().g
	if err := fault.Inject(context.Background(), "server.mutate"); err != nil {
		return g.NumEdges(), err
	}
	n := graph.NodeID(g.NumNodes())
	if u < 0 || v < 0 || u >= n || v >= n {
		return g.NumEdges(), fmt.Errorf("edge {%d,%d} out of range", u, v)
	}
	if !insert && !g.HasEdge(u, v) {
		return g.NumEdges(), fmt.Errorf("edge {%d,%d} not present", u, v)
	}
	b := graph.NewBuilder(int(n))
	g.Edges(func(a, c graph.NodeID) {
		if insert || !(a == u && c == v || a == v && c == u) {
			_ = b.AddEdge(a, c)
		}
	})
	if insert {
		_ = b.AddEdge(u, v) // the builder drops self loops and duplicates
	}
	next := b.Build()
	// One check covers both refusals: a delete that cuts a bridge, and a
	// graph whose connectivity was assumed (Config.AssumeConnected) but
	// never held.
	if !graph.IsConnected(next) {
		return g.NumEdges(), fmt.Errorf("edge {%d,%d}: the graph would be disconnected", u, v)
	}
	s.gen.Store(newGeneration(next, s.genSeq.Add(1)))
	return next.NumEdges(), nil
}

func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	var e edgeBody
	switch r.Method {
	case http.MethodPost:
		if !decodeBody(w, r, &e) {
			return
		}
	case http.MethodDelete:
		q := r.URL.Query()
		u, err1 := strconv.ParseInt(q.Get("u"), 10, 32)
		v, err2 := strconv.ParseInt(q.Get("v"), 10, 32)
		if err1 != nil || err2 != nil {
			writeErr(w, http.StatusBadRequest, "u and v query params required")
			return
		}
		e = edgeBody{U: graph.NodeID(u), V: graph.NodeID(v)}
	default:
		writeErr(w, http.StatusMethodNotAllowed, "POST or DELETE")
		return
	}
	edges, err := s.mutate(e.U, e.V, r.Method == http.MethodPost)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, edgeResult{Edges: edges})
}

type distanceBody struct {
	From     graph.NodeID `json:"from"`
	To       graph.NodeID `json:"to"`
	Distance int32        `json:"distance"` // -1 when unreachable
	// Method reports which path answered: "exact" (bidirectional BFS) or
	// "sketch" (cluster-sketch bounds, no traversal).
	Method string `json:"method"`
	// Lower and Upper are the sketch's proven distance bounds; present only
	// on sketch-consulted responses (mode=sketch|auto).
	Lower *int32 `json:"lower,omitempty"`
	Upper *int32 `json:"upper,omitempty"`
}

// distMode selects how /v1/distance answers one query.
type distMode byte

const (
	// distExact (default) runs a bidirectional BFS per request.
	distExact distMode = iota
	// distSketch answers the sketch's proven upper bound in O(k) with no
	// traversal (falling back to exact only when the sketch cannot bound the
	// pair at all, e.g. across components).
	distSketch
	// distAuto answers from the sketch when its bound gap is within ?tol=
	// (default 0: only proven-exact answers) and escapes to the exact BFS
	// otherwise.
	distAuto
)

func parseDistMode(s string) (distMode, error) {
	switch s {
	case "", "exact":
		return distExact, nil
	case "sketch":
		return distSketch, nil
	case "auto":
		return distAuto, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want exact, sketch or auto)", s)
}

func (s *Server) handleDistance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	q := r.URL.Query()
	from, err1 := strconv.ParseInt(q.Get("from"), 10, 32)
	to, err2 := strconv.ParseInt(q.Get("to"), 10, 32)
	if err1 != nil || err2 != nil {
		writeErr(w, http.StatusBadRequest, "from and to query params required")
		return
	}
	mode, err := parseDistMode(q.Get("mode"))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	var tol int32
	if v := q.Get("tol"); v != "" {
		t64, err := strconv.ParseInt(v, 10, 32)
		if err != nil || t64 < 0 {
			writeErr(w, http.StatusBadRequest, "bad tol %q (want an integer >= 0)", v)
			return
		}
		tol = int32(t64)
	}
	gen := s.gen.Load()
	g := gen.g
	n := int64(g.NumNodes())
	if from < 0 || to < 0 || from >= n || to >= n {
		writeErr(w, http.StatusNotFound, "node out of range")
		return
	}
	u, v := graph.NodeID(from), graph.NodeID(to)
	respond := func(val distVal) {
		body := distanceBody{From: u, To: v, Distance: val.d, Method: val.method}
		if val.method == "sketch" {
			body.Lower, body.Upper = &val.lo, &val.hi
		}
		writeJSON(w, http.StatusOK, body)
	}
	// Distance is symmetric on an undirected graph: cache under the ordered
	// pair so (a,b) and (b,a) share an entry. The mode and tolerance are part
	// of the key — see generation.distCache.
	key := distKey{u: u, v: v, mode: mode, tol: tol}
	if key.u > key.v {
		key.u, key.v = key.v, key.u
	}
	if val, ok := gen.lookupDist(key); ok {
		respond(val)
		return
	}
	// The exact path honors the request's cancellation and ?timeout=
	// deadline like every estimation endpoint: a closed connection or
	// expired budget abandons the traversal at the next expansion level.
	// Sketch answers are O(k) lookups and never need the context.
	ctx, cancel, err := s.requestCtx(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()
	var val distVal
	switch mode {
	case distSketch:
		if lo, hi, ok := s.sketchFor(gen).Bounds(u, v); ok {
			val = distVal{d: hi, lo: lo, hi: hi, method: "sketch"}
		} else {
			// The sketch cannot bound the pair (different components):
			// answer exactly rather than failing the request.
			d, err := bfs.PointToPointCtx(ctx, g, u, v)
			if err != nil {
				s.writeEstimateErr(w, err)
				return
			}
			val = distVal{d: d, method: "exact"}
		}
	case distAuto:
		sk := s.sketchFor(gen)
		if lo, hi, ok := sk.Bounds(u, v); ok && hi-lo <= tol {
			val = distVal{d: hi, lo: lo, hi: hi, method: "sketch"}
		} else {
			d, err := bfs.PointToPointCtx(ctx, g, u, v)
			if err != nil {
				s.writeEstimateErr(w, err)
				return
			}
			val = distVal{d: d, method: "exact"}
		}
	default:
		d, err := bfs.PointToPointCtx(ctx, g, u, v)
		if err != nil {
			s.writeEstimateErr(w, err)
			return
		}
		val = distVal{d: d, method: "exact"}
	}
	gen.storeDist(key, val)
	respond(val)
}

// ParseTechniques converts a "BRIC" letter string into a technique mask.
func ParseTechniques(s string) (core.Technique, error) {
	return core.ParseTechniques(s)
}
