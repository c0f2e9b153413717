package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	brics "repro"
	"repro/internal/bicc"
	"repro/internal/bincsr"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/reduce"
	"repro/internal/server"
)

// span is one timed step of a traced request. Children are the steps a
// span's work consists of; they are re-executed through each layer's
// exported entry point rather than timed inside the program, so a span's
// self time is its duration minus its children's, floored at zero.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a request's root
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	MS     float64 `json:"ms"`
}

type tracer struct {
	spans []span
}

func (t *tracer) add(req, parent int, name string, d time.Duration) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, MS: ms(d)})
	return len(t.spans) - 1
}

// selfTimes returns each span's duration minus its children's, floored at 0.
func (t *tracer) selfTimes() []float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.MS
		if s.Parent >= 0 {
			self[s.Parent] -= s.MS
		}
	}
	for i := range self {
		self[i] = math.Max(self[i], 0)
	}
	return self
}

// familyLayerMetrics are reported once per family (suffix .web, .social,
// .community, .road); sharedLayerMetrics once. perLayerMetrics lists them
// all, as in BENCHMARK.json.
var familyLayerMetrics = []perLayerMetric{
	{"core.estimate_ms", "ms"}, {"core.preprocess_ms", "ms"},
	{"core.traverse_ms", "ms"}, {"core.aggregate_ms", "ms"},
	{"core.samples", "count"}, {"core.reduced_nodes", "count"},
	{"reduce.twins_ms", "ms"}, {"reduce.chains_ms", "ms"},
	{"reduce.redundant_ms", "ms"}, {"reduce.removed_frac", "ratio"},
	{"bicc.total_ms", "ms"}, {"bicc.forest_ms", "ms"}, {"bicc.tags_ms", "ms"},
	{"bicc.label_ms", "ms"}, {"bicc.assemble_ms", "ms"}, {"bicc.fastbcc_frac", "ratio"},
	{"topk.closeness_ms", "ms"}, {"topk.verified", "count"}, {"topk.filtered", "count"},
}

var sharedLayerMetrics = []perLayerMetric{
	{"bfs.p2p_us", "us"}, {"sketch.bounds_ns", "ns"}, {"sketch.tight_frac", "ratio"},
	{"sketch.build_ms", "ms"}, {"server.hit_us", "us"}, {"server.transport_us", "us"},
	{"registry.loads", "count"}, {"registry.evictions", "count"}, {"registry.load_ms", "ms"},
	{"bincsr.open_us", "us"}, {"bincsr.first_touch_us", "us"},
	{"server.mutate_ms", "ms"}, {"server.first_mutate_ms", "ms"},
	{"server.generations", "count"}, {"server.cache_hit_ratio", "ratio"},
	{"server.shed_429", "count"},
	{"trace.read_overhead_ms", "ms"}, {"trace.estimate_overhead_ms", "ms"},
	{"trace.coverage", "ratio"},
}

type perLayerMetric struct{ name, unit string }

func perLayerMetrics() []perLayerMetric {
	var out []perLayerMetric
	for _, l := range familyLayerMetrics {
		for _, f := range families {
			out = append(out, perLayerMetric{l.name + "." + f, l.unit})
		}
	}
	return append(out, sharedLayerMetrics...)
}

// tracedRun is the state of one traced replay.
type tracedRun struct {
	s        *session
	reg      *server.Registry
	t        tracer
	vals     map[string][]float64 // samples per per-layer metric name
	sketches map[*benchGraph]*brics.DistanceSketch
	mutated  map[*benchGraph]bool
	cur      map[*benchGraph]*graph.Graph // each graph as the copies hold it now
	ck       *checker
	// covered holds, per request kind, each request's share of wall time the
	// spans account for: transport baseline plus layer work.
	covered map[string][]float64
}

const traceTimeout = 2 * time.Minute

// runTraced replays a prefix of the workload one request at a time. Each
// request is sent to bricsd (span "http"), served again by an in-process
// copy of the registry through an httptest recorder (span "server"), and
// its work re-executed through each layer's exported entry point (child
// spans). A second, untraced replay of the next ops gives the tracing
// overhead. Answers from bricsd are checked as in the measured run.
func runTraced(s *session) error {
	paths := map[string]string{}
	for _, g := range append(append([]*benchGraph(nil), s.hot...), s.others...) {
		paths[g.id] = g.path
	}
	reg, err := server.NewRegistry(paths, server.RegistryConfig{
		MaxResidentBytes: s.w.budget(s.hot, s.others),
		Verify:           bincsr.VerifyFast,
		DefaultGraph:     s.hot[0].id,
	})
	if err != nil {
		return err
	}
	defer reg.Close()
	tr := &tracedRun{s: s, reg: reg, vals: map[string][]float64{},
		sketches: map[*benchGraph]*brics.DistanceSketch{},
		mutated:  map[*benchGraph]bool{}, cur: map[*benchGraph]*graph.Graph{}, ck: newChecker(nil),
		covered: map[string][]float64{}}
	for _, g := range s.hot {
		tr.cur[g] = g.g
		start := time.Now()
		tr.sketches[g] = brics.NewDistanceSketch(g.g, brics.SketchOptions{})
		tr.vals["sketch.build_ms"] = append(tr.vals["sketch.build_ms"], ms(time.Since(start)))
	}
	for _, c := range s.w.warmup(s.hot) {
		if rec := tr.serve(c); rec.Code != http.StatusOK {
			return fmt.Errorf("in-process warm-up %s: status %d", c.path, rec.Code)
		}
	}
	half := secondsDur(s.cfg.seconds / 2)
	next := replayOrder(s)
	var traced, plain []*call
	tracedStart := time.Now()
	// A workload with quotas replays until they are used up, however long
	// that takes, so that every (kind, graph) it caps gets traced.
	for end, used := time.Now().Add(half), map[string]int{}; s.w.traceQuota != nil || time.Now().Before(end); {
		op := next(s.w.traceQuota, used)
		if op == nil {
			break
		}
		for _, c := range op {
			tr.traceCall(len(traced), c)
			traced = append(traced, c)
		}
	}
	for end, used := time.Now().Add(half), map[string]int{}; time.Now().Before(end); {
		op := next(s.w.traceQuota, used)
		if op == nil {
			break
		}
		for _, c := range op {
			s.d.do(c)
			plain = append(plain, c)
		}
	}
	for _, c := range plain {
		tr.ck.record(c)
	}
	for _, c := range plain {
		s.rep.Attempted++
		if _, _, err := tr.ck.check(c); err != nil {
			s.rep.addFailure(c.method+" "+c.path, err)
		}
	}
	s.rep.Routes = routeRows(traced, time.Since(tracedStart).Seconds())
	return tr.finish(traced, plain)
}

// replayOrder returns a function yielding the workload's ops one at a time:
// the single stream in index order, or for mutate-mix s.w.interleave reader
// ops per writer op. Ops of a (kind, graph) whose quota is used up are
// skipped; nil means a long stretch of ops was all skipped.
func replayOrder(s *session) func(quota, used map[string]int) []*call {
	streams := s.w.streams(s.cfg.seed, s.hot, s.others)
	k, w, r := 0, 0, 0
	nextOp := func() []*call {
		k++
		if len(streams) > 1 && k%(s.w.interleave+1) == 0 {
			w++
			return streams[0](w - 1)
		}
		r++
		return streams[len(streams)-1](r - 1)
	}
	return func(quota, used map[string]int) []*call {
		for skipped := 0; skipped < 1000; skipped++ {
			op := nextOp()
			key := op[0].kind + "/" + op[0].g.id
			if q, ok := quota[op[0].kind]; ok && used[key] >= q {
				continue
			}
			used[key]++
			return op
		}
		return nil
	}
}

// serve runs c through the in-process registry.
func (tr *tracedRun) serve(c *call) *httptest.ResponseRecorder {
	var req *http.Request
	if c.body != "" {
		req = httptest.NewRequest(c.method, c.path, strings.NewReader(c.body))
	} else {
		req = httptest.NewRequest(c.method, c.path, nil)
	}
	rec := httptest.NewRecorder()
	tr.reg.ServeHTTP(rec, req)
	return rec
}

// cacheEntries reads a graph's estimate-cache population from the
// in-process copy.
func (tr *tracedRun) cacheEntries(g *benchGraph) int {
	rec := tr.serve(&call{method: "GET", path: "/graphs/" + g.id + "/v1/status"})
	var st struct{ CacheEntries int }
	_ = json.Unmarshal(rec.Body.Bytes(), &st)
	return st.CacheEntries
}

func (tr *tracedRun) add(name string, v float64) { tr.vals[name] = append(tr.vals[name], v) }

// traceCall sends c to bricsd, checks the answer, and records its spans.
func (tr *tracedRun) traceCall(req int, c *call) {
	s := tr.s
	// The in-process replay and layer calls between two requests leave bricsd
	// idle for a while. A first /healthz ping wakes it, so the timed call
	// meets it awake, as back-to-back requests do in the untraced runs. A
	// second ping, a graph read routed through the registry like the
	// request, gives the round trip this request pays on top of its handler:
	// the transport baseline of the coverage figure. The request follows the
	// second ping at once, so both meet bricsd in the same state.
	s.d.do(&call{method: "GET", path: "/healthz"})
	ping := getCall(kGraph, s.hot[0], "/v1/graph")
	s.d.do(ping)
	s.d.do(c)
	start := time.Now()
	tr.serve(ping)
	transport := ms(ping.latency() - time.Since(start))
	tr.add("trace.transport_baseline_us", 1000*transport)
	s.rep.Attempted++
	tr.ck.record(c)
	if _, _, err := tr.ck.check(c); err != nil {
		s.rep.addFailure(c.method+" "+c.path, err)
	}
	root := tr.t.add(req, -1, "http", c.latency())

	isRead := c.kind == kProbe || c.kind == kFarness
	before := 0
	if isRead {
		before = tr.cacheEntries(c.g)
	}
	start = time.Now()
	rec := tr.serve(c)
	h := time.Since(start)
	srv := tr.t.add(req, root, "server", h)
	if rec.Code != c.status {
		s.rep.addFailure("in-process "+c.path, fmt.Errorf("status %d, bricsd %d", rec.Code, c.status))
	}
	wall := ms(c.latency())
	// The spans account for the transport baseline plus the layer work. Where
	// the handler calls into other layers (estimates, cache-missing reads,
	// top-k, distances), that is the sum of the layer spans under the server
	// span: the server span re-runs the whole handler, so counting it would
	// cover any request in full. Where the handler is itself the layer
	// measured (cache hits, graph and status reads, mutations), it is the
	// server span.
	defer func() {
		layer, hasKids := 0.0, false
		for _, sp := range tr.t.spans[srv+1:] {
			if sp.Parent == srv {
				layer += sp.MS
				hasKids = true
			}
		}
		if !hasKids {
			layer = ms(h)
		}
		tr.covered[c.kind] = append(tr.covered[c.kind], math.Min(1, (transport+layer)/wall))
	}()
	if readKinds[c.kind] {
		tr.add("server.transport_us", 1000*math.Max(wall-ms(h), 0))
	}

	ctx, cancel := context.WithTimeout(context.Background(), traceTimeout)
	defer cancel()
	g := c.g
	if mode, ok := distanceModes[c.kind]; ok {
		// The server's own share of a distance request: routing, query
		// parsing, the distance cache and the JSON answer. A node's distance
		// to itself runs all of that and next to no traversal.
		src := g.sources[c.source]
		start := time.Now()
		tr.serve(getCall(c.kind, g, "/v1/distance?from=%d&to=%d&mode=%s", src, src, mode))
		tr.t.add(req, srv, "server.dispatch", time.Since(start))
	}
	switch c.kind {
	case kEstimate:
		tr.estimate(ctx, req, srv, g, c.seed)
	case kProbe, kFarness:
		if tr.cacheEntries(g) > before {
			tr.add("server.cache_miss", 1)
			tr.estimate(ctx, req, srv, g, c.seed)
		} else {
			tr.add("server.cache_miss", 0)
			tr.add("server.hit_us", 1000*ms(h))
		}
	case kTopK:
		opts := brics.TopKOptions{Estimate: estimateOptions(1)}
		start := time.Now()
		res, err := brics.TopKClosenessContext(ctx, g.g, 10, opts)
		d := time.Since(start)
		if err != nil {
			s.rep.addFailure("topk layer", err)
			return
		}
		id := tr.t.add(req, srv, "topk.closeness", d)
		st := res.EstimateStats
		tr.t.add(req, id, "core.estimate", st.Preprocess+st.Traverse+st.Aggregate)
		f := g.family
		tr.add("topk.closeness_ms."+f, ms(d))
		tr.add("topk.verified."+f, float64(res.Verified))
		tr.add("topk.filtered."+f, float64(res.Filtered))
	case kDistExact:
		tr.distance(ctx, req, srv, tr.cur[g], g.sources[c.source], c.to)
	case kDistSketch, kDistAuto:
		sk := tr.sketches[g]
		start := time.Now()
		lo, hi, ok := sk.Bounds(g.sources[c.source], c.to)
		d := time.Since(start)
		tr.t.add(req, srv, "sketch.bounds", d)
		tr.add("sketch.bounds_ns", float64(d.Nanoseconds()))
		tight := 0.0
		if ok && lo == hi {
			tight = 1
		}
		tr.add("sketch.tight_frac", tight)
		if c.kind == kDistAuto && tight == 0 {
			tr.distance(ctx, req, srv, g.g, g.sources[c.source], c.to)
		}
	case kSwitch:
		tr.add("registry.load_ms", ms(h))
		start := time.Now()
		m, err := bincsr.OpenMapped(g.path, bincsr.Options{Verify: bincsr.VerifyFast})
		d := time.Since(start)
		if err != nil {
			s.rep.addFailure("bincsr layer", err)
			return
		}
		defer m.Close()
		tr.t.add(req, srv, "bincsr.open", d)
		tr.add("bincsr.open_us", 1000*ms(d))
		start = time.Now()
		var sum int64
		for v := 0; v < m.G.NumNodes(); v++ {
			for _, w := range m.G.Neighbors(graph.NodeID(v)) {
				sum += int64(w)
			}
		}
		d = time.Since(start)
		if sum < 0 {
			panic("unreachable: node ids are non-negative")
		}
		tr.t.add(req, srv, "bincsr.first_touch", d)
		tr.add("bincsr.first_touch_us", 1000*ms(d))
		tr.distance(ctx, req, srv, m.G, g.sources[c.source], c.to)
	case kInsert, kDelete:
		tr.cur[g] = g.g
		if c.kind == kInsert {
			tr.cur[g] = withEdge(g.g, c.e)
		}
		if !tr.mutated[g] {
			tr.mutated[g] = true
			tr.add("server.first_mutate_ms", ms(h))
		} else {
			tr.add("server.mutate_ms", ms(h))
		}
	}
}

func estimateOptions(seed int64) core.Options {
	return core.Options{Techniques: core.TechCumulative, SampleFraction: 0.2, Seed: seed}
}

// estimate re-executes one estimation through brics.EstimateContext, with
// its RunStats split as children, and the reduction and decomposition it
// starts with through reduce.RunContext and bicc.DecomposeTimed.
func (tr *tracedRun) estimate(ctx context.Context, req, parent int, g *benchGraph, seed int64) {
	f := g.family
	start := time.Now()
	res, err := brics.EstimateContext(ctx, tr.cur[g], estimateOptions(seed))
	d := time.Since(start)
	if err != nil {
		tr.s.rep.addFailure("core layer", err)
		return
	}
	st := res.Stats
	id := tr.t.add(req, parent, "core.estimate", d)
	pre := tr.t.add(req, id, "core.preprocess", st.Preprocess)
	tr.t.add(req, id, "core.traverse", st.Traverse)
	tr.t.add(req, id, "core.aggregate", st.Aggregate)
	tr.add("core.estimate_ms."+f, ms(d))
	tr.add("core.preprocess_ms."+f, ms(st.Preprocess))
	tr.add("core.traverse_ms."+f, ms(st.Traverse))
	tr.add("core.aggregate_ms."+f, ms(st.Aggregate))
	tr.add("core.samples."+f, float64(st.Samples))
	tr.add("core.reduced_nodes."+f, float64(st.ReducedNodes))

	start = time.Now()
	r, err := reduce.RunContext(ctx, tr.cur[g], reduce.All())
	d = time.Since(start)
	if err != nil {
		tr.s.rep.addFailure("reduce layer", err)
		return
	}
	rid := tr.t.add(req, pre, "reduce", d)
	tr.t.add(req, rid, "reduce.twins", r.Timings.Twins)
	tr.t.add(req, rid, "reduce.chains", r.Timings.Chains)
	tr.t.add(req, rid, "reduce.redundant", r.Timings.Redundant)
	tr.add("reduce.twins_ms."+f, ms(r.Timings.Twins))
	tr.add("reduce.chains_ms."+f, ms(r.Timings.Chains))
	tr.add("reduce.redundant_ms."+f, ms(r.Timings.Redundant))
	tr.add("reduce.removed_frac."+f, float64(r.NumRemoved())/float64(g.g.NumNodes()))

	_, bt := bicc.DecomposeTimed(r.G, bicc.AlgoAuto, 0)
	bid := tr.t.add(req, pre, "bicc", bt.Total)
	for _, sub := range []struct {
		name string
		d    time.Duration
	}{{"forest", bt.SpanningForest}, {"tags", bt.Tagging}, {"label", bt.Labeling}, {"assemble", bt.Assemble}} {
		tr.t.add(req, bid, "bicc."+sub.name, sub.d)
		tr.add("bicc."+sub.name+"_ms."+f, ms(sub.d))
	}
	tr.add("bicc.total_ms."+f, ms(bt.Total))
	fast := 0.0
	if bt.Algorithm == bicc.AlgoParallel.String() {
		fast = 1
	}
	tr.add("bicc.fastbcc_frac."+f, fast)
	tr.add("bicc.engine."+bt.Algorithm, 1)
}

// distance re-executes one point-to-point query through brics.DistanceContext.
func (tr *tracedRun) distance(ctx context.Context, req, parent int, g *graph.Graph, u, v graph.NodeID) {
	start := time.Now()
	_, err := brics.DistanceContext(ctx, g, u, v)
	d := time.Since(start)
	if err != nil {
		tr.s.rep.addFailure("bfs layer", err)
		return
	}
	tr.t.add(req, parent, "bfs.p2p", d)
	tr.add("bfs.p2p_us", 1000*ms(d))
}

// finish turns the samples into the per-layer metrics, adds the registry,
// mutation, admission, overhead and coverage figures, and writes the spans.
func (tr *tracedRun) finish(traced, plain []*call) error {
	s := tr.s
	rec := tr.serve(&call{method: "GET", path: "/graphs"})
	var reg struct {
		Graphs    []struct{ Loads int }
		Evictions int
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reg); err != nil {
		return fmt.Errorf("in-process /graphs: %w", err)
	}
	loads := 0
	for _, g := range reg.Graphs {
		loads += g.Loads
	}
	tr.add("registry.loads", float64(loads))
	tr.add("registry.evictions", float64(reg.Evictions))
	gens := 0
	for _, g := range s.hot {
		rec := tr.serve(&call{method: "GET", path: "/graphs/" + g.id + "/v1/status"})
		var st struct{ Generation int }
		_ = json.Unmarshal(rec.Body.Bytes(), &st)
		gens += st.Generation - 1
	}
	tr.add("server.generations", float64(gens))
	shed := 0
	for _, c := range append(append([]*call(nil), traced...), plain...) {
		if c.status == http.StatusTooManyRequests {
			shed++
		}
	}
	tr.add("server.shed_429", float64(shed))
	if misses := tr.vals["server.cache_miss"]; len(misses) > 0 {
		tr.add("server.cache_hit_ratio", 1-mean(misses))
	}
	p50 := func(calls []*call, pick func(*call) bool) float64 {
		var xs []float64
		for _, c := range calls {
			if pick(c) {
				xs = append(xs, ms(c.latency()))
			}
		}
		if len(xs) == 0 {
			return math.NaN()
		}
		return median(xs)
	}
	isRead := func(c *call) bool { return readKinds[c.kind] }
	isEst := func(c *call) bool { return c.kind == kEstimate }
	tr.add("trace.read_overhead_ms", p50(traced, isRead)-p50(plain, isRead))
	tr.add("trace.estimate_overhead_ms", p50(traced, isEst)-p50(plain, isEst))
	// The typical request of each route counts, and each route weighs the
	// same: a few seconds-long top-k runs do not drown out thousands of
	// reads, nor a rare scheduler stall a route's usual breakdown.
	var cov []float64
	for kind, xs := range tr.covered {
		cov = append(cov, median(xs))
		s.rep.Named["coverage."+kind] = metric{median(xs), "ratio"}
	}
	s.rep.Named["trace.transport_baseline_us"] = metric{median(tr.vals["trace.transport_baseline_us"]), "us"}
	coverage := mean(cov)
	tr.add("trace.coverage", coverage)
	if coverage < 0.9 && s.w.name != "mutate-mix" {
		s.rep.addFailure("trace coverage", fmt.Errorf("layer spans cover %.1f%% of request wall time, want >= 90%%", 100*coverage))
	}

	for _, m := range perLayerMetrics() {
		v := 0.0 // a layer the workload never reaches did no work
		if xs := tr.vals[m.name]; len(xs) > 0 && !math.IsNaN(median(xs)) {
			v = median(xs)
		}
		s.rep.Metrics[m.name] = metric{v, m.unit}
		s.rep.Named[m.name] = metric{v, m.unit}
	}
	self := tr.t.selfTimes()
	byName := map[string]float64{}
	for i, sp := range tr.t.spans {
		byName[sp.Name] += self[i]
	}
	for name, v := range byName {
		s.rep.Named["self_ms."+name] = metric{v, "ms"}
	}
	for k := range tr.vals {
		if strings.HasPrefix(k, "bicc.engine.") {
			s.rep.Named[k] = metric{float64(len(tr.vals[k])), "count"}
		}
	}
	data, err := json.Marshal(tr.t.spans)
	if err != nil {
		return err
	}
	dir := filepath.Join(s.cfg.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-s%d-spans.json", s.w.name, s.cfg.seed)), data, 0o644)
}
