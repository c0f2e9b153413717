package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/graph"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string  // source tree (for provenance)
	bricsd   string  // bricsd binary built from that tree
	work     string  // scratch directory for artifacts and logs
	scale    float64 // multiplies every workload's graph scale (tests shrink it)
}

// endToEndNames are the metrics of an untraced run, as in BENCHMARK.json.
var endToEndNames = []string{"setup_s", "peak_rss_mb", "ops_per_s", "read_p50_ms", "read_p90_ms",
	"heavy_p50_ms", "heavy_p90_ms", "estimate_mre"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run produced: the result line plus the
// result file's provenance, per-route detail rows and failures.
type report struct {
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Named      map[string]metric `json:"named"` // every metric printed, per-workload ones too
	Provenance provenance        `json:"provenance"`
	Routes     []routeRow        `json:"routes"`
	Registry   json.RawMessage   `json:"registry,omitempty"`
	Gens       map[string]uint64 `json:"generations,omitempty"`
	Failures   []string          `json:"failures,omitempty"`
}

type provenance struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	SourceSHA  string            `json:"source_sha256"`
	Artifacts  map[string]string `json:"artifact_sha256"`
}

type routeRow struct {
	Route  string         `json:"route"`
	Count  int            `json:"count"`
	PerSec float64        `json:"per_s"`
	P50    float64        `json:"p50_ms"`
	P90    float64        `json:"p90_ms"`
	P99    float64        `json:"p99_ms"`
	Max    float64        `json:"max_ms"`
	Status map[string]int `json:"status"`
}

// addFailure records a failed check, keeping the first few for the report.
func (r *report) addFailure(what string, err error) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf("%s: %v", what, err))
	}
}

// session is a prepared run: generated graphs with their oracle data and
// the measured bricsd after its set-ups.
type session struct {
	cfg    config
	w      *workload
	hot    []*benchGraph
	others []*benchGraph
	args   []string // bricsd registry-mode arguments
	setups []float64
	d      *daemon
	rep    *report
}

// Farness requests ask about probesPerGraph nodes of each hot graph and
// distance requests start at sourcesPerGraph nodes, all drawn from the
// workload seed. Per-node estimate error is heavy-tailed, so estimate_mre
// needs a large pool to read the same from seed to seed.
const (
	probesPerGraph  = 1024
	sourcesPerGraph = 16
)

// A run sets bricsd up at least minSetups times, and more while the set-ups
// so far took under setupSeconds in all, up to maxSetups; setup_s is their
// median. A set-up takes about 10 ms on estimate-cold, 60 ms on mutate-mix
// and 3 s on query-warm, so the short ones get many samples at little cost.
const (
	minSetups    = 5
	maxSetups    = 25
	setupSeconds = 2.0
)

// prepare generates the artifacts and oracle data, then sets bricsd up
// several times, keeping the last one running. The warm-up calls go one
// at a time: each estimate among them already uses every core.
func prepare(cfg config) (*session, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.RemoveAll(cfg.work); err != nil {
		return nil, err
	}
	dir := filepath.Join(cfg.work, "graphs")
	hot, err := buildArtifacts(dir, w.hotIDs, w.scale*cfg.scale)
	if err != nil {
		return nil, err
	}
	others, err := buildArtifacts(dir, w.otherIDs, w.scale*cfg.scale)
	if err != nil {
		return nil, err
	}
	for _, g := range hot {
		prepareOracle(g, cfg.seed, probesPerGraph, sourcesPerGraph)
	}
	for _, g := range others { // only distances are asked of them
		prepareOracle(g, cfg.seed, 0, sourcesPerGraph)
	}
	s := &session{cfg: cfg, w: w, hot: hot, others: others,
		rep: &report{Correct: true, Metrics: map[string]metric{}, Named: map[string]metric{}}}
	s.args = []string{"-graphs", dir, "-default", hot[0].id}
	if b := w.budget(hot, others); b > 0 {
		s.args = append(s.args, "-max-resident", strconv.FormatInt(b, 10))
	}
	s.rep.Provenance = provenanceOf(cfg, append(append([]*benchGraph(nil), hot...), others...))
	for spent := 0.0; ; {
		start := time.Now()
		d, err := startDaemon(cfg.bricsd, filepath.Join(cfg.work, fmt.Sprintf("bricsd-%d.log", len(s.setups))), s.args...)
		if err != nil {
			return nil, err
		}
		for _, c := range w.warmup(hot) {
			d.do(c)
			if c.err != nil || c.status != http.StatusOK {
				d.stop()
				return nil, fmt.Errorf("warm-up %s %s: status %d err %v: %s", c.method, c.path, c.status, c.err, c.resp)
			}
		}
		took := time.Since(start).Seconds()
		s.setups = append(s.setups, took)
		spent += took
		if k := len(s.setups); k >= maxSetups || (k >= minSetups && spent >= setupSeconds) {
			s.d = d
			break
		}
		d.stop()
	}
	return s, nil
}

// runMeasured drives the workload for cfg.seconds, checks every answer and
// fills the end-to-end metrics.
func runMeasured(s *session) error {
	// The clients only wait on bricsd. With one P the driver's runtime does
	// not keep a second thread spinning for work on the cores bricsd needs;
	// in mutate-mix that raised ops_per_s by a third.
	prev := runtime.GOMAXPROCS(1)
	start := time.Now()
	calls := s.d.runClosedLoop(s.w.streams(s.cfg.seed, s.hot, s.others), start.Add(secondsDur(s.cfg.seconds)))
	runtime.GOMAXPROCS(prev)
	// Rates run to the last answer inside the window, not to its end: an op
	// of several seconds cut by the deadline would otherwise leave the count
	// of completed calls unchanged while the host's speed varies, and the
	// rate would move in steps.
	var last time.Time
	for _, c := range calls {
		if !c.cut && c.end.After(last) {
			last = c.end
		}
	}
	elapsed := last.Sub(start).Seconds()
	rss, err := s.d.peakRSSMB()
	if err != nil {
		return err
	}
	if err := s.collectServerState(); err != nil {
		return err
	}
	if s.w.name == "mutate-mix" {
		if err := s.checkRebuildIdentity(calls); err != nil {
			return err
		}
	}

	ck := newChecker(calls)
	var ok, done []*call
	rel := map[*benchGraph][]float64{}
	for _, c := range calls {
		if c.cut {
			continue
		}
		done = append(done, c)
		s.rep.Attempted++
		e, isFar, err := ck.check(c)
		if err != nil {
			s.rep.addFailure(c.method+" "+c.path, err)
			continue
		}
		ok = append(ok, c)
		if isFar {
			rel[c.g] = append(rel[c.g], e)
		}
	}
	s.rep.Routes = routeRows(done, elapsed)

	byKind := func(kinds ...string) []*call {
		var out []*call
		for _, c := range ok {
			if contains(kinds, c.kind) {
				out = append(out, c)
			}
		}
		return out
	}
	m := s.rep.Metrics
	m["setup_s"] = metric{median(s.setups), "s"}
	m["peak_rss_mb"] = metric{rss, "MB"}
	for k, v := range s.timingMetrics(ok, start, elapsed) {
		m[k] = metric{v, timingUnits[k]}
	}
	var mre []float64 // per graph, so the families weigh the same in every run
	for _, xs := range rel {
		mre = append(mre, mean(xs))
	}
	m["estimate_mre"] = metric{mean(mre), "ratio"}

	named := s.rep.Named
	for k, v := range m {
		named[k] = v
	}
	named["failed_frac"] = metric{float64(s.rep.Failed) / float64(s.rep.Attempted), "ratio"}
	var reads []*call
	for _, c := range ok {
		if readKinds[c.kind] {
			reads = append(reads, c)
		}
	}
	named["read_p99_ms"] = metric{percentile(latenciesMS(reads), 0.99), "ms"}
	switch s.w.name {
	case "estimate-cold":
		est := latenciesMS(byKind(kEstimate))
		named["estimate_p50_ms"] = metric{percentile(est, 0.5), "ms"}
		named["estimate_p90_ms"] = metric{percentile(est, 0.9), "ms"}
		named["topk_p50_ms"] = metric{percentile(latenciesMS(byKind(kTopK)), 0.5), "ms"}
	case "query-warm":
		named["switch_p50_ms"] = metric{percentile(latenciesMS(byKind(kSwitch)), 0.5), "ms"}
	case "mutate-mix":
		mut := latenciesMS(byKind(kInsert, kDelete))
		named["mutate_p50_ms"] = metric{percentile(mut, 0.5), "ms"}
		named["mutate_p90_ms"] = metric{percentile(mut, 0.9), "ms"}
	}
	for k, v := range m {
		if math.IsNaN(v.Value) || v.Value <= 0 {
			s.rep.addFailure("metric "+k, fmt.Errorf("no samples (value %v)", v.Value))
		}
	}
	return nil
}

// timingUnits are the units of the metrics timingMetrics computes.
var timingUnits = map[string]string{"ops_per_s": "1/s", "read_p50_ms": "ms", "read_p90_ms": "ms",
	"heavy_p50_ms": "ms", "heavy_p90_ms": "ms"}

// timingMetrics computes the rate and latency metrics of the answered calls
// ok of a window that started at start and lasted elapsed seconds. On a
// workload with a slice length the window is cut into whole slices, each
// call going to the slice its answer came in. A latency is then the lower
// quartile of its per-slice values and the rate the upper one: other work on
// the host only adds time, and it comes in bursts of ten seconds and more
// that can halve the rate while they last, moving a whole-window figure or
// the median slice by a quarter from run to run.
func (s *session) timingMetrics(ok []*call, start time.Time, elapsed float64) map[string]float64 {
	if s.w.slice == 0 {
		return timingOf(ok, s.w.heavy, elapsed)
	}
	slices := make([][]*call, int(elapsed/s.w.slice.Seconds()))
	for _, c := range ok {
		if i := int(c.end.Sub(start) / s.w.slice); i < len(slices) {
			slices[i] = append(slices[i], c)
		}
	}
	per := map[string][]float64{}
	for _, cs := range slices {
		for k, v := range timingOf(cs, s.w.heavy, s.w.slice.Seconds()) {
			if !math.IsNaN(v) {
				per[k] = append(per[k], v)
			}
		}
	}
	out := map[string]float64{}
	for k := range timingUnits {
		p := 0.25
		if k == "ops_per_s" {
			p = 0.75
		}
		out[k] = percentile(per[k], p)
	}
	return out
}

// timingOf is the rate of calls over secs seconds, the p50 and p90 latency
// of their reads, and the per-graph p50 and p90 latency of their heavy kinds.
func timingOf(calls []*call, heavyKinds []string, secs float64) map[string]float64 {
	var reads, heavy []*call
	for _, c := range calls {
		if readKinds[c.kind] {
			reads = append(reads, c)
		}
		if contains(heavyKinds, c.kind) {
			heavy = append(heavy, c)
		}
	}
	return map[string]float64{
		"ops_per_s":    float64(len(calls)) / secs,
		"read_p50_ms":  percentile(latenciesMS(reads), 0.5),
		"read_p90_ms":  percentile(latenciesMS(reads), 0.9),
		"heavy_p50_ms": perGraphPercentile(heavy, 0.5),
		"heavy_p90_ms": perGraphPercentile(heavy, 0.9),
	}
}

// finite replaces NaN (a metric without samples) by 0 so the report stays
// valid JSON; runMeasured has already failed the run for it.
func finite(ms map[string]metric) {
	for k, v := range ms {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			ms[k] = metric{0, v.Unit}
		}
	}
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// collectServerState records registry loads/evictions and each graph's
// generation from the measured bricsd.
func (s *session) collectServerState() error {
	reg, err := s.d.get("/graphs")
	if err != nil {
		return err
	}
	s.rep.Registry = reg
	s.rep.Gens = map[string]uint64{}
	for _, g := range s.hot {
		body, err := s.d.get("/graphs/" + g.id + "/v1/status")
		if err != nil {
			return err
		}
		var st struct{ Generation uint64 }
		if err := json.Unmarshal(body, &st); err != nil {
			return err
		}
		s.rep.Gens[g.id] = st.Generation
	}
	return nil
}

// checkRebuildIdentity leaves every mutated graph with one inserted edge,
// then starts a fresh bricsd on artifacts of the mutated graphs and checks
// that its estimate and farness answers are byte-identical to the mutated
// server's. Each comparison is one attempted op.
func (s *session) checkRebuildIdentity(calls []*call) error {
	last := map[*benchGraph]*call{}
	for _, c := range calls {
		if (c.kind == kInsert || c.kind == kDelete) && c.status == http.StatusOK {
			if p, ok := last[c.g]; !ok || c.start.After(p.start) {
				last[c.g] = c
			}
		}
	}
	dir := filepath.Join(s.cfg.work, "mutated")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	final := map[*benchGraph]edge{}
	for gi, g := range s.hot {
		e := noEdge
		if c, ok := last[g]; ok && c.kind == kInsert {
			e = c.e
		} else {
			e = nonEdge(g.g, mix(s.cfg.seed, 1<<30+gi, 3))
			c := &call{kind: kInsert, g: g, method: "POST", path: "/graphs/" + g.id + "/v1/edges",
				body: fmt.Sprintf(`{"u":%d,"v":%d}`, e.u, e.v)}
			s.d.do(c)
			s.rep.Attempted++
			if c.err != nil || c.status != http.StatusOK {
				s.rep.addFailure("final insert", fmt.Errorf("status %d err %v", c.status, c.err))
				continue
			}
		}
		final[g] = e
		mg := &benchGraph{id: g.id, path: filepath.Join(dir, g.id+".bricsbin"), g: withEdge(g.g, e)}
		if err := writeArtifact(mg); err != nil {
			return err
		}
	}
	fresh, err := startDaemon(s.cfg.bricsd, filepath.Join(s.cfg.work, "bricsd-fresh.log"), "-graphs", dir, "-default", s.hot[0].id)
	if err != nil {
		return err
	}
	defer fresh.stop()
	for _, g := range s.hot {
		if _, ok := final[g]; !ok {
			continue
		}
		cmp := []*call{estimateCall(g, readerSeed)}
		for p := range g.probes {
			cmp = append(cmp, farnessCall(kFarness, g, p, readerSeed))
		}
		for _, c := range cmp {
			a, b := *c, *c
			s.d.do(&a)
			fresh.do(&b)
			s.rep.Attempted++
			switch {
			case a.err != nil || b.err != nil || a.status != http.StatusOK || b.status != http.StatusOK:
				s.rep.addFailure("rebuild identity "+c.path, fmt.Errorf("status %d/%d err %v/%v", a.status, b.status, a.err, b.err))
			case !bytes.Equal(a.resp, b.resp):
				s.rep.addFailure("rebuild identity "+c.path, fmt.Errorf("mutated server %s, fresh server %s",
					bytes.TrimSpace(a.resp), bytes.TrimSpace(b.resp)))
			}
		}
	}
	return nil
}

// withEdge returns g plus edge e (g itself when e is noEdge).
func withEdge(g *graph.Graph, e edge) *graph.Graph {
	if e == noEdge {
		return g
	}
	edges := make([][2]graph.NodeID, 0, g.NumEdges()+1)
	for u := 0; u < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(graph.NodeID(u)) {
			if graph.NodeID(u) < v {
				edges = append(edges, [2]graph.NodeID{graph.NodeID(u), v})
			}
		}
	}
	return graph.FromEdges(g.NumNodes(), append(edges, [2]graph.NodeID{e.u, e.v}))
}

// routeRows summarises calls per route: count, rate, latency quantiles and
// the status-code mix.
func routeRows(calls []*call, elapsed float64) []routeRow {
	byKind := map[string][]*call{}
	for _, c := range calls {
		byKind[c.kind] = append(byKind[c.kind], c)
	}
	var rows []routeRow
	for kind, cs := range byKind {
		lat := latenciesMS(cs)
		row := routeRow{Route: kind, Count: len(cs), PerSec: float64(len(cs)) / elapsed,
			P50: percentile(lat, 0.5), P90: percentile(lat, 0.9), P99: percentile(lat, 0.99), Max: percentile(lat, 1),
			Status: map[string]int{}}
		for _, c := range cs {
			key := strconv.Itoa(c.status)
			if c.err != nil {
				key = "transport-error"
			}
			row.Status[key]++
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Route < rows[j].Route })
	return rows
}

// provenanceOf describes the host, the program's source and the inputs.
func provenanceOf(cfg config, graphs []*benchGraph) provenance {
	p := provenance{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Artifacts: map[string]string{},
	}
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	p.SourceSHA = sourceDigest(cfg.root)
	for _, g := range graphs {
		p.Artifacts[g.id] = g.sha256
	}
	return p
}

// sourceDigest hashes the program's Go sources (everything but hidden
// directories and this benchmark), identifying the code measured even in a
// checkout without git metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() && path != root && (strings.HasPrefix(name, ".") || name == "perfbench") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(name, ".go") || name == "go.mod") {
			data, err := os.ReadFile(path)
			if err == nil {
				rel, _ := filepath.Rel(root, path)
				fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
