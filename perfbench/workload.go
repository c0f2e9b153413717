package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Request kinds. Each is one route of the detail rows.
const (
	kEstimate   = "estimate"
	kTopK       = "topk"
	kProbe      = "probe" // farness read right after its cold estimate
	kFarness    = "farness"
	kDistExact  = "distance.exact"
	kDistSketch = "distance.sketch"
	kDistAuto   = "distance.auto"
	kGraph      = "graph"
	kStatus     = "status"
	kSwitch     = "switch" // exact distance on a graph that is not resident
	kInsert     = "edges.insert"
	kDelete     = "edges.delete"
)

var readKinds = map[string]bool{
	kProbe: true, kFarness: true, kDistExact: true, kDistSketch: true,
	kDistAuto: true, kGraph: true, kStatus: true,
}

// call is one HTTP request of a workload, with what the checker needs to
// know about it and, once sent, its outcome.
type call struct {
	kind   string
	g      *benchGraph
	method string
	path   string
	body   string

	probe  int          // index into g.probes (farness kinds)
	source int          // index into g.sources (distance kinds)
	to     graph.NodeID // distance target
	seed   int64        // estimate seed
	e      edge         // mutated edge (edges kinds)

	start, end time.Time
	status     int
	resp       []byte
	err        error
	cut        bool // unfinished at the end of the measured window
}

func (c *call) latency() time.Duration { return c.end.Sub(c.start) }

// stream is a sequence of operations sent in index order by one closed-loop
// client; op(i) depends only on the workload seed and i.
type stream func(i int) []*call

// workload is one traffic mix over a set of generated graphs.
type workload struct {
	name   string
	scale  float64 // Table I scale of every artifact
	hotIDs []string
	// otherIDs are extra artifacts that are only switched to (query-warm).
	otherIDs []string
	// heavy is the request kind whose latency heavy_p50_ms/heavy_p90_ms
	// report: the workload's expensive operation.
	heavy []string
	// slice, when set, is the length of the slices over whose per-slice rates
	// and latencies the timing metrics take quartiles (see timingMetrics).
	// It suits a workload whose ops each take far less than a slice.
	slice time.Duration
	// budget returns the registry's resident budget (0 = unlimited).
	budget func(hot, others []*benchGraph) int64
	// warmup returns the calls every set-up runs before it counts as ready.
	warmup func(hot []*benchGraph) []*call
	// streams returns the measured traffic.
	streams func(seed int64, hot, others []*benchGraph) []stream
	// interleave is how many ops of stream 1 the traced replay runs per op
	// of stream 0 (two-stream workloads only).
	interleave int
	// manual marks a workload that runs on request but is left out of
	// BENCHMARK.json, because some end-to-end metric of it spreads past its
	// bound from run to run.
	manual bool
	// traceQuota caps how many ops per (request kind, graph) the traced
	// replay runs; kinds not listed are unlimited. It keeps the replay of
	// estimate-cold, whose road top-k alone takes seconds, short enough to
	// reach every family.
	traceQuota map[string]int
}

var workloads = map[string]*workload{
	"estimate-cold": estimateCold(),
	"query-warm":    queryWarm(),
	"mutate-mix":    mutateMix(),
}

// mix hashes (seed, a, b) into a well-spread int64 (splitmix64).
func mix(seed int64, a, b int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(a+1) + 0xbf58476d1ce4e5b9*uint64(b+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func getCall(kind string, g *benchGraph, format string, args ...any) *call {
	return &call{kind: kind, g: g, method: "GET", path: "/graphs/" + g.id + fmt.Sprintf(format, args...)}
}

func farnessCall(kind string, g *benchGraph, probe int, seed int64) *call {
	c := getCall(kind, g, "/v1/farness/%d?seed=%d", g.probes[probe], seed)
	c.probe, c.seed = probe, seed
	return c
}

// distanceModes is the /v1/distance mode of each distance request kind.
var distanceModes = map[string]string{
	kDistExact: "exact", kSwitch: "exact", kDistSketch: "sketch", kDistAuto: "auto&tol=0",
}

func distanceCall(kind string, g *benchGraph, h int64) *call {
	src := int(h % int64(len(g.sources)))
	to := graph.NodeID((h >> 20) % int64(g.g.NumNodes()))
	c := getCall(kind, g, "/v1/distance?from=%d&to=%d&mode=%s", g.sources[src], to, distanceModes[kind])
	c.source, c.to = src, to
	return c
}

func estimateCall(g *benchGraph, seed int64) *call {
	return &call{kind: kEstimate, g: g, method: "POST", path: "/graphs/" + g.id + "/v1/estimate",
		body: fmt.Sprintf(`{"seed":%d}`, seed), seed: seed}
}

// roadFamily indexes the road graph in hotIDs; topkRotation is the family
// order of estimate-cold's later top-k ops. The road top-k alone takes about
// a quarter of a run, so it is the first op of every run and only that: in
// the rotation, the second one started 27-30 s into a 35 s window, and
// whether it ended inside swung ops_per_s by a fifth. The cheapest of the
// others comes last, so that where the window ends moves the op count
// smoothly.
const roadFamily = 3

var topkRotation = []int{2, 0, 1}

// estimateCold: each op is one analytics job. Nine of ten jobs request an
// estimate with a fresh seed, then read back the farness of their nodes of
// interest (probes) from it; every tenth is a verified top-k, the road one
// first and then the other families in turn. The ops cover
// the four full-scale family graphs. One client: every estimate already runs
// on all cores, so a second client only adds queueing between requests.
func estimateCold() *workload {
	// A job reads a page of 32 nodes from its estimate. These reads give
	// estimate-cold its read_* latencies and estimate_mre samples.
	const probesPerEstimate = 32
	// Estimate seeds are the op index, the same in every run: each is still
	// new to the freshly started bricsd, and estimate_mre then compares the
	// same sample sets from run to run and commit to commit. Seeds drawn from
	// the workload seed made it spread by 0.22 over ten runs, the estimator's
	// own variance over about forty sample sets.
	return &workload{
		name:       "estimate-cold",
		scale:      1,
		hotIDs:     hotIDs,
		heavy:      []string{kEstimate},
		traceQuota: map[string]int{kEstimate: 2, kTopK: 1},
		budget:     func(_, _ []*benchGraph) int64 { return 0 },
		warmup: func(hot []*benchGraph) []*call {
			var out []*call
			for _, g := range hot {
				out = append(out, getCall(kGraph, g, "/v1/graph"))
			}
			return out
		},
		streams: func(seed int64, hot, _ []*benchGraph) []stream {
			return []stream{func(i int) []*call {
				switch {
				case i == 0:
					return []*call{getCall(kTopK, hot[roadFamily], "/v1/topk?k=10")}
				case i%10 == 0:
					return []*call{getCall(kTopK, hot[topkRotation[(i/10-1)%len(topkRotation)]], "/v1/topk?k=10")}
				}
				g := hot[i%len(hot)]
				s := 1000 + int64(i)
				out := []*call{estimateCall(g, s)}
				for j := 0; j < probesPerEstimate; j++ {
					out = append(out, farnessCall(kProbe, g, int(mix(seed, i, j)%int64(len(g.probes))), s))
				}
				return out
			}}
		},
	}
}

// warmSeeds are the estimate seeds query-warm caches during set-up.
var warmSeeds = []int64{11, 12}

// queryWarm: cached farness reads, exact/sketch/auto distances, graph and
// status reads on the four hot graphs, and every twentieth op an exact
// distance on another Table I stand-in, which the resident budget forces to
// load (evicting the previous one). One client: requests take microseconds,
// and with a second client the two, bricsd and the driver's own goroutines
// contend for two cores.
func queryWarm() *workload {
	var others []string
	for _, ds := range gen.Datasets(1) {
		id := graphIDOf(ds.Name)
		if !contains(hotIDs, id) && id != "osm-minnesota" { // too small to force an eviction
			others = append(others, id)
		}
	}
	return &workload{
		name:     "query-warm",
		scale:    1,
		hotIDs:   hotIDs,
		otherIDs: others,
		heavy:    []string{kSwitch},
		slice:    time.Second,
		budget: func(hot, others []*benchGraph) int64 {
			var sum, max int64
			for _, g := range hot {
				sum += g.bytes
			}
			for _, g := range others {
				if g.bytes > max {
					max = g.bytes
				}
			}
			return sum + max
		},
		warmup: func(hot []*benchGraph) []*call {
			var out []*call
			for _, g := range hot {
				for _, s := range warmSeeds {
					out = append(out, estimateCall(g, s))
				}
				out = append(out, distanceCall(kDistSketch, g, 0))
			}
			return out
		},
		streams: func(seed int64, hot, others []*benchGraph) []stream {
			return []stream{func(i int) []*call {
				h := mix(seed, i, 0)
				g := hot[(i+i/20)%len(hot)]
				switch slot := i % 20; {
				case slot < 8 || slot == 17 || slot == 18:
					return []*call{farnessCall(kFarness, g, int(h%int64(len(g.probes))), warmSeeds[(h>>32)%2])}
				case slot < 11:
					return []*call{distanceCall(kDistExact, g, h)}
				case slot < 13:
					return []*call{distanceCall(kDistSketch, g, h)}
				case slot < 15:
					return []*call{distanceCall(kDistAuto, g, h)}
				case slot == 15:
					return []*call{getCall(kGraph, g, "/v1/graph")}
				case slot == 16:
					return []*call{{kind: kStatus, g: g, method: "GET", path: "/v1/status"}}
				default:
					return []*call{distanceCall(kSwitch, others[(i/20)%len(others)], h)}
				}
			}}
		},
	}
}

// readerSeed is the fixed estimate seed of mutate-mix's farness reads.
const readerSeed = 1

// nonEdge draws a node pair of g that is not an edge, from h.
func nonEdge(g *graph.Graph, h int64) edge {
	rng := rand.New(rand.NewSource(h))
	n := g.NumNodes()
	for {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			return edge{u, v}
		}
	}
}

// mutateMix: one writer alternates inserting a random non-edge and deleting
// it again, rotating over the four family graphs at scale 0.1; one reader
// issues farness reads at a fixed seed and exact distances beside it. It is
// manual: with a mutation running nearly all the time, the reader spends
// about 88% of its time in reads stalled 5-30 ms, so ops_per_s counts the
// fast reads that fit in the rest and spread by 0.26-0.32 (quartile distance
// over median) over ten seeds, past its 0.25 bound.
func mutateMix() *workload {
	return &workload{
		name:       "mutate-mix",
		manual:     true,
		scale:      0.1,
		hotIDs:     hotIDs,
		heavy:      []string{kInsert, kDelete},
		interleave: 8,
		budget:     func(_, _ []*benchGraph) int64 { return 0 },
		warmup: func(hot []*benchGraph) []*call {
			var out []*call
			for _, g := range hot {
				out = append(out, estimateCall(g, readerSeed))
			}
			return out
		},
		streams: func(seed int64, hot, _ []*benchGraph) []stream {
			writer := func(w int) []*call {
				g := hot[(w/2)%len(hot)]
				e := nonEdge(g.g, mix(seed, w-w%2, 1))
				if w%2 == 0 {
					return []*call{{kind: kInsert, g: g, method: "POST", path: "/graphs/" + g.id + "/v1/edges",
						body: fmt.Sprintf(`{"u":%d,"v":%d}`, e.u, e.v), e: e}}
				}
				return []*call{{kind: kDelete, g: g, method: "DELETE", e: e,
					path: fmt.Sprintf("/graphs/%s/v1/edges?u=%d&v=%d", g.id, e.u, e.v)}}
			}
			reader := func(r int) []*call {
				h := mix(seed, r, 2)
				g := hot[(r/2)%len(hot)]
				if r%2 == 0 {
					return []*call{farnessCall(kFarness, g, int(h%int64(len(g.probes))), readerSeed)}
				}
				return []*call{distanceCall(kDistExact, g, h)}
			}
			return []stream{writer, reader}
		},
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
