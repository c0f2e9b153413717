// Package brics is the public API of the BRICS farness-centrality library,
// a from-scratch Go reproduction of "BRICS – Efficient Techniques for
// Estimating the Farness-Centrality in Parallel" (Regunta, Tondomker,
// Kothapalli; IPDPS workshops 2019).
//
// The farness of a node v in a connected undirected graph is the sum of
// shortest-path distances from v to every other node (its inverse is the
// closeness centrality). Exact computation needs one BFS per node; BRICS
// estimates all n values from k ≪ n traversals after shrinking the graph
// with four structure-exploiting reductions:
//
//	B — decompose into Biconnected components and aggregate across the
//	    block cut-vertex tree,
//	R — remove Redundant 3/4-degree nodes,
//	I — remove Identical (twin) nodes,
//	C — contract Chains of degree-≤2 nodes,
//	S — Sample traversal sources inside each component.
//
// Quick start:
//
//	g, err := brics.LoadGraph("soc-Slashdot0811.txt.gz")
//	g = brics.Connect(g)
//	res, err := brics.Estimate(g, brics.Options{
//		Techniques:     brics.TechCumulative,
//		SampleFraction: 0.2,
//	})
//	fmt.Println(res.Farness[0], res.Exact[0])
//
// See the examples/ directory for runnable scenarios and DESIGN.md for the
// architecture and the paper-experiment index.
package brics

import (
	"context"
	"io"
	"time"

	"repro/internal/betweenness"
	"repro/internal/bfs"
	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	repro_io "repro/internal/io"
	"repro/internal/sketch"
	"repro/internal/topk"
)

// Graph is a simple undirected graph in CSR form (see Builder and
// LoadGraph for construction).
type Graph = graph.Graph

// NodeID identifies a node: dense int32 values in [0, NumNodes()).
type NodeID = graph.NodeID

// Builder accumulates edges and produces a normalised Graph.
type Builder = graph.Builder

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// NewGrowingBuilder returns a Builder that grows its node range with the
// edges it sees.
func NewGrowingBuilder() *Builder { return graph.NewGrowingBuilder() }

// FromEdges builds a graph with n nodes from an edge list; it panics on
// out-of-range endpoints (intended for literals and tests).
func FromEdges(n int, edges [][2]NodeID) *Graph { return graph.FromEdges(n, edges) }

// Connect adds the minimum number of edges needed to make g connected —
// the paper's preprocessing for disconnected inputs. Connected graphs are
// returned unchanged.
func Connect(g *Graph) *Graph { return graph.Connect(g) }

// IsConnected reports whether g is connected.
func IsConnected(g *Graph) bool { return graph.IsConnected(g) }

// LoadGraph reads a graph file (SNAP edge list or Matrix Market .mtx,
// optionally .gz) and normalises it to a simple undirected graph.
func LoadGraph(path string) (*Graph, error) { return repro_io.ReadFile(path) }

// ReadEdgeList parses a SNAP-style edge list from r.
func ReadEdgeList(r io.Reader) (*Graph, error) { return repro_io.ReadEdgeList(r) }

// WriteEdgeList writes g as an edge list.
func WriteEdgeList(w io.Writer, g *Graph) error { return repro_io.WriteEdgeList(w, g) }

// Technique selects BRICS optimisations (bitmask).
type Technique = core.Technique

// Technique flags; combine with |. TechCumulative is the paper's full
// configuration.
const (
	TechIdentical  = core.TechIdentical
	TechChains     = core.TechChains
	TechRedundant  = core.TechRedundant
	TechBiCC       = core.TechBiCC
	TechCR         = core.TechCR
	TechICR        = core.TechICR
	TechCumulative = core.TechCumulative
)

// EstimatorKind selects the extrapolation rule for unsampled nodes.
type EstimatorKind = core.EstimatorKind

// Estimator kinds.
const (
	// EstimatorWeighted (default) calibrates the extrapolation with the
	// sample rows' distance offsets.
	EstimatorWeighted = core.EstimatorWeighted
	// EstimatorPaper is the literal (population−1)/k scaling.
	EstimatorPaper = core.EstimatorPaper
)

// TraversalMode selects the traversal engine used for sampled sources.
type TraversalMode = core.TraversalMode

// Traversal modes. TraversalAuto batches sources into 64-wide bit-parallel
// multi-source sweeps whenever at least 8 of them share a component or
// biconnected block, and otherwise runs the direction-optimising per-source
// kernel. TraversalPerSource (plain top-down BFS/Dial per source) and
// TraversalBatched force one engine. All engines produce identical farness
// values for the same seed at every worker count — the choice only changes
// the wall-clock.
const (
	TraversalAuto      = core.TraversalAuto
	TraversalPerSource = core.TraversalPerSource
	TraversalBatched   = core.TraversalBatched
)

// BatchingMode selects how sampled sources are packed into the 64-wide
// bit-parallel batches of the batched traversal engine (see TraversalMode).
type BatchingMode = core.BatchingMode

// Batching modes. BatchingAuto (default) reorders the sampled sources by
// graph proximity — a BFS/Cuthill–McKee position pass over the traversal
// graph — whenever more than one batch runs, so each 64-wide batch covers
// one neighbourhood and its lane frontiers merge after a few hops;
// BatchingArbitrary keeps sample-draw order (the pre-clustering behaviour)
// and BatchingClustered forces the proximity pass. The sample set is never
// re-drawn — batching only permutes source order — so farness output is
// bit-identical across modes at every worker count; only the wall-clock
// changes.
const (
	BatchingAuto      = core.BatchingAuto
	BatchingArbitrary = core.BatchingArbitrary
	BatchingClustered = core.BatchingClustered
)

// ParseBatchingMode converts a mode name ("auto", "arbitrary", "clustered"
// and a few aliases) into a BatchingMode.
func ParseBatchingMode(s string) (BatchingMode, error) { return core.ParseBatchingMode(s) }

// RelabelMode selects a cache-aware node reordering applied to the reduced
// graph (and each biconnected block) before the sampled traversals run: ids
// are permuted so hot adjacency rows pack together, distance rows are mapped
// back afterwards. A pure memory-layout knob — results are bit-identical to
// RelabelNone at every worker count.
type RelabelMode = graph.RelabelMode

// Relabel modes. RelabelDegree orders nodes by descending degree (hub
// packing, helps power-law graphs); RelabelBFS uses a Cuthill–McKee-style
// breadth-first order (bandwidth reduction, helps meshes and road networks).
const (
	RelabelNone   = graph.RelabelNone
	RelabelDegree = graph.RelabelDegree
	RelabelBFS    = graph.RelabelBFS
)

// ParseRelabelMode converts a mode name ("none", "degree", "bfs" and a few
// aliases) into a RelabelMode.
func ParseRelabelMode(s string) (RelabelMode, error) { return graph.ParseRelabelMode(s) }

// ParseTraversalMode converts an engine name ("auto", "per-source",
// "batched") into a TraversalMode.
func ParseTraversalMode(s string) (TraversalMode, error) { return core.ParseTraversalMode(s) }

// Options configures Estimate; the zero value runs pure sampling at the
// paper's default 20% fraction.
type Options = core.Options

// Result of an estimation run: per-node farness, exactness flags and run
// statistics.
type Result = core.Result

// RunStats describes what an estimation run did (reductions, blocks,
// samples, timings).
type RunStats = core.RunStats

// Estimate runs the BRICS estimator on a connected graph. Options.Workers
// is the single parallelism knob for the whole run: the reduction pipeline
// (twin/chain/redundant detection, biconnected decomposition, graph
// rebuilds) and the traversals all fan out across it, and every worker
// count produces identical results.
func Estimate(g *Graph, opts Options) (*Result, error) { return core.Estimate(g, opts) }

// ErrCanceled is wrapped by every error returned from a context-aware run
// (EstimateContext and friends) that stopped because its context fired.
// Callers can test the cause with the standard errors package:
//
//	res, err := brics.EstimateContext(ctx, g, opts)
//	if errors.Is(err, brics.ErrCanceled) {
//		// the run was abandoned; res is nil and no partial values leak
//	}
//
// The context's own cause is wrapped too, so errors.Is(err,
// context.Canceled) and errors.Is(err, context.DeadlineExceeded) also work.
var ErrCanceled = core.ErrCanceled

// EstimateContext is Estimate with cooperative cancellation. The run checks
// ctx between pipeline stages (reduction rounds, decomposition, traversal,
// aggregation), between traversal sources, and inside long traversals at
// frontier granularity, so cancellation latency is bounded by a slice of
// one BFS level rather than a whole run. A canceled run returns a nil
// Result and an ErrCanceled-wrapping error; a run whose context never fires
// returns bit-identical output to Estimate with the same options.
func EstimateContext(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	return core.EstimateContext(ctx, g, opts)
}

// ExactFarness computes exact farness for every node with one parallel
// traversal per node — the ground truth, O(n·m) work.
func ExactFarness(g *Graph, workers int) []float64 { return core.ExactFarness(g, workers) }

// RandomSampling is the baseline estimator (the paper's Algorithm 1):
// uniform sources on the unreduced graph, traversal engine chosen
// automatically.
func RandomSampling(g *Graph, fraction float64, workers int, seed int64) *Result {
	return core.RandomSampling(g, fraction, workers, seed)
}

// RandomSamplingMode is RandomSampling with an explicit traversal engine
// (see TraversalMode); useful for benchmarking the engines against each
// other.
func RandomSamplingMode(g *Graph, fraction float64, workers int, seed int64, mode TraversalMode) *Result {
	return core.RandomSamplingMode(g, fraction, workers, seed, mode)
}

// Distance returns the shortest-path distance between two nodes using
// bidirectional BFS (both endpoints expand level by level, always growing
// the smaller frontier), which visits a small fraction of the nodes a full
// traversal would on small-world graphs. Returns -1 when t is unreachable
// from s. This is the kernel behind the server's /v1/distance endpoint.
func Distance(g *Graph, s, t NodeID) int32 {
	d, _ := bfs.PointToPointCtx(context.Background(), g, s, t)
	return d
}

// DistanceContext is Distance with cooperative cancellation, polled at every
// expansion level: when ctx is canceled or its deadline passes, the search
// is abandoned and an ErrCanceled-wrapping error is returned (the distance
// value is then meaningless). The server's /v1/distance handler uses this
// form so client disconnects and ?timeout= budgets cut traversals short;
// Distance stays as the convenience wrapper for callers without a context.
func DistanceContext(ctx context.Context, g *Graph, s, t NodeID) (int32, error) {
	return bfs.PointToPointCtx(ctx, g, s, t)
}

// DistanceSketch is a cluster-BFS distance index: ~k seed clusters (degree-
// picked centers grown to radius r) are swept once each through the 64-lane
// bit-parallel engine, recording per (vertex, cluster) the base distance and
// lane-visit bitmasks. After the one-time build, Bounds(u, v) returns a
// proven [lower, upper] distance bracket — the best triangle-inequality
// bound over the seeds both endpoints reached, refined through bitmask
// intersection — in O(k) word operations with no traversal; Query escapes to
// an exact bidirectional BFS when the bracket is wider than the caller's
// tolerance. This is the index behind the server's /v1/distance
// ?mode=sketch|auto and the top-k candidate filter (TopKOptions.Sketch).
type DistanceSketch = sketch.Sketch

// SketchOptions configures NewDistanceSketch; the zero value selects the
// package defaults (16 clusters, radius 1, GOMAXPROCS workers).
type SketchOptions = sketch.Options

// NewDistanceSketch builds a DistanceSketch over a graph. The build costs
// about one multi-source sweep per cluster and is bit-identical at every
// worker count.
func NewDistanceSketch(g *Graph, opts SketchOptions) *DistanceSketch {
	return sketch.Build(g, opts)
}

// Closeness converts farness values to closeness centralities 1/farness
// (0 where farness is 0).
func Closeness(farness []float64) []float64 {
	out := make([]float64, len(farness))
	for i, f := range farness {
		if f > 0 {
			out[i] = 1 / f
		}
	}
	return out
}

// Generators for the four graph classes of the paper's evaluation
// (synthetic stand-ins; see internal/gen and DESIGN.md).
var (
	// GenerateWeb builds a web-graph-like input (many twins and chains,
	// fragmented biconnected structure).
	GenerateWeb = gen.Web
	// GenerateSocial builds a social-network-like input.
	GenerateSocial = gen.Social
	// GenerateCommunity builds a community-network-like input.
	GenerateCommunity = gen.Community
	// GenerateRoad builds a road-network-like input (chain dominated).
	GenerateRoad = gen.Road
)

// Timed runs fn and returns its duration — a convenience for speedup
// measurements in examples and benchmarks.
func Timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// TopKResult is the result of a verified top-k closeness search.
type TopKResult = topk.Result

// TopKOptions configures TopKCloseness.
type TopKOptions = topk.Options

// TopKCloseness returns the k most central nodes (lowest farness) with
// exact farness values, using a BRICS estimate to order candidates and
// exact traversals to confirm them (estimate-then-verify).
func TopKCloseness(g *Graph, k int, opts TopKOptions) (*TopKResult, error) {
	return topk.Closeness(g, k, opts)
}

// TopKClosenessContext is TopKCloseness with cooperative cancellation (see
// EstimateContext for the semantics).
func TopKClosenessContext(ctx context.Context, g *Graph, k int, opts TopKOptions) (*TopKResult, error) {
	return topk.ClosenessContext(ctx, g, k, opts)
}

// DynamicIndex maintains exact farness values under edge insertions and
// deletions (the paper's "dynamic setting" future work): 2 + |affected|
// traversals per update instead of n.
type DynamicIndex = dynamic.Index

// NewDynamicIndex builds a dynamic farness index over a connected graph.
func NewDynamicIndex(g *Graph, workers int) (*DynamicIndex, error) {
	return dynamic.New(g, workers)
}

// AdaptiveOptions configures EstimateAdaptive.
type AdaptiveOptions = core.AdaptiveOptions

// AdaptiveResult extends Result with the escalation trace.
type AdaptiveResult = core.AdaptiveResult

// EstimateAdaptive escalates the sampling fraction until the estimates
// stabilise, answering "which sampling rate does this graph need?"
// automatically.
func EstimateAdaptive(g *Graph, opts AdaptiveOptions) (*AdaptiveResult, error) {
	return core.EstimateAdaptive(g, opts)
}

// EstimateAdaptiveContext is EstimateAdaptive with cooperative cancellation
// (see EstimateContext for the semantics); ctx is threaded into every
// escalation round.
func EstimateAdaptiveContext(ctx context.Context, g *Graph, opts AdaptiveOptions) (*AdaptiveResult, error) {
	return core.EstimateAdaptiveContext(ctx, g, opts)
}

// Betweenness computes exact betweenness centrality (Brandes) for every
// node — the companion metric the paper's related work targets with the
// same structural toolbox.
func Betweenness(g *Graph, workers int) []float64 {
	return betweenness.Exact(g, workers)
}

// BetweennessSampled estimates betweenness from k random sources
// (Brandes–Pich), scaled to the full-graph convention.
func BetweennessSampled(g *Graph, k, workers int, seed int64) []float64 {
	return betweenness.Sampled(g, k, workers, seed)
}
