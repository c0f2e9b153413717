package core

import "fmt"

// TraversalMode selects the traversal engine the estimators use for their
// sampled sources.
type TraversalMode int

const (
	// TraversalAuto (default) picks TraversalBatched whenever at least
	// batchMinSources sampled sources share a traversal unit — the whole
	// (reduced) graph for the global estimators, one biconnected block for
	// the cumulative one — and the direction-optimising per-source kernel
	// below that, where batch setup costs outweigh the shared edge scans.
	TraversalAuto TraversalMode = iota
	// TraversalPerSource runs one plain top-down BFS/Dial per sampled
	// source, parallel across sources (the original engine).
	TraversalPerSource
	// TraversalBatched groups sources into ≤64-wide bit-parallel batches
	// that share edge scans (see bfs.RunBatchesCtx/RunBatchesWCtx)
	// and fans the batches out across the worker pool. Farness output is
	// bit-identical to TraversalPerSource for the same seed.
	TraversalBatched
)

// batchMinSources is the Auto threshold: below 8 sources in a traversal
// unit a 64-lane sweep mostly carries empty lanes and the per-source
// engine's simpler inner loop wins.
const batchMinSources = 8

// String names the mode for logs and experiment tables.
func (m TraversalMode) String() string {
	switch m {
	case TraversalPerSource:
		return "per-source"
	case TraversalBatched:
		return "batched"
	default:
		return "auto"
	}
}

// ParseTraversalMode converts a mode name (as produced by String, with a few
// aliases) into a TraversalMode; the empty string is Auto.
func ParseTraversalMode(s string) (TraversalMode, error) {
	switch s {
	case "", "auto":
		return TraversalAuto, nil
	case "per-source", "persource", "sequential":
		return TraversalPerSource, nil
	case "batched", "batch", "msbfs":
		return TraversalBatched, nil
	}
	return 0, fmt.Errorf("core: unknown traversal mode %q (want auto, per-source or batched)", s)
}

// batched reports whether a traversal unit with k sampled sources should
// use the batched engine under this mode.
func (m TraversalMode) batched(k int) bool {
	switch m {
	case TraversalPerSource:
		return false
	case TraversalBatched:
		return k > 0
	default:
		return k >= batchMinSources
	}
}

// hybrid reports whether per-source unweighted traversals should use the
// direction-optimising kernel under this mode: true for Auto (the hybrid
// kernel degrades to plain top-down levels on graphs where pull never pays,
// so Auto loses nothing by defaulting to it), false for the plain top-down
// PerSource engine.
func (m TraversalMode) hybrid() bool {
	return m == TraversalAuto
}
