package reduce

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bfs"
	"repro/internal/graph"
)

// TestRegressionSeeds pins the seeds of historical property-test failures
// with detailed diagnostics.
func TestRegressionSeeds(t *testing.T) {
	for _, seed := range []int64{-2952851558929064026, -2464622358371175107} {
		rng := rand.New(rand.NewSource(seed))
		g := randomMixed(rng)
		if !graph.IsConnected(g) {
			g = graph.Connect(g)
		}
		n := g.NumNodes()
		apFull := allPairs(g)
		for oi, opts := range allOptions() {
			red, err := Run(g, opts)
			if err != nil {
				t.Fatalf("seed %d opts %d: %v", seed, oi, err)
			}
			distR := make([]int32, red.G.NumNodes())
			distOrig := make([]int32, n)
			for srcR := 0; srcR < red.G.NumNodes(); srcR++ {
				_ = bfs.WDistancesCtx(context.Background(), red.G, int32(srcR), distR, nil)
				srcOrig := red.ToOld[srcR]
				for wR := 0; wR < red.G.NumNodes(); wR++ {
					if distR[wR] != apFull[srcOrig][red.ToOld[wR]] {
						t.Fatalf("seed %d opts %d (%+v): kept-kept distance %d->%d: reduced %d, full %d",
							seed, oi, opts, srcOrig, red.ToOld[wR], distR[wR], apFull[srcOrig][red.ToOld[wR]])
					}
				}
				red.Scatter(distR, distOrig)
				red.Extend(distOrig)
				for v := 0; v < n; v++ {
					if distOrig[v] != apFull[srcOrig][v] {
						t.Fatalf("seed %d opts %d (%+v): extended distance %d->%d: got %d, want %d (event=%v)",
							seed, oi, opts, srcOrig, v, distOrig[v], apFull[srcOrig][v], describeNode(red, int32(v)))
					}
				}
			}
		}
	}
}

func describeNode(red *Reduction, v int32) string {
	if red.ToNew[v] >= 0 {
		return "kept"
	}
	for _, e := range red.Events {
		for _, r := range e.Removed() {
			if r == v {
				switch ev := e.(type) {
				case *TwinEvent:
					return "twin"
				case *ChainEvent:
					return "chain:" + ev.Kind.String()
				case *RedundantEvent:
					return "redundant"
				}
			}
		}
	}
	return "unknown"
}
