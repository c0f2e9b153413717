package bfs

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// BenchmarkEngineOrderingMatrix crosses the three unweighted traversal
// kernels with the three CSR orderings on the four generator families. One
// op is a fixed batch of 64 traversals, so per-source, hybrid and the
// 64-lane batched engine are directly comparable; the ordering axis isolates
// the memory-layout effect on each kernel. The estimation-level version of
// this matrix (engines × orderings through Estimate itself) lives in
// internal/experiments and feeds BENCH_traversal.json.
func BenchmarkEngineOrderingMatrix(b *testing.B) {
	families := []struct {
		name string
		make func(n int, seed int64) *graph.Graph
	}{
		{"web", gen.Web},
		{"social", gen.Social},
		{"community", gen.Community},
		{"road", gen.Road},
	}
	const n = 20000
	for _, fam := range families {
		base := graph.Connect(fam.make(n, 1))
		for _, mode := range []graph.RelabelMode{graph.RelabelNone, graph.RelabelDegree, graph.RelabelBFS} {
			g, r := graph.Relabel(base, mode, 0)
			sources := make([]graph.NodeID, MSBFSWidth)
			for i := range sources {
				s := graph.NodeID((i * 131) % n)
				if r != nil {
					s = r.Perm[s]
				}
				sources[i] = s
			}
			name := func(engine string) string {
				return fmt.Sprintf("%s/%s/%s", fam.name, mode, engine)
			}
			b.Run(name("per-source"), func(b *testing.B) {
				s := NewScratch(g.NumNodes(), 0)
				for i := 0; i < b.N; i++ {
					for _, src := range sources {
						Distances(g, src, s.Dist, s.Q)
					}
				}
			})
			b.Run(name("hybrid"), func(b *testing.B) {
				s := NewScratch(g.NumNodes(), 0)
				for i := 0; i < b.N; i++ {
					for _, src := range sources {
						_ = HybridDistancesCtx(context.Background(), g, src, s.Dist, s)
					}
				}
			})
			b.Run(name("batched"), func(b *testing.B) {
				s := NewMSScratch(g.NumNodes(), 1)
				var sink int64
				for i := 0; i < b.N; i++ {
					MultiSourceMasksInto(g, sources, s, perLane(func(v graph.NodeID, lane int, d int32) {
						sink += int64(d)
					}))
				}
				_ = sink
			})
		}
	}
}
