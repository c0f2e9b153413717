package bfs

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/queue"
)

// These tests compose the weighted 64-lane engine with cache-aware
// relabeling — the exact pairing the estimators run in production (the
// reduced graph is rebuilt under a permutation, sources map through Perm on
// the way in, rows map back through it on the way out) — and pin that the
// composition changes no distance. Three weight regimes force all three
// kernels behind MultiSourceWRows: all-ones (level-synchronous sweep),
// small weights (lane-masked Dial), and weights above MSMaxBucketWeight
// (per-source Dial fallback).

func relabelWeightRegimes() []struct {
	name   string
	lo, hi int32
} {
	return []struct {
		name   string
		lo, hi int32
	}{
		{"unit", 1, 1},
		{"bucketable", 1, 9},
		{"fallback", MSMaxBucketWeight + 1, MSMaxBucketWeight + 64},
	}
}

// TestMultiSourceWRowsUnderRelabeling: rows computed on the relabeled graph,
// read back through the permutation, equal per-source Dial rows on the
// original graph — for every family, weight regime and relabel ordering.
func TestMultiSourceWRowsUnderRelabeling(t *testing.T) {
	for _, fam := range genFamilies {
		for _, reg := range relabelWeightRegimes() {
			for _, mode := range []graph.RelabelMode{graph.RelabelDegree, graph.RelabelBFS} {
				rng := rand.New(rand.NewSource(29))
				g := graph.Connect(fam.build(rng.Intn(300)+100, 17))
				wg := reweight(g, reg.lo, reg.hi, rng)
				rg, r := graph.RelabelW(wg, mode, 2)
				if r == nil {
					t.Fatalf("%s/%s/%s: relabeling returned no permutation", fam.name, reg.name, mode)
				}
				n := wg.NumNodes()
				batch := randomBatch(rng, n)
				batchR := make([]graph.NodeID, len(batch))
				for i, s := range batch {
					batchR[i] = r.Perm[s]
				}
				rows := make([][]int32, len(batch))
				for i := range rows {
					rows[i] = make([]int32, n)
				}
				s := NewMSScratch(n, rg.MaxWeight())
				MultiSourceWRows(rg, rg.Unweighted(), batchR, s, rows)

				want := make([]int32, n)
				b := queue.NewBucket(wg.MaxWeight())
				for lane, src := range batch {
					wDistances(wg, src, want, b)
					for v := 0; v < n; v++ {
						if got := rows[lane][r.Perm[v]]; got != want[v] {
							t.Fatalf("%s/%s/%s lane %d node %d: got %d, want %d",
								fam.name, reg.name, mode, lane, v, got, want[v])
						}
					}
				}
			}
		}
	}
}

// TestMultiSourceWMasksUnderRelabeling pins the mask-granularity contract on
// a relabeled graph: masks may split one (node, distance) pair across calls,
// but unioned over the sweep every (source, node) pair is covered exactly
// once, at the per-source distance.
func TestMultiSourceWMasksUnderRelabeling(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := graph.Connect(genFamilies[3].build(220, 13)) // road: long chains stress bucket reuse
	wg := reweight(g, 1, 7, rng)
	rg, r := graph.RelabelW(wg, graph.RelabelBFS, 1)
	n := wg.NumNodes()
	batch := randomBatch(rng, n)
	batchR := make([]graph.NodeID, len(batch))
	for i, s := range batch {
		batchR[i] = r.Perm[s]
	}
	seen := make([][]int32, len(batch))
	for i := range seen {
		seen[i] = make([]int32, n)
		fill(seen[i])
	}
	multiSourceWMasksInto(rg, batchR, NewMSScratch(n, rg.MaxWeight()), func(v graph.NodeID, mask uint64, d int32) {
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			if seen[lane][v] != Unreached {
				t.Fatalf("lane %d node %d settled twice (d=%d then d=%d)", lane, v, seen[lane][v], d)
			}
			seen[lane][v] = d
		}
	})
	want := make([]int32, n)
	b := queue.NewBucket(wg.MaxWeight())
	for lane, src := range batch {
		wDistances(wg, src, want, b)
		for v := 0; v < n; v++ {
			if got := seen[lane][r.Perm[v]]; got != want[v] {
				t.Fatalf("lane %d node %d: got %d, want %d", lane, v, got, want[v])
			}
		}
	}
}
