package bfs

import (
	"context"

	"repro/internal/graph"
	"repro/internal/par"
)

// PointToPointCtx returns d(s, t) using bidirectional BFS: both endpoints
// expand level by level, always growing the smaller frontier, and stop one
// level after the frontiers first touch. On small-world graphs this visits
// O(√) of the nodes a full BFS would — it backs the server's /v1/distance
// endpoint. Returns -1 (Unreached) when t is unreachable from s.
// Cancellation is polled once per expansion level, so a closed request or
// deadline abandons the search; on a non-nil error the distance is
// meaningless and must be discarded.
func PointToPointCtx(ctx context.Context, g *graph.Graph, s, t graph.NodeID) (int32, error) {
	d := pointToPointDone(g, s, t, ctx.Done())
	if err := par.CtxErr(ctx); err != nil {
		return Unreached, err
	}
	return d, nil
}

func pointToPointDone(g *graph.Graph, s, t graph.NodeID, done <-chan struct{}) int32 {
	if s == t {
		return 0 // covers the single-node graph too: no scratch allocated
	}
	if g.Degree(s) == 0 || g.Degree(t) == 0 {
		// An isolated endpoint can reach nothing but itself; answer the
		// disconnected pair without allocating the two n-sized arrays.
		return Unreached
	}
	n := g.NumNodes()
	distS := make([]int32, n)
	distT := make([]int32, n)
	for i := 0; i < n; i++ {
		distS[i] = Unreached
		distT[i] = Unreached
	}
	distS[s] = 0
	distT[t] = 0
	frontS := []graph.NodeID{s}
	frontT := []graph.NodeID{t}
	levelS, levelT := int32(0), int32(0)
	best := int32(-1)

	expand := func(front []graph.NodeID, level int32, mine, other []int32) []graph.NodeID {
		var next []graph.NodeID
		for _, u := range front {
			for _, w := range g.Neighbors(u) {
				if mine[w] != Unreached {
					continue
				}
				mine[w] = level + 1
				if other[w] != Unreached {
					if cand := mine[w] + other[w]; best < 0 || cand < best {
						best = cand
					}
				}
				next = append(next, w)
			}
		}
		return next
	}

	for len(frontS) > 0 && len(frontT) > 0 {
		if par.Interrupted(done) {
			return Unreached // partial search; the ctx wrapper surfaces the error
		}
		// Once the frontiers have met, one more level from each side
		// cannot improve below levelS+levelT+1; stop when best is already
		// that tight.
		if best >= 0 && best <= levelS+levelT+1 {
			return best
		}
		if len(frontS) <= len(frontT) {
			frontS = expand(frontS, levelS, distS, distT)
			levelS++
		} else {
			frontT = expand(frontT, levelT, distT, distS)
			levelT++
		}
	}
	return best
}
