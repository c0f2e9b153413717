package main

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/graph"
)

// edge is an undirected edge; noEdge marks "no extra edge".
type edge struct{ u, v graph.NodeID }

var noEdge = edge{-1, -1}

// bfsRow returns the hop distances from src in g plus the optional extra
// edge (-1 where unreachable). It is deliberately independent of the
// program's traversal engines: it is the oracle they are checked against.
func bfsRow(g *graph.Graph, src graph.NodeID, extra edge) []int32 {
	dist := make([]int32, g.NumNodes())
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]graph.NodeID, 0, len(dist))
	dist[src] = 0
	queue = append(queue, src)
	visit := func(w graph.NodeID, d int32) {
		if dist[w] < 0 {
			dist[w] = d
			queue = append(queue, w)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		d := dist[u] + 1
		for _, w := range g.Neighbors(u) {
			visit(w, d)
		}
		if u == extra.u {
			visit(extra.v, d)
		} else if u == extra.v {
			visit(extra.u, d)
		}
	}
	return dist
}

// farnessAtLeast reports whether src's farness in the connected graph g is
// at least bound. The BFS stops at the first level after which the distance
// sum so far plus (level+1) for every unreached node already reaches it.
func farnessAtLeast(g *graph.Graph, src graph.NodeID, bound float64) bool {
	n := g.NumNodes()
	seen := make([]bool, n)
	seen[src] = true
	level := []graph.NodeID{src}
	var sum, reached int64 = 0, 1
	for d := int64(1); len(level) > 0; d++ {
		if float64(sum+d*(int64(n)-reached)) >= bound {
			return true
		}
		var next []graph.NodeID
		for _, u := range level {
			for _, w := range g.Neighbors(u) {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
				}
			}
		}
		sum += d * int64(len(next))
		reached += int64(len(next))
		level = next
	}
	return float64(sum) >= bound
}

// farnessOf sums a connected graph's distance row.
func farnessOf(row []int32) float64 {
	var s int64
	for _, d := range row {
		s += int64(d)
	}
	return float64(s)
}

// parallelFor runs fn(0..n-1) on two goroutines, the host's core count.
func parallelFor(n int, fn func(i int)) {
	const workers = 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// verifyTopK checks a served top-k answer against the exact farness order:
// every returned value is the node's exact farness, the list is sorted, and
// no other node has a strictly smaller farness than the k-th value (ties
// with it are allowed). Nodes are ruled out cheaply with the landmark bound
// farness(v) >= sum_x |d(L,v) - d(L,x)| over every BFS row at hand; only the
// survivors get an exact BFS.
func verifyTopK(g *graph.Graph, nodes []graph.NodeID, far []float64, k int, landmarks [][]int32) error {
	n := g.NumNodes()
	if k > n {
		k = n
	}
	if len(nodes) != k || len(far) != k {
		return fmt.Errorf("topk: %d nodes, %d values, want %d", len(nodes), len(far), k)
	}
	in := make(map[graph.NodeID]bool, k)
	rows := append([][]int32(nil), landmarks...)
	for i, v := range nodes {
		if v < 0 || int(v) >= n || in[v] {
			return fmt.Errorf("topk: bad or repeated node %d", v)
		}
		in[v] = true
		row := bfsRow(g, v, noEdge)
		if got := farnessOf(row); got != far[i] {
			return fmt.Errorf("topk: node %d farness %v, exact %v", v, far[i], got)
		}
		if i > 0 && far[i] < far[i-1] {
			return fmt.Errorf("topk: values not sorted at %d", i)
		}
		rows = append(rows, row)
	}
	kth := far[k-1]
	lower := make([]float64, n)
	for _, row := range rows {
		sorted := append([]int32(nil), row...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		prefix := make([]int64, n+1)
		for i, d := range sorted {
			prefix[i+1] = prefix[i] + int64(d)
		}
		for v := 0; v < n; v++ {
			d := row[v]
			j := sort.Search(n, func(i int) bool { return sorted[i] >= d })
			lb := int64(d)*int64(j) - prefix[j] + (prefix[n] - prefix[j]) - int64(d)*int64(n-j)
			lower[v] = math.Max(lower[v], float64(lb))
		}
	}
	var cands []graph.NodeID
	for v := 0; v < n; v++ {
		if !in[graph.NodeID(v)] && lower[v] < kth {
			cands = append(cands, graph.NodeID(v))
		}
	}
	bad := make([]bool, len(cands))
	parallelFor(len(cands), func(i int) {
		bad[i] = !farnessAtLeast(g, cands[i], kth)
	})
	for i, b := range bad {
		if b {
			return fmt.Errorf("topk: node %d is closer than the k-th answer %v", cands[i], kth)
		}
	}
	return nil
}
