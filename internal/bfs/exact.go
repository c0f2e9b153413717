package bfs

import (
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/queue"
)

// ExactFarness computes the exact farness of every node of the (connected,
// unweighted) graph g: farness(v) = Σ_w d(v, w). It runs one BFS per node,
// parallelised across the given number of workers with dynamic scheduling.
// This is the ground-truth oracle for every quality metric in the paper.
func ExactFarness(g *graph.Graph, workers int) []float64 {
	n := g.NumNodes()
	farness := make([]float64, n)
	workers = par.Workers(workers)
	type ws struct {
		dist []int32
		q    *queue.FIFO
	}
	scratch := make([]ws, workers)
	for i := range scratch {
		scratch[i] = ws{dist: make([]int32, n), q: queue.NewFIFO(n)}
	}
	par.ForDynamic(n, workers, 16, func(worker, v int) {
		s := &scratch[worker]
		Distances(g, graph.NodeID(v), s.dist, s.q)
		sum, _ := Sum(s.dist)
		farness[v] = float64(sum)
	})
	return farness
}
