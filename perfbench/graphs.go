package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bincsr"
	"repro/internal/gen"
	"repro/internal/graph"
)

// hotIDs are the four graphs every workload serves, one per Table I family.
var hotIDs = []string{"web-NotreDame", "soc-Slashdot081106", "caidaRouterLevel", "osm-luxembourg"}

// families suffix the per-family layer metrics: the gen.Class of each of
// hotIDs.
var families = []string{"web", "social", "community", "road"}

// benchGraph is one generated artifact plus the oracle data the checker
// needs for it.
type benchGraph struct {
	id     string
	family string
	path   string
	sha256 string
	bytes  int64
	g      *graph.Graph

	// probes are the nodes farness requests ask for; exact[i] is the exact
	// farness of probes[i]. sources are the origins of distance requests and
	// rows[i] the BFS distances from sources[i].
	probes  []graph.NodeID
	exact   []float64
	sources []graph.NodeID
	rows    [][]int32
}

// buildArtifacts generates the named Table I stand-ins at the given scale
// and writes each as a connected .bricsbin artifact into dir. The graphs are
// the stand-ins' own (fixed-seed) instances, not drawn from the workload
// seed: estimate and top-k cost differ by up to a quarter between instances
// of one family, which made run-to-run spread exceed the metric bounds. The
// workload seed drives everything sent to the graphs instead.
func buildArtifacts(dir string, ids []string, scale float64) ([]*benchGraph, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	out := make([]*benchGraph, 0, len(ids))
	for _, id := range ids {
		ds, ok := gen.ByName(id, scale)
		if !ok {
			return nil, fmt.Errorf("unknown dataset %q", id)
		}
		g := ds.Build()
		if !graph.IsConnected(g) {
			g = graph.Connect(g)
		}
		bg := &benchGraph{id: id, family: string(ds.Class), path: filepath.Join(dir, id+".bricsbin"), g: g}
		if err := writeArtifact(bg); err != nil {
			return nil, err
		}
		out = append(out, bg)
	}
	return out, nil
}

// writeArtifact writes bg.g to bg.path and records its size and checksum.
func writeArtifact(bg *benchGraph) error {
	if err := bincsr.WriteFile(bg.path, bg.g, bincsr.FlagConnected); err != nil {
		return fmt.Errorf("write %s: %w", bg.path, err)
	}
	f, err := os.Open(bg.path)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return err
	}
	bg.bytes, bg.sha256 = n, hex.EncodeToString(h.Sum(nil))
	return nil
}

// pickNodes draws k distinct nodes of g from rng.
func pickNodes(rng *rand.Rand, g *graph.Graph, k int) []graph.NodeID {
	n := g.NumNodes()
	if k > n {
		k = n
	}
	perm := rng.Perm(n)[:k]
	out := make([]graph.NodeID, k)
	for i, v := range perm {
		out[i] = graph.NodeID(v)
	}
	return out
}

// prepareOracle draws the probe and source pools of bg from seed and
// computes their exact farness and distance rows with the benchmark's own
// BFS, in parallel over two goroutines.
func prepareOracle(bg *benchGraph, seed int64, nProbes, nSources int) {
	rng := rand.New(rand.NewSource(seed ^ int64(len(bg.id))<<32 ^ int64(bg.g.NumNodes())))
	bg.probes = pickNodes(rng, bg.g, nProbes)
	bg.sources = pickNodes(rng, bg.g, nSources)
	bg.exact = make([]float64, len(bg.probes))
	bg.rows = make([][]int32, len(bg.sources))
	parallelFor(len(bg.probes)+len(bg.sources), func(i int) {
		if i < len(bg.probes) {
			bg.exact[i] = farnessOf(bfsRow(bg.g, bg.probes[i], noEdge))
			return
		}
		i -= len(bg.probes)
		bg.rows[i] = bfsRow(bg.g, bg.sources[i], noEdge)
	})
}

// graphIDOf maps "web-NotreDame (sim)"-style names to artifact ids.
func graphIDOf(name string) string { return strings.TrimSuffix(name, " (sim)") }
