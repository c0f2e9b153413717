package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/bfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/sketch"
)

// SketchRow is one dataset of the distance-sketch study: the one-time build
// cost and footprint of the cluster-BFS sketch, then the sustained
// point-to-point query throughput of the three /v1/distance answering modes
// — exact (bidirectional BFS per query), sketch (O(k) bound lookup, upper
// bound answered) and auto (sketch when the bound is tight at tol=0, exact
// BFS otherwise). Before any timing, every benchmark pair is checked against
// the exact oracle: lower ≤ exact ≤ upper must hold or the bench errors out.
type SketchRow struct {
	Dataset gen.Dataset `json:"-"`
	Name    string      `json:"name"`
	Class   string      `json:"class"`
	Nodes   int         `json:"nodes"`
	Edges   int         `json:"edges"`

	Clusters    int           `json:"clusters"`
	BuildTime   time.Duration `json:"build_ns"`
	SketchBytes int64         `json:"sketch_bytes"`

	ExactQPS  float64 `json:"exact_qps"`
	SketchQPS float64 `json:"sketch_qps"`
	AutoQPS   float64 `json:"auto_qps"`
	// Speedup is SketchQPS / ExactQPS — the acceptance ratio.
	Speedup float64 `json:"sketch_speedup_vs_exact"`
	// TightFrac is the fraction of pairs whose sketch bound was already
	// exact (lower == upper): auto mode answers these without a traversal.
	TightFrac float64 `json:"tight_bound_fraction"`
	// MeanGap is the average upper−lower bound width across the pairs.
	MeanGap float64 `json:"mean_bound_gap"`
	// MeanErr is the average upper−exact overestimate of sketch mode.
	MeanErr float64 `json:"mean_upper_error"`
}

// sketchMinMeasure is the minimum wall-clock per timing loop; the pair set
// is swept repeatedly until it accumulates, so even the nanosecond-scale
// sketch lookups get a stable rate.
const sketchMinMeasure = 50 * time.Millisecond

// sketchQPS sweeps the pair set through query until at least
// sketchMinMeasure has elapsed and returns queries per second.
func sketchQPS(pairs [][2]graph.NodeID, query func(u, v graph.NodeID)) float64 {
	queries := 0
	start := time.Now()
	for time.Since(start) < sketchMinMeasure {
		for _, p := range pairs {
			query(p[0], p[1])
		}
		queries += len(pairs)
	}
	return float64(queries) / time.Since(start).Seconds()
}

// SketchBench measures the distance sketch on one dataset per graph class.
// Datasets are connected first (the paper's preprocessing), matching what
// the server would hold.
func SketchBench(cfg Config) ([]SketchRow, error) {
	var rows []SketchRow
	seen := map[gen.Class]bool{}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, ds := range gen.Datasets(cfg.scale()) {
		if seen[ds.Class] {
			continue
		}
		seen[ds.Class] = true
		g := graph.Connect(ds.Build())
		n := g.NumNodes()
		row := SketchRow{
			Dataset: ds,
			Name:    ds.Name,
			Class:   string(ds.Class),
			Nodes:   n,
			Edges:   g.NumEdges(),
		}

		start := time.Now()
		sk := sketch.Build(g, sketch.Options{Workers: cfg.Workers})
		row.BuildTime = time.Since(start)
		row.Clusters = sk.Clusters()
		row.SketchBytes = sk.Bytes()

		const numPairs = 256
		pairs := make([][2]graph.NodeID, numPairs)
		for i := range pairs {
			pairs[i] = [2]graph.NodeID{graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))}
		}

		exact := func(u, v graph.NodeID) int32 {
			d, _ := bfs.PointToPointCtx(context.Background(), g, u, v)
			return d
		}
		// Correctness gate before any timing: proven bounds must bracket the
		// exact distance on every benchmark pair.
		tight, gapSum, errSum := 0, 0.0, 0.0
		for _, p := range pairs {
			d := exact(p[0], p[1])
			lo, hi, ok := sk.Bounds(p[0], p[1])
			if !ok {
				return nil, fmt.Errorf("%s: sketch cannot bound pair (%d,%d) on a connected graph",
					ds.Name, p[0], p[1])
			}
			if lo > d || d > hi {
				return nil, fmt.Errorf("%s: bounds [%d,%d] exclude exact d(%d,%d)=%d",
					ds.Name, lo, hi, p[0], p[1], d)
			}
			if lo == hi {
				tight++
			}
			gapSum += float64(hi - lo)
			errSum += float64(hi - d)
		}
		row.TightFrac = float64(tight) / numPairs
		row.MeanGap = gapSum / numPairs
		row.MeanErr = errSum / numPairs

		row.ExactQPS = sketchQPS(pairs, func(u, v graph.NodeID) {
			exact(u, v)
		})
		row.SketchQPS = sketchQPS(pairs, func(u, v graph.NodeID) {
			sk.Bounds(u, v)
		})
		row.AutoQPS = sketchQPS(pairs, func(u, v graph.NodeID) {
			if lo, hi, ok := sk.Bounds(u, v); !ok || lo != hi {
				exact(u, v)
			}
		})
		if row.ExactQPS > 0 {
			row.Speedup = row.SketchQPS / row.ExactQPS
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FprintSketch renders the query-throughput table.
func FprintSketch(w io.Writer, rows []SketchRow) {
	fmt.Fprintf(w, "Distance sketch: point-to-point queries/sec by answering mode\n")
	fmt.Fprintf(w, "(bounds verified to bracket the exact distance on every pair before timing;\n")
	fmt.Fprintf(w, " auto answers from the sketch when lower==upper, exact BFS otherwise)\n")
	fmt.Fprintf(w, "%-28s %-10s %9s %10s %12s %12s %12s %9s %6s %7s\n",
		"Graph", "Class", "build", "bytes", "exact q/s", "sketch q/s", "auto q/s", "speedup", "tight", "gap")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %-10s %9s %10d %12.0f %12.0f %12.0f %8.0fx %5.0f%% %7.2f\n",
			r.Name, r.Class, fmtDur(r.BuildTime), r.SketchBytes,
			r.ExactQPS, r.SketchQPS, r.AutoQPS, r.Speedup, 100*r.TightFrac, r.MeanGap)
	}
}

// sketchReport is the BENCH_sketch.json document.
type sketchReport struct {
	GOMAXPROCS int         `json:"gomaxprocs"`
	NumCPU     int         `json:"num_cpu"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Scale      float64     `json:"scale"`
	Note       string      `json:"note"`
	Rows       []SketchRow `json:"rows"`
}

// WriteSketchJSON writes the study to path as JSON so `make bench-sketch`
// leaves a machine-readable record next to the text table.
func WriteSketchJSON(path string, cfg Config, rows []SketchRow) error {
	rep := sketchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Scale:      cfg.scale(),
		Note: "Point-to-point distance throughput of the three /v1/distance answering modes, measured " +
			"on the kernels behind the endpoint (bidirectional BFS vs O(k) sketch bound lookup) over a " +
			"fixed random pair set per dataset. Bounds were verified to bracket the exact distance on " +
			"every pair before timing. build_ns and sketch_bytes are the one-time per-generation cost.",
		Rows: rows,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
