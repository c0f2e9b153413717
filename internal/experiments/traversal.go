package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TraversalRow is one (dataset, relabel ordering, traversal engine) point of
// the locality matrix: full cumulative-estimate wall-clock at 20% sampling,
// the traversal-phase share of it, and the speedup over the same dataset's
// default configuration (relabel=none, traversal=auto). Every cell produces
// bit-identical farness values — the matrix isolates pure memory-layout and
// kernel-direction effects.
type TraversalRow struct {
	Dataset   gen.Dataset   `json:"-"`
	Name      string        `json:"name"`
	Class     string        `json:"class"`
	Relabel   string        `json:"relabel"`
	Traversal string        `json:"traversal"`
	Total     time.Duration `json:"total_ns"`
	Traverse  time.Duration `json:"traverse_ns"`
	Speedup   float64       `json:"speedup_vs_default"`
}

// traversalOrderings and traversalEngines span the matrix axes.
var traversalOrderings = []graph.RelabelMode{graph.RelabelNone, graph.RelabelDegree, graph.RelabelBFS}
var traversalEngines = []core.TraversalMode{core.TraversalAuto, core.TraversalPerSource, core.TraversalBatched}

// TraversalBench measures the full ordering×engine matrix on one dataset per
// graph class. Each cell is the best of two runs (the first run pays
// allocator warm-up); the speedup column compares against the (none, auto)
// cell of the same dataset, i.e. what the estimator does with no knobs set.
// Every run's farness must equal that cell's bit for bit; a mismatch is
// returned as an error.
func TraversalBench(cfg Config, fraction float64) ([]TraversalRow, error) {
	if fraction <= 0 {
		fraction = 0.2
	}
	var rows []TraversalRow
	seen := map[gen.Class]bool{}
	for _, ds := range gen.Datasets(cfg.scale()) {
		if seen[ds.Class] {
			continue
		}
		seen[ds.Class] = true
		g := ds.Build()
		var baseline time.Duration
		var want []float64 // farness of the (none, auto) cell
		for _, ord := range traversalOrderings {
			for _, eng := range traversalEngines {
				row := TraversalRow{
					Dataset:   ds,
					Name:      ds.Name,
					Class:     string(ds.Class),
					Relabel:   ord.String(),
					Traversal: eng.String(),
				}
				for rep := 0; rep < 2; rep++ {
					start := time.Now()
					res, err := core.Estimate(g, core.Options{
						Techniques:     core.TechCumulative,
						SampleFraction: fraction,
						Workers:        cfg.Workers,
						Seed:           cfg.Seed,
						Traversal:      eng,
						Relabel:        ord,
					})
					total := time.Since(start)
					if err != nil {
						return nil, fmt.Errorf("%s %s/%s: %v", ds.Name, ord, eng, err)
					}
					if want == nil {
						want = res.Farness
					}
					for v, f := range res.Farness {
						if f != want[v] {
							return nil, fmt.Errorf("%s %s/%s: farness[%d] = %v, relabel=none/traversal=auto gives %v",
								ds.Name, ord, eng, v, f, want[v])
						}
					}
					if rep == 0 || total < row.Total {
						row.Total = total
						row.Traverse = res.Stats.Traverse
					}
				}
				if ord == graph.RelabelNone && eng == core.TraversalAuto {
					baseline = row.Total
				}
				if row.Total > 0 {
					row.Speedup = float64(baseline) / float64(row.Total)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// FprintTraversal renders the locality matrix; speedup >1 means the
// configuration beats the default (relabel=none, traversal=auto) on that
// dataset.
func FprintTraversal(w io.Writer, fraction float64, rows []TraversalRow) {
	fmt.Fprintf(w, "Traversal locality matrix: relabel ordering x engine, cumulative estimate at %.0f%% sampling\n", fraction*100)
	fmt.Fprintf(w, "(farness checked identical in every cell; speedup is vs the same dataset's relabel=none/traversal=auto run)\n")
	fmt.Fprintf(w, "%-28s %-10s %-8s %-11s %10s %10s %8s\n",
		"Graph", "Class", "relabel", "engine", "traverse", "total", "speedup")
	prev := ""
	for _, r := range rows {
		name, class := r.Name, r.Class
		if name == prev {
			name, class = "", ""
		} else {
			prev = name
		}
		fmt.Fprintf(w, "%-28s %-10s %-8s %-11s %10s %10s %7.2fx\n",
			name, class, r.Relabel, r.Traversal, fmtDur(r.Traverse), fmtDur(r.Total), r.Speedup)
	}
}

// traversalReport is the BENCH_traversal.json document.
type traversalReport struct {
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	Scale      float64        `json:"scale"`
	Fraction   float64        `json:"fraction"`
	Note       string         `json:"note"`
	Rows       []TraversalRow `json:"rows"`
}

// WriteTraversalJSON writes the locality matrix to path as JSON so
// `make bench-traversal` leaves a machine-readable record next to the text
// table.
func WriteTraversalJSON(path string, cfg Config, fraction float64, rows []TraversalRow) error {
	rep := traversalReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Scale:      cfg.scale(),
		Fraction:   fraction,
		Note: "Full cumulative-estimate wall-clock per (relabel ordering, traversal engine) cell; " +
			"every cell produces bit-identical farness. speedup_vs_default compares against the " +
			"relabel=none/traversal=auto cell of the same dataset.",
		Rows: rows,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
