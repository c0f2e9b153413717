// Command perfbench is the repository's serve-path benchmark. It generates
// Table I stand-in graphs from a workload seed, starts bricsd in registry
// mode over them, drives it over loopback HTTP with closed-loop clients,
// checks every answer against an oracle, and prints every metric by name
// with its unit. The last line of standard output is the result object
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics (-trace 0) or the per-layer metrics from a
// traced replay (-trace 1). A result file with provenance and per-route
// detail rows is written under <root>/.bench_build/results. Run it through
// run.sh, which builds both binaries first; see README.md for the workloads
// and what each metric should respond to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "estimate-cold, query-warm or mutate-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: probes, distance pairs, edges and the request sequence derive from it")
	flag.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced replay reporting the per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository root")
	flag.StringVar(&cfg.bricsd, "bricsd", ".bench_build/bin/bricsd", "bricsd binary")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.scale = 1
	cfg.work = filepath.Join(cfg.root, ".bench_build", "work", fmt.Sprintf("%s-s%d-trace%v", cfg.workload, cfg.seed, cfg.trace))

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeResult(cfg, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printReport(rep)
}

// run prepares a session and measures it, untraced or traced.
func run(cfg config) (*report, error) {
	start := time.Now()
	s, err := prepare(cfg)
	if err != nil {
		return nil, err
	}
	defer s.d.stop()
	fmt.Fprintf(os.Stderr, "perfbench: prepared in %v (set-ups %v)\n", time.Since(start).Round(time.Millisecond), s.setups)
	start = time.Now()
	if cfg.trace {
		err = runTraced(s)
	} else {
		err = runMeasured(s)
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: measured and checked in %v\n", time.Since(start).Round(time.Millisecond))
	s.rep.Correct = s.rep.Failed == 0
	finite(s.rep.Metrics)
	finite(s.rep.Named)
	return s.rep, nil
}

func writeResult(cfg config, rep *report) error {
	dir := filepath.Join(cfg.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-s%d-trace%v.json", cfg.workload, cfg.seed, cfg.trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// printReport prints the detail rows, every named metric with its unit, and
// finally the one-line result object.
func printReport(rep *report) {
	p := rep.Provenance
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d num_cpu=%d go=%s commit=%s source=%.12s\n",
		p.Workload, p.Seed, p.Seconds, p.Trace, p.GOMAXPROCS, p.NumCPU, p.GoVersion, p.Commit, p.SourceSHA)
	for _, r := range rep.Routes {
		fmt.Printf("route %-16s count=%-6d per_s=%-9.2f p50_ms=%-9.3f p90_ms=%-9.3f p99_ms=%-9.3f max_ms=%-9.3f status=%v\n",
			r.Route, r.Count, r.PerSec, r.P50, r.P90, r.P99, r.Max, r.Status)
	}
	if len(rep.Registry) > 0 {
		fmt.Printf("registry %s\n", rep.Registry)
	}
	if len(rep.Gens) > 0 {
		fmt.Printf("generations %v\n", rep.Gens)
	}
	for _, f := range rep.Failures {
		fmt.Printf("FAILED %s\n", f)
	}
	names := make([]string, 0, len(rep.Named))
	for k := range rep.Named {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-34s %14.6g %s\n", k, rep.Named[k].Value, rep.Named[k].Unit)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	fmt.Println(string(line))
}
