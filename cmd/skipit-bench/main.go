// Command skipit-bench regenerates every table and figure of the paper's
// evaluation (§7) through the internal/sweep orchestrator: each figure is
// decomposed into independent, fingerprinted jobs that run on a bounded
// worker pool, and every run measures each distinct configuration afresh,
// copying the record to the other points that share its fingerprint. See
// EXPERIMENTS.md for the side-by-side comparison with the published results
// and README.md ("Regenerating the figures") for the sweep workflow.
//
// Usage:
//
//	skipit-bench [-fig 9|10|...|16|ablations|all | comma list, e.g. -fig 9,13]
//	             [-quick] [-csv] [-jobs N] [-out DIR]
//	             [-baseline FILE] [-metrics-dir DIR]
//
// -quick shrinks sweep sizes and operation counts so the full set completes
// in well under a minute; -csv emits machine-readable rows (figure,series,
// x,y) for plotting instead of the human-readable tables.
//
// -jobs N runs up to N measurements concurrently (default GOMAXPROCS); every
// measurement owns its whole simulated system, so results are bit-identical
// to -jobs 1. -out DIR writes the run's records to DIR/BENCH_quick.json (or
// DIR/BENCH_full.json). -baseline FILE compares the run against a recorded
// baseline and fails the process on any cycle-count or derived-metric
// change, in either direction, or on fingerprint drift: the simulator is
// deterministic, so any difference means the code changed the results and
// the baseline needs refreshing.
//
// -metrics-dir writes one <group>.metrics.json sidecar per cycle-accurate
// figure (9-13, ablations) holding the labeled telemetry snapshot of every
// measurement run, so figure-level latencies can be cross-examined against
// hardware counters without re-running.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"skipit/internal/bench"
	"skipit/internal/sweep"
)

func main() {
	os.Exit(run())
}

func run() int {
	fig := flag.String("fig", "all", "figures to regenerate: 9..16, ablations, all, or a comma list (e.g. 9,13)")
	quick := flag.Bool("quick", false, "reduced sweeps for a fast pass")
	csv := flag.Bool("csv", false, "emit figure,series,x,y rows for plotting")
	jobs := flag.Int("jobs", 0, "max concurrent measurements (0 = GOMAXPROCS)")
	out := flag.String("out", "", "directory to write the run's BENCH_quick.json or BENCH_full.json into")
	baseline := flag.String("baseline", "", "baseline BENCH_*.json file to gate against")
	metricsDir := flag.String("metrics-dir", "", "write per-figure metrics sidecar JSON files into this directory")
	flag.Parse()

	if *quick {
		bench.SetQuick()
	}

	// Resolve the -fig selection against the known tokens.
	byToken := map[string]bench.Figure{}
	for _, f := range bench.Figures() {
		byToken[f.Token] = f
	}
	want := map[string]bool{}
	for _, tok := range strings.Split(*fig, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "all" {
			want["all"] = true
			continue
		}
		if _, ok := byToken[tok]; !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q (want 9..16, ablations, all, or a comma list)\n", tok)
			return 2
		}
		want[tok] = true
	}

	var selected []bench.Figure
	var allJobs []sweep.Job
	for _, f := range bench.Figures() {
		if !want["all"] && !want[f.Token] {
			continue
		}
		selected = append(selected, f)
		allJobs = append(allJobs, f.Build(*quick)...)
	}

	for _, dir := range []string{*out, *metricsDir} {
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	results := sweep.Runner{Workers: *jobs, WithSnapshots: *metricsDir != ""}.Run(allJobs)

	exit := 0
	if *csv {
		fmt.Println("figure,series,x,y")
	}
	byGroup := map[string][]sweep.JobResult{}
	for _, res := range results {
		byGroup[res.Group] = append(byGroup[res.Group], res)
	}
	for _, f := range selected {
		group := byGroup[f.Group]
		if *csv {
			for _, res := range group {
				if res.Err != nil {
					continue
				}
				r := res.Record
				if f.Mops {
					fmt.Printf("%s,%s,%s,%.4f\n", f.Token, r.Series, r.X, r.Derived["mops"])
				} else {
					fmt.Printf("%s,%s,%s,%.0f\n", f.Token, r.Series, r.X, r.Cycles)
				}
			}
		} else {
			fmt.Printf("\n== %s\n", f.Title)
			if f.Note != "" {
				fmt.Println(f.Note)
			}
			for _, res := range group {
				if res.Err != nil {
					continue
				}
				fmt.Println("  " + renderRecord(f, res.Record))
			}
		}
		for _, res := range group {
			if res.Err != nil {
				fmt.Fprintln(os.Stderr, res.Err)
				exit = 1
			}
		}
		if *metricsDir != "" {
			if err := writeSidecar(*metricsDir, f.Group, group); err != nil {
				// A failed sidecar write must not kill a half-finished
				// sweep: report it, finish the run, exit nonzero.
				fmt.Fprintln(os.Stderr, err)
				exit = 1
			}
		}
	}

	records := sweep.Records(results)
	if *out != "" {
		mode := "full"
		if *quick {
			mode = "quick"
		}
		path := filepath.Join(*out, sweep.FileName(mode))
		if err := sweep.WriteFile(path, sweep.File{Group: mode, Records: records}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit = 1
		}
	}

	if *baseline != "" {
		base, err := sweep.LoadFile(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cmp := sweep.Compare(base.Records, records, 0)
		fmt.Printf("\n== %s vs %s\n", cmp, *baseline)
		if !cmp.OK() {
			fmt.Fprintln(os.Stderr, "regression gate FAILED: cycle counts or derived metrics changed (intentional changes must refresh the baseline; see README)")
			return 1
		}
		fmt.Println("regression gate passed")
	}
	return exit
}

// renderRecord formats one human-readable result line.
func renderRecord(f bench.Figure, r sweep.Record) string {
	if f.Mops {
		return fmt.Sprintf("%-28s %-16s %10.3f Mops/s", r.Series, r.X, r.Derived["mops"])
	}
	line := fmt.Sprintf("%-24s size=%-8s %12.0f cycles", r.Series, r.X, r.Cycles)
	if r.Reps > 1 {
		line += fmt.Sprintf(" (sigma %.1f)", r.Sigma)
	}
	return line
}

// writeSidecar writes DIR/<group>.metrics.json with every labeled snapshot
// the group's jobs emitted, in submission order.
func writeSidecar(dir, group string, results []sweep.JobResult) (err error) {
	var snaps []sweep.LabeledSnapshot
	for _, res := range results {
		snaps = append(snaps, res.Snaps...)
	}
	if len(snaps) == 0 {
		return nil
	}
	path := filepath.Join(dir, group+".metrics.json")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("sidecar %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("sidecar %s: %w", path, cerr)
		}
	}()
	if err := json.NewEncoder(f).Encode(snaps); err != nil {
		return fmt.Errorf("sidecar %s: %w", path, err)
	}
	return nil
}
