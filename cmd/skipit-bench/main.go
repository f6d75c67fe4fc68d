// Command skipit-bench regenerates every table and figure of the paper's
// evaluation (§7) through the internal/sweep orchestrator: each figure is
// decomposed into independent, fingerprinted jobs that run on a bounded
// worker pool and land in a content-addressed result store. See
// EXPERIMENTS.md for the side-by-side comparison with the published results
// and README.md ("Regenerating the figures") for the sweep workflow.
//
// Usage:
//
//	skipit-bench [-fig 9|10|...|16|ablations|all | comma list, e.g. -fig 9,13]
//	             [-quick] [-csv] [-jobs N] [-out DIR] [-force]
//	             [-baseline FILE] [-gate PCT] [-metrics-dir DIR] [-http ADDR]
//
// -quick shrinks sweep sizes and operation counts so the full set completes
// in well under a minute; -csv emits machine-readable rows (figure,series,
// x,y) for plotting instead of the human-readable tables.
//
// -jobs N runs up to N measurements concurrently (default GOMAXPROCS); every
// measurement owns its whole simulated system, so results are bit-identical
// to -jobs 1. -out DIR maintains a result store (one BENCH_<group>.json per
// figure plus a combined BENCH_quick.json/BENCH_full.json): points whose
// config fingerprint already matches a stored record are skipped, -force
// re-measures everything. -baseline FILE compares the run against a stored
// baseline and -gate PCT (default 10) fails the process on cycle-count
// regressions beyond the tolerance — or on fingerprint drift, which means
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
	"strconv"
	"strings"
	"sync/atomic"

	"skipit/internal/bench"
	"skipit/internal/introspect"
	"skipit/internal/metrics"
	"skipit/internal/sweep"
)

// onOff is a boolean flag.Value that also accepts the spellings on/off.
type onOff bool

func (o *onOff) String() string {
	if bool(*o) {
		return "on"
	}
	return "off"
}

func (o *onOff) Set(s string) error {
	switch strings.ToLower(s) {
	case "on":
		*o = true
	case "off":
		*o = false
	default:
		v, err := strconv.ParseBool(s)
		if err != nil {
			return fmt.Errorf("invalid value %q (want on or off)", s)
		}
		*o = onOff(v)
	}
	return nil
}

func (o *onOff) IsBoolFlag() bool { return true }

func main() {
	os.Exit(run())
}

func run() int {
	fig := flag.String("fig", "all", "figures to regenerate: 9..16, ablations, all, or a comma list (e.g. 9,13)")
	quick := flag.Bool("quick", false, "reduced sweeps for a fast pass")
	csv := flag.Bool("csv", false, "emit figure,series,x,y rows for plotting")
	jobs := flag.Int("jobs", 0, "max concurrent measurements (0 = GOMAXPROCS)")
	out := flag.String("out", "", "result-store directory (skip already-measured points, write BENCH_*.json)")
	force := flag.Bool("force", false, "re-measure every point even on a result-store hit")
	baseline := flag.String("baseline", "", "baseline store file to gate against")
	gate := flag.Float64("gate", 10, "regression tolerance in percent (with -baseline)")
	metricsDir := flag.String("metrics-dir", "", "write per-figure metrics sidecar JSON files into this directory")
	httpAddr := flag.String("http", "", "serve live sweep introspection on this address (e.g. localhost:6060; empty disables)")
	fastForward := onOff(true)
	flag.Var(&fastForward, "fast-forward", "next-event clock: on skips provably idle cycles, off single-steps (results are identical)")
	flag.Parse()

	bench.FastForward = bool(fastForward)

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

	var store *sweep.Store
	if *out != "" {
		var err error
		if store, err = sweep.Open(*out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *metricsDir != "" {
		if err := os.MkdirAll(*metricsDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	runner := sweep.Runner{
		Workers:       *jobs,
		Store:         store,
		Force:         *force,
		WithSnapshots: *metricsDir != "",
	}
	if *httpAddr != "" {
		srv, err := introspect.New(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer srv.Close()
		runner.Progress = sweepPublisher(srv, len(allJobs))
		fmt.Fprintf(os.Stderr, "introspection server on http://%s (/metrics /snapshot /events)\n", srv.Addr())
	}
	results := runner.Run(allJobs)

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
				fmt.Println("  " + renderRecord(f, res))
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
	if store != nil {
		mode := "full"
		if *quick {
			mode = "quick"
		}
		combined := filepath.Join(store.Dir(), sweep.FileName(mode))
		if err := store.Flush(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit = 1
		} else if err := sweep.WriteFile(combined, sweep.File{Group: mode, Records: records}); err != nil {
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
		cmp := sweep.Compare(base.Records, records, *gate)
		fmt.Printf("\n== %s vs %s\n", cmp, *baseline)
		if !cmp.OK() {
			fmt.Fprintln(os.Stderr, "regression gate FAILED (intentional perf changes must refresh the baseline; see README)")
			return 1
		}
		fmt.Println("regression gate passed")
	}
	return exit
}

// sweepPublisher bridges the runner's progress callback onto the
// introspection server: every job transition goes out as an SSE "sweep"
// event, and a registry of sweep-level counters is published as a fresh
// snapshot so /metrics and /snapshot track completion live. The callback
// runs on worker goroutines; the counters are atomic and PublishSnapshot is
// safe for concurrent use.
func sweepPublisher(srv *introspect.Server, total int) func(sweep.ProgressEvent) {
	reg := metrics.NewRegistry()
	reg.Gauge("sweep", "jobs_total").Set(int64(total))
	var published atomic.Int64
	return func(ev sweep.ProgressEvent) {
		switch ev.State {
		case "done":
			reg.Counter("sweep", "jobs_done").Inc()
		case "cached":
			reg.Counter("sweep", "jobs_cached").Inc()
		case "failed":
			reg.Counter("sweep", "jobs_failed").Inc()
		case "running":
			reg.Gauge("sweep", "jobs_running").Add(1)
		}
		if ev.State == "done" || ev.State == "failed" {
			reg.Gauge("sweep", "jobs_running").Add(-1)
		}
		srv.PublishEvent("sweep", ev)
		srv.PublishSnapshot(reg.Snapshot(published.Add(1)))
	}
}

// renderRecord formats one human-readable result line.
func renderRecord(f bench.Figure, res sweep.JobResult) string {
	r := res.Record
	cached := ""
	if res.Cached {
		cached = "  [store]"
	}
	if f.Mops {
		return fmt.Sprintf("%-28s %-16s %10.3f Mops/s%s", r.Series, r.X, r.Derived["mops"], cached)
	}
	line := fmt.Sprintf("%-24s size=%-8s %12.0f cycles", r.Series, r.X, r.Cycles)
	if r.Reps > 1 {
		line += fmt.Sprintf(" (sigma %.1f)", r.Sigma)
	}
	return line + cached
}

// writeSidecar writes DIR/<group>.metrics.json with every labeled snapshot
// the group's jobs emitted, in submission order. Cached jobs re-measured
// nothing, so they contribute no snapshots.
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
