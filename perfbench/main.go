// Command perfbench is the repository's host-speed benchmark. One invocation
// runs one named workload with a seed, checks every simulated output, and
// prints the end-to-end metrics, or with -trace 1 the per-layer metrics, one
// per line and then as a JSON object on the last line of stdout. README.md
// next to this file has the metric tables and the workloads' rationale.
//
//	bash perfbench/run.sh --workload soc_dense --seed 1 --seconds 20 --trace 0
//
// Stepping is serial and the figure workloads go through the in-process
// sweep.Runner. Each layer is measured from outside, by timing calls into
// its public functions.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// workloads maps each workload name to its untraced run.
var workloads = map[string]func(seed int64, seconds float64) (result, error){
	"soc_dense": socDense,
	"figs_cycle": func(_ int64, seconds float64) (result, error) {
		return figsCycle.run(seconds)
	},
	"figs_persist": func(_ int64, seconds float64) (result, error) {
		return figsPersist.run(seconds)
	},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "soc_dense, figs_cycle or figs_persist")
	seed := fs.Int64("seed", defaultSeed, "input seed; it reaches soc_dense's programs only")
	seconds := fs.Float64("seconds", 10, "measurement budget of the timed phase, in seconds")
	traced := fs.Int("trace", 0, "1 makes the traced run, which prints the per-layer metrics")
	writeGolden := fs.Bool("write-golden", false, "regenerate the soc_dense golden cycle table for the default seed, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writeGolden {
		if err := writeSocGolden(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	untraced, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload soc_dense|figs_cycle|figs_persist, -seconds > 0 and -trace 0|1\n")
		return 2
	}

	var res result
	var err error
	if *traced == 1 {
		rec := newSpanRecorder(maxSpans)
		res, err = tracedRun(*name, *seed, *seconds, rec)
		if err == nil {
			path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
			if err = rec.writeChrome(path); err == nil {
				fmt.Fprintf(stderr, "perfbench: trace written to %s\n", path)
			}
		}
	} else {
		res, err = untraced(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "perfbench: check failed:", f)
	}
	fmt.Fprintf(stdout, "%-32s %16.6f %-10s (%d of %d units)\n", "failed_frac",
		failedFrac(res.failed, res.attempted), "ratio", res.failed, res.attempted)
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.correct() {
		return 1
	}
	return 0
}
