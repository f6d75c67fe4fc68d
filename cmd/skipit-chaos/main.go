// Command skipit-chaos fuzzes the SoC under deterministic fault injection:
// random programs crossed with seeded fault schedules (link jitter/stalls/
// backpressure, MSHR/FSHR/ListBuffer squeezes, forced nacks, ECC-style bit
// flips), stepped under the forward-progress watchdog with every cross-layer
// invariant checked each cycle and load values verified against a golden
// model. Failures are greedily shrunk to a minimal reproducer and written as
// replayable .chaos.json artifacts.
//
// Usage:
//
//	skipit-chaos [-runs N] [-seed S] [-cores N] [-faults N] [-prog-len N]
//	             [-cycle-limit N] [-watchdog N] [-shrink-runs N]
//	             [-out DIR] [-jobs N] [-v]
//	skipit-chaos -replay FILE [-v]
//
// Every run is a pure function of its seed: the same seed reproduces the
// same programs, the same schedule, the same failure, and the same shrunk
// artifact.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"skipit/internal/chaos"
)

func main() {
	runs := flag.Int("runs", 100, "number of fuzz cases")
	seed := flag.Int64("seed", 1, "first case seed (case i uses seed+i)")
	cores := flag.Int("cores", 2, "simulated cores")
	faults := flag.Int("faults", 12, "faults per schedule")
	progLen := flag.Int("prog-len", 24, "instructions per core program")
	cycleLimit := flag.Int64("cycle-limit", 300_000, "per-run cycle budget")
	watchdog := flag.Int64("watchdog", 20_000, "watchdog no-progress limit (0 disables)")
	shrinkRuns := flag.Int("shrink-runs", chaos.DefaultShrinkRuns, "max re-executions while shrinking a failure")
	out := flag.String("out", ".", "directory for .chaos.json repro artifacts")
	jobs := flag.Int("jobs", runtime.NumCPU(), "parallel workers")
	replay := flag.String("replay", "", "replay a .chaos.json artifact instead of fuzzing")
	verbose := flag.Bool("v", false, "per-case log lines")
	flag.Parse()

	if *replay != "" {
		os.Exit(replayFile(*replay, *verbose))
	}
	os.Exit(fuzz(*runs, *seed, *cores, *faults, *progLen, *cycleLimit, *watchdog,
		*shrinkRuns, *out, *jobs, *verbose))
}

// fuzz runs cases seed..seed+runs-1 across a worker pool. Each case is an
// independent pure function of its seed, so parallelism never changes
// results.
func fuzz(runs int, seed int64, cores, faults, progLen int, cycleLimit, watchdog int64,
	shrinkRuns int, out string, jobs int, verbose bool) int {
	if jobs < 1 {
		jobs = 1
	}
	var (
		mu       sync.Mutex // serializes logging and artifact writes
		failures int
		next     atomic.Int64
		agg      chaos.Stats
	)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(runs) {
					return
				}
				c := chaos.Case{
					Seed:          seed + i,
					Cores:         cores,
					ProgLen:       progLen,
					NumFaults:     faults,
					CycleLimit:    cycleLimit,
					WatchdogLimit: watchdog,
				}
				fail, st, in := chaos.Run(c)
				mu.Lock()
				agg.FaultsInjected += st.FaultsInjected
				agg.EccFlips += st.EccFlips
				agg.EccDirtyUnrec += st.EccDirtyUnrec
				agg.RefetchRecoveries += st.RefetchRecoveries
				agg.WatchdogTrips += st.WatchdogTrips
				if verbose && fail == nil {
					fmt.Printf("seed %d: ok (%d cycles, %d faults)\n", c.Seed, st.Cycles, st.FaultsInjected)
				}
				mu.Unlock()
				if fail == nil {
					continue
				}
				shrunk, attempts := chaos.Shrink(in, fail.Kind, chaos.ShrinkOpts{MaxRuns: shrinkRuns})
				finalFail, _ := chaos.RunInput(shrunk)
				if finalFail == nil {
					// Can only happen if the shrink budget ran dry on a
					// flaky candidate; fall back to the original input.
					shrunk, finalFail = in, fail
				}
				repro := chaos.NewRepro(c.Seed, shrunk, finalFail)
				data, err := repro.Encode()
				if err != nil {
					log.Fatalf("seed %d: encode repro: %v", c.Seed, err)
				}
				path := filepath.Join(out, fmt.Sprintf("seed-%d.chaos.json", c.Seed))
				mu.Lock()
				failures++
				if err := os.WriteFile(path, data, 0o644); err != nil {
					log.Fatalf("seed %d: write repro: %v", c.Seed, err)
				}
				fmt.Printf("seed %d: FAIL %s: %s\n  shrunk to %s after %d runs -> %s\n",
					c.Seed, fail.Kind, fail.Message, repro.Summary(), attempts, path)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	fmt.Printf("chaos: %d runs, %d failures; injected=%d ecc_flips=%d recovered=%d dirty_unrec=%d watchdog_trips=%d\n",
		runs, failures, agg.FaultsInjected, agg.EccFlips, agg.RefetchRecoveries,
		agg.EccDirtyUnrec, agg.WatchdogTrips)
	if failures > 0 {
		return 1
	}
	return 0
}

// replayFile re-executes a .chaos.json artifact and compares the outcome with
// what the artifact recorded: the failure kind and its cycle. Exit 0 iff they
// agree.
func replayFile(path string, verbose bool) int {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	repro, err := chaos.DecodeRepro(data)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	in, err := repro.Input()
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	fmt.Printf("replaying %s: %s\n", path, repro.Summary())
	fail, st := chaos.RunInput(in)
	switch {
	case fail == nil && repro.Failure == nil:
		fmt.Printf("ok: run clean, as recorded (%d cycles)\n", st.Cycles)
		return 0
	case fail == nil:
		fmt.Printf("MISMATCH: recorded %s, but replay ran clean\n", repro.Failure.Kind)
		return 1
	case repro.Failure == nil:
		fmt.Printf("MISMATCH: recorded clean, but replay failed: %s\n", fail)
		return 1
	case fail.Kind != repro.Failure.Kind:
		fmt.Printf("MISMATCH: recorded %s, replay produced %s: %s\n",
			repro.Failure.Kind, fail.Kind, fail.Message)
		return 1
	case fail.Cycle != repro.Failure.Cycle:
		fmt.Printf("MISMATCH: recorded %s at cycle %d, replay produced it at cycle %d: %s\n",
			fail.Kind, repro.Failure.Cycle, fail.Cycle, fail.Message)
		return 1
	default:
		fmt.Printf("reproduced: %s at cycle %d: %s\n", fail.Kind, fail.Cycle, fail.Message)
		if verbose && fail.Report != nil {
			fmt.Println(string(fail.Report.JSON()))
		}
		return 0
	}
}
