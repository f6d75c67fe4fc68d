// Command skipit-tlc fuzzes the L2 at the TileLink protocol level: randomized
// concurrent master agents drive Acquire/Release/RootRelease traffic straight
// into the L2's client ports (no cores, no L1s) while a per-address scoreboard
// checks the permission invariant, value propagation and §5.5 durability every
// cycle. Episodes compose with chaos fault schedules; failures are ddmin-shrunk
// and written as replayable .tlc.json artifacts.
//
// Usage:
//
//	skipit-tlc [-episodes N] [-seed S] [-agents N] [-ops N] [-faults N]
//	           [-addrs N] [-cycle-limit N] [-watchdog N] [-shrink-runs N]
//	           [-out DIR] [-jobs N] [-v]
//	skipit-tlc -replay FILE [-v]
//
// Every episode is a pure function of its seed: the same seed expands to the
// same script, the same interleaving, the same verdict and the same shrunk
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

	"skipit/internal/tlctest"
)

func main() {
	episodes := flag.Int("episodes", 100, "number of episodes")
	seed := flag.Int64("seed", 1, "first episode seed (episode i uses seed+i)")
	agents := flag.Int("agents", 3, "concurrent master agents")
	ops := flag.Int("ops", 24, "scripted ops per agent")
	faults := flag.Int("faults", 8, "chaos faults per episode (0 disables)")
	addrs := flag.Int("addrs", 6, "distinct line addresses in the episode universe")
	cycleLimit := flag.Int64("cycle-limit", 150_000, "per-episode cycle budget")
	watchdog := flag.Int64("watchdog", 20_000, "watchdog no-progress limit (0 disables)")
	shrinkRuns := flag.Int("shrink-runs", 200, "max re-executions while shrinking a failure")
	out := flag.String("out", ".", "directory for .tlc.json repro artifacts")
	jobs := flag.Int("jobs", runtime.NumCPU(), "parallel workers")
	replay := flag.String("replay", "", "replay a .tlc.json artifact instead of fuzzing")
	verbose := flag.Bool("v", false, "per-episode log lines")
	flag.Parse()

	if *replay != "" {
		os.Exit(replayFile(*replay, *verbose))
	}
	os.Exit(fuzz(*episodes, *seed, *agents, *ops, *faults, *addrs,
		*cycleLimit, *watchdog, *shrinkRuns, *out, *jobs, *verbose))
}

// fuzz runs episodes seed..seed+episodes-1 across a worker pool. Each episode
// is an independent pure function of its seed, so parallelism never changes
// results.
func fuzz(episodes int, seed int64, agents, ops, faults, addrs int,
	cycleLimit, watchdog int64, shrinkRuns int, out string, jobs int, verbose bool) int {
	if jobs < 1 {
		jobs = 1
	}
	var (
		mu       sync.Mutex // serializes logging and artifact writes
		failures int
		next     atomic.Int64
		agg      tlctest.Stats
	)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(episodes) {
					return
				}
				p := tlctest.Params{
					Seed:          seed + i,
					Agents:        agents,
					OpsPerAgent:   ops,
					Faults:        faults,
					Addrs:         addrs,
					CycleLimit:    cycleLimit,
					WatchdogLimit: watchdog,
				}
				script, fail, st := tlctest.Run(p)
				mu.Lock()
				agg.Cycles += st.Cycles
				agg.Acquires += st.Acquires
				agg.Grants += st.Grants
				agg.Writes += st.Writes
				agg.Releases += st.Releases
				agg.Flushes += st.Flushes
				agg.ProbesAnswered += st.ProbesAnswered
				agg.ValuePrunes += st.ValuePrunes
				agg.RootReleaseRaces += st.RootReleaseRaces
				if verbose && fail == nil {
					fmt.Printf("seed %d: ok (%d cycles, %d grants, %d probes)\n",
						p.Seed, st.Cycles, st.Grants, st.ProbesAnswered)
				}
				mu.Unlock()
				if fail == nil {
					continue
				}
				shrunk, attempts := tlctest.ShrinkScript(script, fail.Kind, shrinkRuns)
				finalFail, _ := tlctest.RunScript(shrunk)
				if finalFail == nil || finalFail.Kind != fail.Kind {
					// Shrink budget ran dry on a flaky candidate; keep the
					// original script so the artifact still reproduces.
					shrunk, finalFail = script, fail
				}
				path := filepath.Join(out, fmt.Sprintf("seed-%d.tlc.json", p.Seed))
				mu.Lock()
				failures++
				if err := tlctest.WriteRepro(path, tlctest.Repro{
					Seed: p.Seed, Params: &p, Script: shrunk, Failure: finalFail,
				}); err != nil {
					log.Fatalf("seed %d: write repro: %v", p.Seed, err)
				}
				fmt.Printf("seed %d: FAIL %s: %s\n  shrunk to %d ops / %d faults after %d runs -> %s\n",
					p.Seed, fail.Kind, fail.Message,
					len(shrunk.Ops), len(shrunk.Schedule.Faults), attempts, path)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	fmt.Printf("tlc: %d episodes, %d failures; grants=%d writes=%d releases=%d flushes=%d probes=%d prunes=%d rr_races=%d\n",
		episodes, failures, agg.Grants, agg.Writes, agg.Releases, agg.Flushes,
		agg.ProbesAnswered, agg.ValuePrunes, agg.RootReleaseRaces)
	if failures > 0 {
		return 1
	}
	return 0
}

// replayFile re-executes a .tlc.json artifact and compares the outcome with
// what the artifact recorded: the failure kind and its cycle. Exit 0 iff they
// agree.
func replayFile(path string, verbose bool) int {
	rep, err := tlctest.LoadRepro(path)
	if err != nil {
		log.Fatalf("replay: %v", err)
	}
	fmt.Printf("replaying %s: %d agents, %d ops, %d faults\n",
		path, rep.Script.Agents, len(rep.Script.Ops), len(rep.Script.Schedule.Faults))
	fail, st := tlctest.RunScript(rep.Script)
	switch {
	case fail == nil && rep.Failure == nil:
		fmt.Printf("ok: run clean, as recorded (%d cycles)\n", st.Cycles)
		return 0
	case fail == nil:
		fmt.Printf("MISMATCH: recorded %s, but replay ran clean\n", rep.Failure.Kind)
		return 1
	case rep.Failure == nil:
		fmt.Printf("MISMATCH: recorded clean, but replay failed: %s\n", fail.Message)
		return 1
	case fail.Kind != rep.Failure.Kind:
		fmt.Printf("MISMATCH: recorded %s, replay produced %s: %s\n",
			rep.Failure.Kind, fail.Kind, fail.Message)
		return 1
	case fail.Cycle != rep.Failure.Cycle:
		fmt.Printf("MISMATCH: recorded %s at cycle %d, replay produced it at cycle %d: %s\n",
			fail.Kind, rep.Failure.Cycle, fail.Cycle, fail.Message)
		return 1
	default:
		fmt.Printf("reproduced: %s at cycle %d: %s\n", fail.Kind, fail.Cycle, fail.Message)
		if verbose && fail.Violation != nil {
			fmt.Printf("  %+v\n", *fail.Violation)
		}
		return 0
	}
}
