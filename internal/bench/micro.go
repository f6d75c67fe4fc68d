// Package bench contains the workload generators and job builders that
// regenerate every table and figure of the paper's evaluation (§7).
// Figures lists them: each builder decomposes its figure into one sweep.Job
// per measured point, cmd/skipit-bench runs and prints the jobs, and the
// testing.B targets in bench_test.go read their numbers from the same jobs'
// records. EXPERIMENTS.md records paper-vs-measured values.
package bench

import (
	"fmt"

	"skipit/internal/isa"
	"skipit/internal/sim"
	"skipit/internal/stats"
	"skipit/internal/sweep"
)

// LoopNops models the per-iteration loop overhead (address arithmetic,
// compare, branch) of the paper's C microbenchmark loops, executed at the
// core's dispatch width alongside each CBO.X.
var LoopNops = 8

// Reps is the repetition count for cycle-accurate microbenchmarks. The paper
// repeats 50 times and reports medians (§7.1); the simulator is
// deterministic across repetitions of an identical program, so repetitions
// vary the region base address to sample different set-index alignments.
var Reps = 5

const lineBytes = 64

// runLimit bounds every simulated program.
const runLimit = 20_000_000

// FastForward controls the simulator's next-event clock for every
// cycle-accurate measurement. It is a test hook and changes host time only:
// measured cycle counts are identical either way, which
// TestFigureJobsIdenticalWithoutFastForward checks on the figure jobs.
var FastForward = true

// newSystem builds a measurement system honoring the FastForward switch.
func newSystem(cfg sim.Config) *sim.System {
	s := sim.New(cfg)
	s.SetFastForward(FastForward)
	return s
}

// Sink receives the labeled metrics snapshot of every completed
// cycle-accurate measurement run. Each harness invocation carries its own
// sink (nil discards snapshots): snapshots used to flow through a
// SnapshotSink package-global, which was a data race the moment two
// measurements ran concurrently under the sweep runner. The figures that run
// on the analytic memsim model (14-16) produce no snapshots.
type Sink = sweep.Sink

// emitSnapshot forwards a finished system's snapshot to the sink.
func emitSnapshot(sink Sink, s *sim.System, format string, args ...any) {
	if sink == nil {
		return
	}
	sink(fmt.Sprintf(format, args...), s.Snapshot())
}

// Sizes is the writeback-size sweep of Figures 9–13: 64 B to 32 KiB.
var Sizes = []uint64{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768}

// ThreadCounts is the thread sweep of §7.2.
var ThreadCounts = []int{1, 2, 4, 8}

// linesIn is the number of lines in a size-byte region: the iteration count
// of every per-line loop below and of the builder's region helpers.
func linesIn(size uint64) int { return int((size + lineBytes - 1) / lineBytes) }

// loopLen is the instruction count of one CBO.X loop iteration: the CBO and
// its LoopNops no-ops, which Builder.Nops appends as one instruction.
func loopLen() int {
	if LoopNops > 0 {
		return 2
	}
	return 1
}

// The program builders below grow their builder once, by the program's exact
// length, so that building a program allocates its instruction slice once.

// buildSweep constructs the Fig. 9 per-core program: dirty the region, fence,
// then one CBO.X per line and a single fence at the end (§7.2). It returns
// the program and the index of the first CBO (the measurement start) and of
// the final fence (the measurement end).
func buildSweep(base, size uint64, clean bool) (p *isa.Program, startIdx, endIdx int) {
	lines := linesIn(size)
	b := isa.NewBuilder().Grow(lines + 1 + lines*loopLen() + 1)
	b.StoreRegion(base, size, lineBytes, 0xD1)
	b.Fence()
	startIdx = b.Mark()
	b.CboRegionLoop(base, size, lineBytes, clean, LoopNops)
	endIdx = b.Mark()
	b.Fence()
	return b.Build(), startIdx, endIdx
}

// clampThreads caps threads so every thread owns at least one full line of
// the region; the job builders use the same clamp when fingerprinting.
func clampThreads(total uint64, threads int) int {
	if total < uint64(threads)*lineBytes {
		threads = int(total / lineBytes)
		if threads == 0 {
			threads = 1
		}
	}
	return threads
}

// measureSweep runs one Fig. 9 configuration: total bytes of dirty data are
// split evenly over threads cores (one simulated core per thread, see
// DESIGN.md §3), each flushing its own region; the reported latency is from
// the first CBO.X issue to the last core's final fence completion.
func measureSweep(sink Sink, cfg sim.Config, total uint64, threads int, clean bool, rep int) float64 {
	threads = clampThreads(total, threads)
	cfg.NumCores = threads
	cfg.L2.NumClients = threads
	s := newSystem(cfg)
	per := total / uint64(threads)
	progs := make([]*isa.Program, threads)
	starts := make([]int, threads)
	ends := make([]int, threads)
	// Regions are spaced 64 KiB apart so threads never contend (§7.2
	// "non-contended lines") and per-core regions fit the L1.
	for t := 0; t < threads; t++ {
		base := uint64(t)*(1<<16) + uint64(rep)*4096
		progs[t], starts[t], ends[t] = buildSweep(base, per, clean)
	}
	if _, err := s.Run(progs, runLimit); err != nil {
		panic(err)
	}
	emitSnapshot(sink, s, "sweep_size%d_threads%d_clean%v_rep%d", total, threads, clean, rep)
	var begin, end int64 = 1 << 62, 0
	for t := 0; t < threads; t++ {
		tm := s.Cores[t].Timings()
		if is := tm[starts[t]].IssuedAt; is < begin {
			begin = is
		}
		if c := tm[ends[t]].CompletedAt; c > end {
			end = c
		}
	}
	return float64(end - begin)
}

// SweepOnce measures one Fig. 9/11/12 point: cycles to write back `total`
// bytes of dirty data with `threads` threads on the simulated SonicBOOM.
func SweepOnce(sink Sink, total uint64, threads int, clean bool) float64 {
	return measureSweep(sink, sim.DefaultConfig(1), total, threads, clean, 0)
}

// measureSweepPoint runs one (size, threads) Fig. 9 point over Reps
// repetitions and returns the median cycles and their sigma.
func measureSweepPoint(sink Sink, size uint64, threads int, clean bool) (cycles, sigma float64) {
	cfg := sim.DefaultConfig(1)
	var samples []float64
	for r := 0; r < Reps; r++ {
		samples = append(samples, measureSweep(sink, cfg, size, threads, clean, r))
	}
	return stats.MedianSigma(samples)
}

// measureWriteCboFenceRead runs one Figure 10 point ("Write - Clean/Flush
// x 10 - Fence - Read"): per region, write every line, issue ten CBO.X per
// line, fence, then re-read every line. CBO.CLEAN keeps the lines resident
// so the re-read hits; CBO.FLUSH forces refetches, costing ~2x.
func measureWriteCboFenceRead(sink Sink, total uint64, threads int, clean bool) float64 {
	threads = clampThreads(total, threads)
	cfg := sim.DefaultConfig(threads)
	s := newSystem(cfg)
	per := total / uint64(threads)
	progs := make([]*isa.Program, threads)
	for t := 0; t < threads; t++ {
		progs[t] = buildWriteCboFenceRead(uint64(t)*(1<<16), per, clean)
	}
	if _, err := s.Run(progs, runLimit); err != nil {
		panic(err)
	}
	emitSnapshot(sink, s, "wcfr_size%d_threads%d_clean%v", total, threads, clean)
	var begin, end int64 = 1 << 62, 0
	for t := 0; t < threads; t++ {
		tm := s.Cores[t].Timings()
		if is := tm[0].IssuedAt; is < begin {
			begin = is
		}
		if c := tm[len(tm)-1].CompletedAt; c > end {
			end = c
		}
	}
	return float64(end - begin)
}

// buildWriteCboFenceRead constructs the Figure 10 per-core program: per
// line a store and ten CBO.X, then a fence and a load of every line. The
// measurement starts at its first instruction.
func buildWriteCboFenceRead(base, size uint64, clean bool) *isa.Program {
	lines := linesIn(size)
	b := isa.NewBuilder().Grow(lines*(1+10*loopLen()) + 1 + lines)
	for a := base; a < base+size; a += lineBytes {
		b.Store(a, 7)
		for r := 0; r < 10; r++ {
			b.Cbo(a, clean).Nops(LoopNops)
		}
	}
	b.Fence()
	b.LoadRegion(base, size, lineBytes)
	return b.Build()
}

// redundantConfig is the system configuration measureRedundant runs under;
// the fig13 job builders fingerprint exactly this.
func redundantConfig(threads int, skipIt bool) sim.Config {
	cfg := sim.DefaultConfig(threads)
	cfg.L1.Flush.SkipIt = skipIt
	return cfg
}

// measureRedundant runs one Figure 13 point: per line, a store, one real
// CBO.X and `redundant` redundant ones, with Skip It on or off. The fig13
// jobs use CBO.CLEAN, so the redundant requests hit a resident line, the
// case the §6.1 skip bit eliminates; under the paper's literal CBO.FLUSH
// (clean=false) both modes fall through to the LLC's dirty-bit skip (see
// EXPERIMENTS.md).
func measureRedundant(sink Sink, total uint64, threads, redundant int, skipIt, clean bool) float64 {
	threads = clampThreads(total, threads)
	cfg := redundantConfig(threads, skipIt)
	s := newSystem(cfg)
	per := total / uint64(threads)
	progs := make([]*isa.Program, threads)
	for t := 0; t < threads; t++ {
		progs[t] = buildRedundant(uint64(t)*(1<<16), per, redundant, clean)
	}
	if _, err := s.Run(progs, runLimit); err != nil {
		panic(err)
	}
	emitSnapshot(sink, s, "redundant_size%d_threads%d_red%d_skipit%v_clean%v", total, threads, redundant, skipIt, clean)
	var begin, end int64 = 1 << 62, 0
	for t := 0; t < threads; t++ {
		tm := s.Cores[t].Timings()
		if is := tm[0].IssuedAt; is < begin {
			begin = is
		}
		if c := tm[len(tm)-1].CompletedAt; c > end {
			end = c
		}
	}
	return float64(end - begin)
}

// buildRedundant constructs the Figure 13 per-core program: per line a
// store, one real CBO.X and redundant more, then a fence. The measurement
// starts at its first instruction.
func buildRedundant(base, size uint64, redundant int, clean bool) *isa.Program {
	b := isa.NewBuilder().Grow(linesIn(size)*(1+(1+redundant)*loopLen()) + 1)
	for a := base; a < base+size; a += lineBytes {
		b.Store(a, 3)
		b.Cbo(a, clean).Nops(LoopNops)
		for r := 0; r < redundant; r++ {
			b.Cbo(a, clean).Nops(LoopNops)
		}
	}
	b.Fence()
	return b.Build()
}
