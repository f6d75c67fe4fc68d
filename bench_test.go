package skipit

// Benchmark harness: one testing.B target per table/figure of the paper's
// evaluation (§7). Each benchmark runs a reduced but shape-preserving subset
// of its figure's sweep jobs (internal/bench) and reports the headline
// quantity as custom metrics read from the jobs' records; cmd/skipit-bench
// regenerates the full figures from the same jobs.
//
//	go test -bench=. -benchmem
//
// Paper-vs-measured numbers are recorded in EXPERIMENTS.md.

import (
	"math"
	"testing"

	"skipit/internal/bench"
	"skipit/internal/commercial"
	"skipit/internal/sweep"
)

// set assigns v to the sweep knob *p until the benchmark ends.
func set[T any](b *testing.B, p *T, v T) {
	saved := *p
	*p = v
	b.Cleanup(func() { *p = saved })
}

// runJobs runs the named jobs out of one figure's job list b.N times through
// the sweep runner and returns the last run's records by name. A name with no
// job is fatal, so a renamed point cannot silently report 0.
func runJobs(b *testing.B, jobs []sweep.Job, names ...string) map[string]sweep.Record {
	b.Helper()
	byName := map[string]sweep.Job{}
	for _, j := range jobs {
		byName[j.Name] = j
	}
	var selected []sweep.Job
	for _, name := range names {
		j, ok := byName[name]
		if !ok {
			b.Fatalf("no job %q among %d jobs", name, len(jobs))
		}
		selected = append(selected, j)
	}
	var results []sweep.JobResult
	for i := 0; i < b.N; i++ {
		results = sweep.Runner{Workers: 1}.Run(selected)
	}
	if err := sweep.FirstError(results); err != nil {
		b.Fatal(err)
	}
	recs := map[string]sweep.Record{}
	for _, r := range sweep.Records(results) {
		recs[r.Name] = r
	}
	return recs
}

// point names one sub-benchmark and the job it measures.
type point struct{ sub, job string }

// benchPoints runs one sub-benchmark per point, each measuring its one job
// out of jobs, and reports metric(record) under unit.
func benchPoints(b *testing.B, jobs []sweep.Job, unit string, metric func(sweep.Record) float64, points ...point) {
	for _, p := range points {
		b.Run(p.sub, func(b *testing.B) {
			recs := runJobs(b, jobs, p.job)
			b.ReportMetric(metric(recs[p.job]), unit)
		})
	}
}

func recordCycles(r sweep.Record) float64 { return r.Cycles }
func recordMops(r sweep.Record) float64   { return r.Derived["mops"] }

// BenchmarkFig09WritebackScaling reproduces Figure 9's anchor points:
// single-line CBO.X latency (paper: ~100 cycles) and the full 32 KiB flush
// at 1 and 8 threads (paper: 7460 cycles, 7.2x faster with 8 threads).
func BenchmarkFig09WritebackScaling(b *testing.B) {
	set(b, &bench.Reps, 1)
	set(b, &bench.Sizes, []uint64{64, 32768})
	set(b, &bench.ThreadCounts, []int{1, 8})
	recs := runJobs(b, bench.Fig9Jobs("fig09", false),
		"flush/size64/threads1", "flush/size32768/threads1", "flush/size32768/threads8")
	oneT := recs["flush/size32768/threads1"].Cycles
	eightT := recs["flush/size32768/threads8"].Cycles
	b.ReportMetric(recs["flush/size64/threads1"].Cycles, "cycles/line-1T")
	b.ReportMetric(oneT, "cycles/32KiB-1T")
	b.ReportMetric(eightT, "cycles/32KiB-8T")
	b.ReportMetric(oneT/eightT, "speedup-8T")
}

// BenchmarkFig10CleanVsFlushReread reproduces Figure 10: re-reading after
// CBO.CLEAN (cache hit) vs after CBO.FLUSH (refetch), paper: ~2x.
func BenchmarkFig10CleanVsFlushReread(b *testing.B) {
	set(b, &bench.Sizes, []uint64{4096})
	recs := runJobs(b, bench.Fig10Jobs([]int{1}), "clean/size4096/threads1", "flush/size4096/threads1")
	clean := recs["clean/size4096/threads1"].Cycles
	flush := recs["flush/size4096/threads1"].Cycles
	b.ReportMetric(clean, "cycles/clean")
	b.ReportMetric(flush, "cycles/flush")
	b.ReportMetric(flush/clean, "flush/clean")
}

// BenchmarkFig11Comparative1T reproduces Figure 11: single-thread writeback
// latency across architectures at 4 KiB, where Intel clflush diverges.
func BenchmarkFig11Comparative1T(b *testing.B) {
	set(b, &bench.Sizes, []uint64{4096})
	var names []string
	for _, m := range commercial.Models() {
		names = append(names, m.Vendor+"/"+m.Instr+"/size4096")
	}
	worst, best := 0.0, math.Inf(1)
	for _, r := range runJobs(b, bench.ComparativeJobs("fig11", 1), names...) {
		worst, best = max(worst, r.Cycles), min(best, r.Cycles)
	}
	b.ReportMetric(worst/best, "worst/best@4KiB")
}

// BenchmarkFig12Comparative8T reproduces Figure 12: with 8 threads the
// Intel clflush divergence appears only above 16 KiB.
func BenchmarkFig12Comparative8T(b *testing.B) {
	set(b, &bench.Sizes, []uint64{4096, 32768})
	recs := runJobs(b, bench.ComparativeJobs("fig12", 8),
		"Intel/clflush/size4096", "Intel/clflushopt/size4096",
		"Intel/clflush/size32768", "Intel/clflushopt/size32768")
	b.ReportMetric(recs["Intel/clflush/size4096"].Cycles/recs["Intel/clflushopt/size4096"].Cycles, "clflush/opt@4KiB")
	b.ReportMetric(recs["Intel/clflush/size32768"].Cycles/recs["Intel/clflushopt/size32768"].Cycles, "clflush/opt@32KiB")
}

// BenchmarkFig13SkipItMicro reproduces Figure 13: ten redundant CBO.X per
// line, Skip It vs naive (paper: 15-30% faster).
func BenchmarkFig13SkipItMicro(b *testing.B) {
	set(b, &bench.Sizes, []uint64{2048})
	recs := runJobs(b, bench.Fig13Jobs([]int{1}, 10), "naive/size2048/threads1", "skipit/size2048/threads1")
	naive := recs["naive/size2048/threads1"].Cycles
	skip := recs["skipit/size2048/threads1"].Cycles
	b.ReportMetric(naive, "cycles/naive")
	b.ReportMetric(skip, "cycles/skipit")
	b.ReportMetric((naive-skip)/naive*100, "speedup-%")
}

// BenchmarkFig14Structures reproduces Figure 14's headline comparison on the
// hash table (5% updates, 2 threads): Skip It vs FliT vs plain.
func BenchmarkFig14Structures(b *testing.B) {
	set(b, &bench.PersistOpsPerThr, 4000)
	benchPoints(b, bench.Fig14Jobs(bench.Prefills{}), "Mops/s", recordMops,
		point{"plain", "hash-table/automatic/plain"},
		point{"flit-hash", "hash-table/automatic/flit-hash"},
		point{"link-and-persist", "hash-table/automatic/link-and-persist"},
		point{"skipit", "hash-table/automatic/skipit"})
}

// BenchmarkFig15UpdateSweep reproduces Figure 15's end points on the BST:
// read-only vs update-only throughput under Skip It.
func BenchmarkFig15UpdateSweep(b *testing.B) {
	set(b, &bench.PersistOpsPerThr, 4000)
	benchPoints(b, bench.Fig15Jobs(bench.Prefills{}, []int{0, 50}), "Mops/s", recordMops,
		point{"reads", "bst/skipit/upd0"}, point{"updates", "bst/skipit/upd50"})
}

// BenchmarkFig16FliTSensitivity reproduces Figure 16: BST throughput under
// FliT with a small vs large counter table.
func BenchmarkFig16FliTSensitivity(b *testing.B) {
	set(b, &bench.PersistOpsPerThr, 4000)
	recs := runJobs(b, bench.Fig16Jobs(bench.Prefills{}, []uint64{1 << 6, 1 << 16}), "flit-table64", "flit-table65536")
	b.ReportMetric(recordMops(recs["flit-table64"]), "Mops/s-tiny-table")
	b.ReportMetric(recordMops(recs["flit-table65536"]), "Mops/s-large-table")
}

// --- Ablations: the §5 design choices DESIGN.md calls out ---

// BenchmarkAblationWideDataArray quantifies the §5.2 widened data array:
// filling an FSHR buffer in 1 cycle vs 8.
func BenchmarkAblationWideDataArray(b *testing.B) {
	benchPoints(b, bench.AblationJobs(), "cycles/4KiB", recordCycles,
		point{"wide", "wide-data-array/on"}, point{"narrow", "wide-data-array/off"})
}

// BenchmarkAblationFSHRCount quantifies FSHR-level parallelism.
func BenchmarkAblationFSHRCount(b *testing.B) {
	benchPoints(b, bench.AblationJobs(), "cycles/4KiB", recordCycles,
		point{"fshr-1", "fshr/1"}, point{"fshr-2", "fshr/2"}, point{"fshr-8", "fshr/8"})
}

// BenchmarkAblationCoalescing quantifies §5.3 same-line coalescing under
// redundant writebacks.
func BenchmarkAblationCoalescing(b *testing.B) {
	benchPoints(b, bench.AblationJobs(), "cycles", recordCycles,
		point{"coalescing-on", "coalescing/on"}, point{"coalescing-off", "coalescing/off"})
}

// BenchmarkAblationFlushQueueDepth quantifies the §5.2 flush queue.
func BenchmarkAblationFlushQueueDepth(b *testing.B) {
	benchPoints(b, bench.AblationJobs(), "cycles/4KiB", recordCycles,
		point{"queue-1", "flush-queue/1"}, point{"queue-8", "flush-queue/8"})
}

// crossKindCoalescing stores each line of 2 KiB, then runs four CBO passes
// over them with one FSHR, alternating CBO.CLEAN forward and CBO.FLUSH
// backward, and returns the cycles from the first store to the closing
// fence and the number of queued CBOs merged across kinds. One FSHR drains
// more slowly than the core issues, so each flush pass meets the tail of the
// clean pass still queued, which a cross-kind flush upgrades in place.
func crossKindCoalescing(on bool) (cycles float64, coalescedCross uint64) {
	cfg := DefaultSystemConfig(1)
	cfg.L1.Flush.SkipIt = false
	cfg.L1.Flush.NumFSHRs = 1
	cfg.L1.Flush.CoalesceCrossKind = on
	s := NewSystemWithConfig(cfg)
	const size = 2048
	pb := NewProgram()
	start := pb.Mark()
	for a := uint64(0); a < size; a += 64 {
		pb.Store(a, 1)
	}
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < size; a += 64 {
			if pass%2 == 0 {
				pb.CboClean(a)
			} else {
				pb.CboFlush(size - 64 - a)
			}
		}
	}
	fence := pb.Mark()
	pb.Fence()
	if _, err := s.Run([]*Program{pb.Build()}, 10_000_000); err != nil {
		panic(err)
	}
	cycles = float64(s.Cores[0].Timing(fence).CompletedAt - s.Cores[0].Timing(start).IssuedAt)
	return cycles, s.Snapshot().Counters["flush.coalesced_cross"]
}

// TestCrossKindCoalescingCoalesces: the benchmark's on-row upgrades queued
// cleans and finishes sooner for it; the off-row merges nothing across
// kinds.
func TestCrossKindCoalescingCoalesces(t *testing.T) {
	onCycles, on := crossKindCoalescing(true)
	offCycles, off := crossKindCoalescing(false)
	if on == 0 || off != 0 {
		t.Fatalf("flush.coalesced_cross: on %d, off %d; want on > 0, off 0", on, off)
	}
	if onCycles >= offCycles {
		t.Fatalf("cross-kind coalescing on took %.0f cycles, off %.0f", onCycles, offCycles)
	}
}

// BenchmarkAblationCrossKindCoalescing quantifies the §5.3 future-work
// optimization: merging CBO.X of different kinds on the same line.
func BenchmarkAblationCrossKindCoalescing(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "cross-kind-off"
		if on {
			name = "cross-kind-on"
		}
		b.Run(name, func(b *testing.B) {
			var cycles float64
			var merged uint64
			for i := 0; i < b.N; i++ {
				cycles, merged = crossKindCoalescing(on)
			}
			b.ReportMetric(cycles, "cycles")
			b.ReportMetric(float64(merged), "coalesced_cross")
		})
	}
}

// BenchmarkCflushDL1VsCboFlush compares SiFive's L1-only eviction against
// the full CBO.FLUSH (§2.6): cheaper, but without the durability guarantee.
func BenchmarkCflushDL1VsCboFlush(b *testing.B) {
	for _, vendor := range []bool{true, false} {
		name := "cbo.flush"
		if vendor {
			name = "cflush.d.l1"
		}
		b.Run(name, func(b *testing.B) {
			var cycles float64
			for i := 0; i < b.N; i++ {
				s := NewSystem(1)
				pb := NewProgram().StoreRegion(0, 4096, 64, 1).Fence()
				start := pb.Mark()
				for a := uint64(0); a < 4096; a += 64 {
					if vendor {
						pb.CflushDL1(a)
					} else {
						pb.CboFlush(a)
					}
				}
				end := pb.Mark()
				pb.Fence()
				if _, err := s.Run([]*Program{pb.Build()}, 10_000_000); err != nil {
					panic(err)
				}
				cycles = float64(s.Cores[0].Timing(end).CompletedAt - s.Cores[0].Timing(start).IssuedAt)
			}
			b.ReportMetric(cycles, "cycles/4KiB")
		})
	}
}
