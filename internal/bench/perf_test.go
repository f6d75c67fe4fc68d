package bench

import (
	"testing"

	"skipit/internal/ds"
	"skipit/internal/isa"
	"skipit/internal/persist"
	"skipit/internal/sim"
)

// stepWorkload builds a program that keeps the whole hierarchy busy: stores
// dirty lines, CBOs push them down, loads pull them back. Used by the
// steady-state benchmarks, so its shape should exercise every pooled
// allocation site (DRAM reads, L2 grants, L1 writebacks, flush-unit FSHRs).
func stepWorkload(rep int) *isa.Program {
	b := isa.NewBuilder()
	base := uint64(0x1000 + rep*0x40000)
	b.StoreRegion(base, 4096, 64, 0xAB)
	b.Fence()
	b.CboRegion(base, 4096, 64, true)
	b.Fence()
	b.LoadRegion(base, 4096, 64)
	b.StoreRegion(base, 4096, 64, 0xCD)
	b.CboRegion(base, 4096, 64, false)
	b.Fence()
	return b.Build()
}

// steadyProgs is the pre-built workload rotation, shared by the zero-alloc
// guard and BenchmarkStep so program construction stays out of the measured
// region.
var steadyProgs = []*isa.Program{
	stepWorkload(0), stepWorkload(1), stepWorkload(2), stepWorkload(3),
}

// runSteadyState runs `rounds` back-to-back pre-built workloads on one warmed
// system and returns the total simulated cycles.
func runSteadyState(s *sim.System, rounds int) int64 {
	start := s.Now()
	for r := 0; r < rounds; r++ {
		if _, err := s.Run([]*isa.Program{steadyProgs[r%len(steadyProgs)]}, runLimit); err != nil {
			panic(err)
		}
	}
	return s.Now() - start
}

// TestStepSteadyStateZeroAlloc is the zero-allocation guard for the cycle
// loop: after one warm-up round fills the line pool and the per-component
// scratch slices, a full additional workload must allocate (amortized)
// nothing per cycle. The small fixed budget covers per-Run setup
// (SetProgram's timing slice, builder output) — what must not appear is
// anything proportional to cycles or misses.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	s := sim.New(sim.DefaultConfig(1))
	runSteadyState(s, 2*len(steadyProgs)) // warm: pool, scratch slices, DRAM first-touch
	var cycles int64
	allocs := testing.AllocsPerRun(1, func() {
		cycles = runSteadyState(s, 4)
	})
	if cycles == 0 {
		t.Fatal("workload ran no cycles")
	}
	perKCycle := allocs / float64(cycles) * 1000
	// The only allocations left should be per-Run setup (SetProgram's timing
	// slice — one per round, not per cycle). The pre-pool hot loop allocated
	// one line buffer per miss, hundreds per round, >100 allocs/kcycle; hold
	// the steady state two orders of magnitude below that.
	if perKCycle > 2 {
		t.Fatalf("steady state allocates %.0f objects over %d cycles (%.1f per kcycle)",
			allocs, cycles, perKCycle)
	}
}

// BenchmarkStep measures the raw cycle loop: one core stepping through the
// steady-state workload, reporting ns and allocations per simulated cycle.
// CI compares allocs/op against the committed baseline (bench_baseline.txt).
func BenchmarkStep(b *testing.B) {
	s := sim.New(sim.DefaultConfig(1))
	s.SetFastForward(false)               // measure the honest per-cycle cost
	runSteadyState(s, 2*len(steadyProgs)) // warm the pool and DRAM backing store
	b.ReportAllocs()
	b.ResetTimer()
	cycles := int64(0)
	for b.Loop() {
		cycles += runSteadyState(s, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}

// BenchmarkStepRecorder is BenchmarkStep with the flight recorder armed: the
// per-component rings record every coherence event on the hot path, and this
// variant exists to prove (against the same committed baseline) that doing
// so adds zero allocations per op — recording is a plain struct store into a
// preallocated slot.
func BenchmarkStepRecorder(b *testing.B) {
	s := sim.New(sim.DefaultConfig(1))
	s.SetFastForward(false) // measure the honest per-cycle cost
	s.EnableFlightRecorder(64)
	runSteadyState(s, 2*len(steadyProgs)) // warm the pool and DRAM backing store
	b.ReportAllocs()
	b.ResetTimer()
	cycles := int64(0)
	for b.Loop() {
		cycles += runSteadyState(s, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}

// TestStepRecorderSteadyStateZeroAlloc is TestStepSteadyStateZeroAlloc with
// the flight recorder armed: the same amortized budget must hold, proving
// the recorder adds no per-event allocation.
func TestStepRecorderSteadyStateZeroAlloc(t *testing.T) {
	s := sim.New(sim.DefaultConfig(1))
	s.EnableFlightRecorder(64)
	runSteadyState(s, 2*len(steadyProgs)) // warm: pool, scratch slices, DRAM first-touch
	var cycles int64
	allocs := testing.AllocsPerRun(1, func() {
		cycles = runSteadyState(s, 4)
	})
	if cycles == 0 {
		t.Fatal("workload ran no cycles")
	}
	if perKCycle := allocs / float64(cycles) * 1000; perKCycle > 2 {
		t.Fatalf("recorder-armed steady state allocates %.0f objects over %d cycles (%.1f per kcycle)",
			allocs, cycles, perKCycle)
	}
}

// BenchmarkRunFigure measures one real evaluation point (a Fig. 9 sweep,
// 4 KiB / 1 thread) end to end, fast-forward clock on, as the sweep runner
// executes it.
func BenchmarkRunFigure(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		SweepOnce(nil, 4096, 1, true)
	}
}

// BenchmarkRunFigureNoFF is the same point with the next-event clock off —
// the before/after pair quoted in the README.
func BenchmarkRunFigureNoFF(b *testing.B) {
	FastForward = false
	defer func() { FastForward = true }()
	b.ReportAllocs()
	for b.Loop() {
		SweepOnce(nil, 4096, 1, true)
	}
}

// idleHeavyProg is the idle-heavy workload: batches of cold misses sized to
// the L1's miss resources (4 MSHRs x 8 replay-queue slots = 32 loads per
// batch, filling the LDQ exactly), so every load is accepted without nack
// chatter and the core then sits fully idle until the fills return. Paired
// with a PMEM-grade read latency, almost every simulated cycle is a memory
// wait — the workload shape the next-event clock exists for.
var idleHeavyProg = func() *isa.Program {
	pb := isa.NewBuilder()
	for batch := 0; batch < 12; batch++ {
		base := 0x10000 + uint64(batch)*0x10000
		for i := 0; i < 32; i++ {
			pb.Load(base + uint64(i%4)*0x1000)
		}
	}
	pb.Fence()
	return pb.Build()
}()

func benchmarkIdleHeavy(b *testing.B, ff bool) {
	cfg := sim.DefaultConfig(1)
	cfg.Mem.ReadLatency = 800 // NVM-grade reads: the paper's persistence domain
	b.ReportAllocs()
	var cycles int64
	for b.Loop() {
		s := sim.New(cfg)
		s.SetFastForward(ff)
		n, err := s.Run([]*isa.Program{idleHeavyProg}, runLimit)
		if err != nil {
			panic(err)
		}
		cycles += n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}

func BenchmarkIdleHeavy(b *testing.B)     { benchmarkIdleHeavy(b, true) }
func BenchmarkIdleHeavyNoFF(b *testing.B) { benchmarkIdleHeavy(b, false) }

// --- Dense multi-core host-throughput benchmarks ---

// denseWorkload is stepWorkload scaled to 16 KiB regions: long enough that
// the per-Run fixed cost (program setup) amortizes to nothing against the
// cycles it covers.
func denseWorkload(rep int) *isa.Program {
	b := isa.NewBuilder()
	base := uint64(0x1000 + rep*0x40000)
	b.StoreRegion(base, 16384, 64, 0xAB)
	b.Fence()
	b.CboRegion(base, 16384, 64, true)
	b.Fence()
	b.LoadRegion(base, 16384, 64)
	b.StoreRegion(base, 16384, 64, 0xCD)
	b.CboRegion(base, 16384, 64, false)
	b.Fence()
	return b.Build()
}

// denseProgs returns one dense workload per core on disjoint 256 KiB-spaced
// regions: every core is busy storing, flushing, and reloading at once.
func denseProgs(cores, rep int) []*isa.Program {
	progs := make([]*isa.Program, cores)
	for c := range progs {
		progs[c] = denseWorkload(rep*cores + c)
	}
	return progs
}

// runDense runs `rounds` back-to-back pre-built 4-core workloads on one
// warmed system and returns the simulated cycles covered.
func runDense(s *sim.System, rotation [][]*isa.Program, rounds int) int64 {
	start := s.Now()
	for r := 0; r < rounds; r++ {
		if _, err := s.Run(rotation[r%len(rotation)], runLimit); err != nil {
			panic(err)
		}
	}
	return s.Now() - start
}

// BenchmarkDense4Core is the 4-core dense figure quoted in the README: one
// warmed system stepping a fixed workload rotation.
func BenchmarkDense4Core(b *testing.B) {
	rotation := [][]*isa.Program{denseProgs(4, 0), denseProgs(4, 1)}
	s := sim.New(sim.DefaultConfig(4))
	runDense(s, rotation, 2*len(rotation)) // warm the pools and DRAM backing store
	b.ReportAllocs()
	b.ResetTimer()
	cycles := int64(0)
	for b.Loop() {
		cycles += runDense(s, rotation, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(cycles), "ns/cycle")
}

// BenchmarkRunFigure4Core measures a real 4-thread Fig. 9 evaluation point
// end to end through the sweep runner.
func BenchmarkRunFigure4Core(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		SweepOnce(nil, 1<<18, 4, true)
	}
}

// BenchmarkPersistPoint runs one quick §7.4 point (hash table, automatic
// persistence, 5% updates) per elision scheme. CI holds each scheme's B/op
// under the ceiling in testdata/persist_alloc_ceiling.txt, so per-run
// tables sized by the simulated address space (a dense FliT counter array,
// say) cannot creep back.
func BenchmarkPersistPoint(b *testing.B) {
	reps, sizes, threads, ops := Reps, Sizes, ThreadCounts, PersistOpsPerThr
	SetQuick()
	b.Cleanup(func() { Reps, Sizes, ThreadCounts, PersistOpsPerThr = reps, sizes, threads, ops })
	for _, kind := range PolicyKinds() {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				RunPersistConfig(ds.NameHash, persist.Automatic, kind, 5, FliTDefaultTable)
			}
		})
	}
}
