package sim

import (
	"errors"
	"math/rand"
	"testing"

	"skipit/internal/isa"
)

const runLimit = 200_000

func run1(t *testing.T, p *isa.Program) *System {
	t.Helper()
	s := New(DefaultConfig(1))
	if _, err := s.Run([]*isa.Program{p}, runLimit); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStoreLoadRoundTrip(t *testing.T) {
	p := isa.NewBuilder().
		Store(0x1000, 42).
		Load(0x1000).
		Build()
	s := run1(t, p)
	if got := s.Cores[0].Timing(1).LoadValue; got != 42 {
		t.Fatalf("load = %d, want 42", got)
	}
}

func TestLoadFromDRAM(t *testing.T) {
	s := New(DefaultConfig(1))
	s.Mem.PokeUint64(0x2000, 7)
	if _, err := s.Run([]*isa.Program{isa.NewBuilder().Load(0x2000).Build()}, runLimit); err != nil {
		t.Fatal(err)
	}
	if got := s.Cores[0].Timing(0).LoadValue; got != 7 {
		t.Fatalf("load = %d, want 7", got)
	}
}

func TestStoreWithoutWritebackStaysVolatile(t *testing.T) {
	// Fig. 5(a): without an explicit writeback the store may linger in the
	// cache indefinitely; in a bounded run it has certainly not reached
	// the persistence domain.
	s := run1(t, isa.NewBuilder().Store(0x1000, 99).Build())
	if got := s.Mem.PeekUint64(0x1000); got != 0 {
		t.Fatalf("store reached NVMM without writeback: %d", got)
	}
}

func TestFlushFencePersists(t *testing.T) {
	// Fig. 5(c): writeback + fence guarantees the value is durable.
	p := isa.NewBuilder().
		Store(0x1000, 123).
		CboFlush(0x1000).
		Fence().
		Build()
	s := run1(t, p)
	if got := s.Mem.PeekUint64(0x1000); got != 123 {
		t.Fatalf("NVMM = %d after flush+fence, want 123", got)
	}
	// CBO.FLUSH invalidates: the line must be gone from L1 and L2.
	if s.L1s[0].LineState(0x1000).Valid {
		t.Error("flush left the line valid in L1")
	}
	if s.L2.LineState(0x1000).Present {
		t.Error("flush left the line present in L2")
	}
}

func TestCleanFencePersistsAndKeepsLine(t *testing.T) {
	p := isa.NewBuilder().
		Store(0x1000, 55).
		CboClean(0x1000).
		Fence().
		Load(0x1000).
		Build()
	s := run1(t, p)
	if got := s.Mem.PeekUint64(0x1000); got != 55 {
		t.Fatalf("NVMM = %d after clean+fence, want 55", got)
	}
	st := s.L1s[0].LineState(0x1000)
	if !st.Valid {
		t.Fatal("clean invalidated the line")
	}
	if st.Dirty {
		t.Error("clean left the dirty bit set")
	}
	if !st.Skip {
		t.Error("completed clean did not set the skip bit")
	}
	if got := s.Cores[0].Timing(3).LoadValue; got != 55 {
		t.Fatalf("re-read after clean = %d, want 55", got)
	}
}

func TestCleanRereadFasterThanFlushReread(t *testing.T) {
	// Fig. 10: re-reading after CBO.CLEAN hits the cache; after CBO.FLUSH
	// it refetches from memory, roughly 2x slower end to end.
	measure := func(clean bool) int64 {
		b := isa.NewBuilder().Store(0x1000, 1).Cbo(0x1000, clean).Fence()
		loadIdx := b.Mark()
		b.Load(0x1000)
		s := run1(t, b.Build())
		tm := s.Cores[0].Timing(loadIdx)
		return tm.CompletedAt - tm.IssuedAt
	}
	cleanLat := measure(true)
	flushLat := measure(false)
	if cleanLat >= flushLat {
		t.Fatalf("re-read after clean (%d cy) not faster than after flush (%d cy)", cleanLat, flushLat)
	}
}

func TestFenceWaitsForFlushCompletion(t *testing.T) {
	b := isa.NewBuilder().Store(0x1000, 1)
	cboIdx := b.Mark()
	b.CboFlush(0x1000)
	fenceIdx := b.Mark()
	b.Fence()
	s := run1(t, b.Build())
	cbo := s.Cores[0].Timing(cboIdx)
	fence := s.Cores[0].Timing(fenceIdx)
	// The CBO commits as soon as it is buffered (§5.2); the fence completes
	// strictly later, once the writeback has been acknowledged by memory.
	if fence.CompletedAt <= cbo.CompletedAt+10 {
		t.Fatalf("fence completed %d cycles after CBO buffered; expected a full memory round trip",
			fence.CompletedAt-cbo.CompletedAt)
	}
	// And the value must already be durable the cycle the fence completes.
	if got := s.Mem.PeekUint64(0x1000); got != 1 {
		t.Fatal("fence completed without durable data")
	}
}

func TestAsyncWritebackCommitsBeforeCompletion(t *testing.T) {
	// §4: the writeback instruction commits out of order with respect to
	// its own completion; buffering in the flush queue is enough. The
	// prologue warms the line so the measured CBO hits immediately.
	b := isa.NewBuilder().Store(0x1000, 0).CboClean(0x1000).Fence()
	b.Store(0x1000, 1)
	cboIdx := b.Mark()
	b.CboFlush(0x1000)
	// 20 nops pad the ROB so commit can run ahead.
	for i := 0; i < 20; i++ {
		b.Nop()
	}
	s := run1(t, b.Build())
	cbo := s.Cores[0].Timing(cboIdx)
	if cbo.CommittedAt < 0 {
		t.Fatal("CBO never committed")
	}
	// The store to NVMM finishes long after commit; verify commit did not
	// wait a memory round trip (committed within ~20 cycles of issue).
	if cbo.CommittedAt-cbo.IssuedAt > 20 {
		t.Fatalf("CBO.FLUSH commit waited %d cycles; writebacks must be asynchronous",
			cbo.CommittedAt-cbo.IssuedAt)
	}
}

func TestSkipItDropsRedundantCleans(t *testing.T) {
	b := isa.NewBuilder().Store(0x1000, 9).CboClean(0x1000).Fence()
	for i := 0; i < 10; i++ {
		b.CboClean(0x1000)
	}
	b.Fence()
	s := run1(t, b.Build())
	st := s.L1s[0].FlushUnit().Stats()
	if st.SkipDropped != 10 {
		t.Fatalf("SkipDropped = %d, want 10 (redundant cleans eliminated)", st.SkipDropped)
	}
	if got := s.L2.Stats().RootReleases; got != 1 {
		t.Fatalf("L2 saw %d RootReleases, want 1", got)
	}
}

func TestNaiveSendsRedundantCleansToL2(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.L1.Flush.SkipIt = false
	cfg.L1.Flush.Coalescing = false
	s := New(cfg)
	b := isa.NewBuilder().Store(0x1000, 9).CboClean(0x1000).Fence()
	for i := 0; i < 10; i++ {
		b.CboClean(0x1000).Fence()
	}
	if _, err := s.Run([]*isa.Program{b.Build()}, runLimit); err != nil {
		t.Fatal(err)
	}
	l2stats := s.L2.Stats()
	if l2stats.RootReleases != 11 {
		t.Fatalf("L2 RootReleases = %d, want 11 without Skip It", l2stats.RootReleases)
	}
	// The LLC's trivial dirty-bit check (§5.5) still avoids 10 DRAM writes.
	if l2stats.RootReleaseSkips != 10 {
		t.Fatalf("L2 trivial skips = %d, want 10", l2stats.RootReleaseSkips)
	}
	if s.Mem.Stats().Writes != 1 {
		t.Fatalf("DRAM writes = %d, want 1", s.Mem.Stats().Writes)
	}
}

func TestCapacityEvictionWritesBackDirtyLines(t *testing.T) {
	// Two regions of 32 KiB each overflow the 32 KiB L1: the first region
	// is evicted to L2 via the writeback unit.
	const l1Size = 32 << 10
	b := isa.NewBuilder().
		StoreRegion(0, l1Size, 64, 1).
		StoreRegion(l1Size, l1Size, 64, 2).
		LoadRegion(0, l1Size, 64)
	s := run1(t, b.Build())
	if s.L1s[0].Stats().Writebacks == 0 {
		t.Fatal("no evictions despite 2x capacity working set")
	}
	timings := s.Cores[0].Timings()
	base := 2 * (l1Size / 64)
	for i := 0; i < l1Size/64; i++ {
		if got := timings[base+i].LoadValue; got != 1 {
			t.Fatalf("load %d = %d after eviction round trip, want 1", i, got)
		}
	}
}

func TestCrossCoreCoherence(t *testing.T) {
	// Core 0 writes, core 1 spins reading... our cores have no branches,
	// so instead: core 0 writes+flushes+fences; then we run core 1 reading.
	s := New(DefaultConfig(2))
	w := isa.NewBuilder().Store(0x1000, 77).Fence().Build()
	if _, err := s.Run([]*isa.Program{w, nil}, runLimit); err != nil {
		t.Fatal(err)
	}
	// Core 1 now loads: the probe must extract core 0's dirty data.
	r := isa.NewBuilder().Load(0x1000).Build()
	if _, err := s.Run([]*isa.Program{nil, r}, runLimit); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := s.Cores[1].Timing(0).LoadValue; got != 77 {
		t.Fatalf("cross-core load = %d, want 77", got)
	}
	// Core 0 surrendered its dirty data but keeps a readable copy.
	st0 := s.L1s[0].LineState(0x1000)
	if st0.Valid && st0.Dirty {
		t.Error("core 0 still dirty after probe extraction")
	}
	// L2 is now the dirty holder: core 1's copy must not claim persistence.
	if st1 := s.L1s[1].LineState(0x1000); st1.Valid && st1.Skip {
		t.Error("core 1 received a dirty line with the skip bit set (§6.2 violation)")
	}
}

func TestCrossCoreStoreInvalidatesSharer(t *testing.T) {
	s := New(DefaultConfig(2))
	if _, err := s.Run([]*isa.Program{
		isa.NewBuilder().Store(0x1000, 1).Build(), nil}, runLimit); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run([]*isa.Program{nil,
		isa.NewBuilder().Store(0x1000, 2).Load(0x1000).Build()}, runLimit); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if s.L1s[0].LineState(0x1000).Valid {
		t.Error("core 0 keeps a copy after core 1 acquired exclusively")
	}
	if got := s.Cores[1].Timing(1).LoadValue; got != 2 {
		t.Fatalf("core 1 load = %d, want 2", got)
	}
}

func TestCrossCoreFlushWritesBackRemoteDirtyData(t *testing.T) {
	// §5.5: the RootRelease probes other owners even when the requester
	// does not hold the line — core 1 flushes a line dirty only in core 0.
	s := New(DefaultConfig(2))
	if _, err := s.Run([]*isa.Program{
		isa.NewBuilder().Store(0x1000, 31).Build(), nil}, runLimit); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run([]*isa.Program{nil,
		isa.NewBuilder().CboFlush(0x1000).Fence().Build()}, runLimit); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := s.Mem.PeekUint64(0x1000); got != 31 {
		t.Fatalf("NVMM = %d after remote flush, want 31", got)
	}
	if s.L1s[0].LineState(0x1000).Valid {
		t.Error("flush left core 0's copy valid")
	}
}

func TestCrashLosesUnflushedData(t *testing.T) {
	s := New(DefaultConfig(1))
	p := isa.NewBuilder().
		Store(0x1000, 10).
		Store(0x1040, 20).
		CboFlush(0x1000).
		Fence().
		Build()
	if _, err := s.Run([]*isa.Program{p}, runLimit); err != nil {
		t.Fatal(err)
	}
	s.Crash(false)
	if got := s.Mem.PeekUint64(0x1000); got != 10 {
		t.Fatalf("flushed value lost in crash: %d", got)
	}
	if got := s.Mem.PeekUint64(0x1040); got != 0 {
		t.Fatalf("unflushed value survived crash: %d", got)
	}
	// The system must be usable after the crash: reload the durable value.
	if _, err := s.Run([]*isa.Program{isa.NewBuilder().Load(0x1000).Build()}, runLimit); err != nil {
		t.Fatal(err)
	}
	if got := s.Cores[0].Timing(0).LoadValue; got != 10 {
		t.Fatalf("post-crash load = %d, want 10", got)
	}
}

func TestMemorySemanticsFig5b(t *testing.T) {
	// Fig. 5(b): writeback(x) then store(y): y's durability is NOT implied
	// by x's writeback. x is durable after the fence; y need not be.
	p := isa.NewBuilder().
		Store(0x1000, 1). // x
		CboFlush(0x1000).
		Store(0x2000, 2). // y, after the async writeback was issued
		Fence().          // orders the flush of x only; y was never written back
		Build()
	s := run1(t, p)
	if got := s.Mem.PeekUint64(0x1000); got != 1 {
		t.Fatal("x not durable after flush+fence")
	}
	if got := s.Mem.PeekUint64(0x2000); got != 0 {
		t.Fatal("y became durable without any writeback")
	}
}

func TestRandomStressInvariants(t *testing.T) {
	// Randomized two-core workload over a small line pool with invariant
	// checks every cycle.
	rng := rand.New(rand.NewSource(7))
	lines := []uint64{0x1000, 0x1040, 0x2000, 0x10000, 0x10040, 0x20000}
	build := func() *isa.Program {
		b := isa.NewBuilder()
		for i := 0; i < 150; i++ {
			a := lines[rng.Intn(len(lines))]
			switch rng.Intn(10) {
			case 0, 1, 2, 3:
				b.Store(a, uint64(rng.Intn(1000)))
			case 4, 5, 6:
				b.Load(a)
			case 7:
				b.CboClean(a)
			case 8:
				b.CboFlush(a)
			case 9:
				b.Fence()
			}
		}
		b.Fence()
		return b.Build()
	}
	s := New(DefaultConfig(2))
	s.Cores[0].SetProgram(build())
	s.Cores[1].SetProgram(build())
	for i := 0; i < 300_000; i++ {
		if err := s.StepChecked(); err != nil {
			t.Fatalf("cycle %d: %v", s.Now(), err)
		}
		if s.Done() && s.Quiescent() {
			return
		}
	}
	t.Fatalf("stress run did not finish: %s", s.describeStall())
}

func TestSingleLineFlushLatencyBand(t *testing.T) {
	// §7.2: a single-line clean or flush lands near 100 cycles.
	for _, clean := range []bool{true, false} {
		b := isa.NewBuilder().Store(0x1000, 1)
		start := b.Mark()
		b.Cbo(0x1000, clean)
		fence := b.Mark()
		b.Fence()
		s := run1(t, b.Build())
		lat := s.Cores[0].Timing(fence).CompletedAt - s.Cores[0].Timing(start).IssuedAt
		if lat < 40 || lat > 250 {
			t.Errorf("single-line CBO(clean=%v)+fence latency = %d cycles, want ~100", clean, lat)
		}
	}
}

// TestRunAfterSingleSteps: a Run composes with single Steps that settled
// traffic before it.
func TestRunAfterSingleSteps(t *testing.T) {
	s := New(DefaultConfig(2))
	s.Cores[0].SetProgram(isa.NewBuilder().Store(0x7000, 1).CboClean(0x7000).Build())
	s.Cores[1].SetProgram(isa.NewBuilder().Build())
	for !(s.Done() && s.Quiescent()) {
		if s.Now() >= 100_000 {
			t.Fatalf("single steps did not settle: %s", s.describeStall())
		}
		s.Step()
	}
	if _, err := s.Run(ffWorkload(), runLimit); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRunReportsTimeout: a run that exceeds its cycle limit stops at the
// limit and returns ErrTimeout.
func TestRunReportsTimeout(t *testing.T) {
	s := New(DefaultConfig(1))
	p := isa.NewBuilder().StoreRegion(0x1000, 16*64, 64, 7).
		CboRegionLoop(0x1000, 16*64, 64, true, 2).Fence().Build()
	if _, err := s.Run([]*isa.Program{p}, 40); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Run over its limit returned %v, want ErrTimeout", err)
	}
	if s.Now() != 40 {
		t.Fatalf("timed-out run stopped at cycle %d, want 40", s.Now())
	}
}
