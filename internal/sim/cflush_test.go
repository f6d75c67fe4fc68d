package sim

import (
	"testing"

	"skipit/internal/isa"
	"skipit/internal/trace"
)

// TestCflushDL1EvictsToL2Only documents the §2.6 limitation of SiFive's
// vendor instruction: dirty data reaches the L2 but NOT main memory, so it
// cannot provide the persistence guarantee CBO.X exists for.
func TestCflushDL1EvictsToL2Only(t *testing.T) {
	p := isa.NewBuilder().
		Store(0x1000, 88).
		CflushDL1(0x1000).
		Fence().
		Build()
	s := run1(t, p)
	// The line left L1...
	if s.L1s[0].LineState(0x1000).Valid {
		t.Fatal("CFLUSH.D.L1 left the line in L1")
	}
	// ...its dirty data is now in the L2...
	st := s.L2.LineState(0x1000)
	if !st.Present || !st.Dirty {
		t.Fatalf("L2 state after CFLUSH.D.L1: %+v, want present+dirty", st)
	}
	if line, ok := s.L2.PeekLine(0x1000); !ok || line[0] != 88 {
		t.Fatal("L2 does not hold the evicted data")
	}
	// ...and main memory never saw it: a crash loses the store.
	if got := s.Mem.PeekUint64(0x1000); got != 0 {
		t.Fatalf("NVMM = %d after CFLUSH.D.L1 (it must not persist)", got)
	}
}

func TestCflushDL1MissIsCheap(t *testing.T) {
	b := isa.NewBuilder()
	idx := b.Mark()
	b.CflushDL1(0x9000) // line never touched
	s := run1(t, b.Build())
	tm := s.Cores[0].Timing(idx)
	if lat := tm.CompletedAt - tm.IssuedAt; lat > 20 {
		t.Fatalf("CFLUSH.D.L1 miss took %d cycles, want trivial", lat)
	}
	if s.L1s[0].Stats().Writebacks != 0 {
		t.Fatal("miss triggered a writeback")
	}
}

func TestCflushDL1CleanLineStillReleases(t *testing.T) {
	// A clean (read-only) line is still evicted; the release keeps the
	// L2 directory exact.
	p := isa.NewBuilder().
		Load(0x1000).
		CflushDL1(0x1000).
		Fence().
		Load(0x1000). // refetch: L2 hit, not a stale L1 hit
		Build()
	s := run1(t, p)
	if s.L2.Stats().VoluntaryReleases == 0 {
		t.Fatal("clean eviction sent no Release")
	}
	if got := s.Cores[0].Timing(3).LoadValue; got != 0 {
		t.Fatalf("refetched load = %d, want 0", got)
	}
}

func TestCflushDL1ThenCboFlushPersists(t *testing.T) {
	// The §2.6 remedy: after CFLUSH.D.L1 moved data to L2, a CBO.FLUSH
	// (which operates on the whole coherent hierarchy) still persists it
	// because the L2 handles the RootRelease for a line the L1 no longer
	// holds.
	p := isa.NewBuilder().
		Store(0x1000, 77).
		CflushDL1(0x1000).
		CboFlush(0x1000).
		Fence().
		Build()
	s := run1(t, p)
	if got := s.Mem.PeekUint64(0x1000); got != 77 {
		t.Fatalf("NVMM = %d after CFLUSH.D.L1 + CBO.FLUSH + fence, want 77", got)
	}
}

// TestCflushDL1WaitsForActiveFSHR pins a lost write: CFLUSH.D.L1 issued
// while an FSHR is still cleaning the line must wait for it. Evicting
// early released the newer store to the L2 while the L2 was writing the
// CBO.CLEAN's older data to DRAM. That write's completion marked the line
// clean, so the CBO.FLUSH found nothing to write back, and the load
// refetched the stale DRAM copy.
func TestCflushDL1WaitsForActiveFSHR(t *testing.T) {
	const x = 0x1000
	p := isa.NewBuilder().
		Store(x, 0x37).
		CboClean(x).
		Store(x, 0x38).
		CflushDL1(x).
		CboFlush(x).
		Fence().
		Load(x).
		Build()
	for _, skipIt := range []bool{true, false} {
		cfg := DefaultConfig(1)
		cfg.L1.Flush.SkipIt = skipIt
		s := New(cfg)
		if _, err := s.Run([]*isa.Program{p}, runLimit); err != nil {
			t.Fatalf("skipit=%v: %v", skipIt, err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("skipit=%v: %v", skipIt, err)
		}
		if got := s.Cores[0].Timing(6).LoadValue; got != 0x38 {
			t.Errorf("skipit=%v: load = %#x, want 0x38", skipIt, got)
		}
		if got := s.Mem.PeekUint64(x); got != 0x38 {
			t.Errorf("skipit=%v: DRAM = %#x, want 0x38", skipIt, got)
		}
	}
}

func TestCflushDL1RegionLatencyVsCboFlush(t *testing.T) {
	// CFLUSH.D.L1 is cheaper per line than a full CBO.FLUSH (no DRAM
	// round trip on the fence), the flip side of its weaker guarantee.
	measure := func(useCbo bool) int64 {
		b := isa.NewBuilder().StoreRegion(0, 2048, 64, 1).Fence()
		start := b.Mark()
		for a := uint64(0); a < 2048; a += 64 {
			if useCbo {
				b.CboFlush(a)
			} else {
				b.CflushDL1(a)
			}
		}
		end := b.Mark()
		b.Fence()
		s := run1(t, b.Build())
		return s.Cores[0].Timing(end).CompletedAt - s.Cores[0].Timing(start).IssuedAt
	}
	vendor := measure(false)
	cbo := measure(true)
	if vendor >= cbo {
		t.Fatalf("CFLUSH.D.L1 sweep (%d cy) not cheaper than CBO.FLUSH (%d cy)", vendor, cbo)
	}
}

// TestSkipItDropDoesNotInvalidate codifies a consequence of the §6.1 drop
// rule that the paper does not discuss: a CBO.FLUSH that hits a clean line
// with the skip bit set is dropped entirely — the line is NOT invalidated.
// That is sound for persistence but means flush-based cache-partitioning
// defenses (§8) must run with Skip It disabled. See examples/timingchannel.
func TestSkipItDropDoesNotInvalidate(t *testing.T) {
	p := isa.NewBuilder().
		Load(0x1000). // clean line, skip=1 via GrantData
		Fence().
		CboFlush(0x1000). // dropped by the skip bit
		Fence().
		Build()
	s := run1(t, p)
	if s.L1s[0].FlushUnit().Stats().SkipDropped != 1 {
		t.Fatal("flush not dropped; premise broken")
	}
	if !s.L1s[0].LineState(0x1000).Valid {
		t.Fatal("dropped flush invalidated the line (behavior changed; update docs)")
	}

	// With Skip It off the same flush must invalidate.
	cfg := DefaultConfig(1)
	cfg.L1.Flush.SkipIt = false
	s2 := New(cfg)
	if _, err := s2.Run([]*isa.Program{p}, runLimit); err != nil {
		t.Fatal(err)
	}
	if s2.L1s[0].LineState(0x1000).Valid {
		t.Fatal("flush without Skip It left the line valid")
	}
}

// TestTracingCapturesFlushLifecycle drives a flush through the system with a
// ring tracer attached and checks the line's event trail.
func TestTracingCapturesFlushLifecycle(t *testing.T) {
	s := New(DefaultConfig(1))
	ring := trace.NewRing(256)
	s.SetTracer(ring)
	p := isa.NewBuilder().
		Store(0x1000, 1).
		CboFlush(0x1000).
		Fence().
		Build()
	if _, err := s.Run([]*isa.Program{p}, runLimit); err != nil {
		t.Fatal(err)
	}
	events := ring.ForAddr(0x1000)
	kinds := map[string]bool{}
	for _, e := range events {
		kinds[e.Kind] = true
	}
	for _, want := range []string{"store-miss", "grant", "cbo-enqueue", "fshr-alloc", "root-release", "fshr-ack"} {
		if !kinds[want] {
			t.Errorf("missing %q in line trail: %v", want, events)
		}
	}
}
