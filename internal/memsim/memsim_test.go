package memsim

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func h2() *Hierarchy { return New(DefaultConfig(2)) }

func TestColdMissThenHit(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, false)
	cold := h.Clock(0)
	if cold < h.cfg.Mem {
		t.Fatalf("cold miss cost %.0f < memory latency", cold)
	}
	h.Access(0, 0x1000, false)
	if hit := h.Clock(0) - cold; hit != h.cfg.L1Hit {
		t.Fatalf("hit cost %.0f, want %.0f", hit, h.cfg.L1Hit)
	}
	st := h.Stats()
	if st.MemFills != 1 || st.L1Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSameLineDifferentWordsHit(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, false)
	before := h.Clock(0)
	h.Access(0, 0x1008, false)
	if got := h.Clock(0) - before; got != h.cfg.L1Hit {
		t.Fatalf("same-line access cost %.0f, want L1 hit", got)
	}
}

func TestWriteMakesLineDirty(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, true)
	if !h.DirtyAnywhere(0x1000) {
		t.Fatal("written line not dirty")
	}
	if h.DirtyAnywhere(0x2000) {
		t.Fatal("unwritten line dirty")
	}
}

func TestCoherenceMissCostsMoreThanL2Hit(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, true) // dirty in thread 0
	h.Access(1, 0x1000, false)
	remote := h.Clock(1)

	h.Access(0, 0x3000, false) // clean, shared through L2
	h.Access(1, 0x3000, false)
	sharedClean := h.Clock(1) - remote
	if remote <= sharedClean {
		t.Fatalf("dirty remote fetch (%.0f) not pricier than clean L2 hit (%.0f)", remote, sharedClean)
	}
	if h.Stats().CoherenceMisses != 1 {
		t.Fatalf("coherence misses = %d, want 1", h.Stats().CoherenceMisses)
	}
}

func TestWriteInvalidatesRemoteCopy(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, false)
	h.Access(1, 0x1000, true) // invalidates thread 0's copy
	c0 := h.Clock(0)
	h.Access(0, 0x1000, false) // must not be an L1 hit
	if cost := h.Clock(0) - c0; cost <= h.cfg.L1Hit {
		t.Fatalf("read after remote write cost %.0f; copy should have been invalidated", cost)
	}
}

func TestFlushPersistsAndSkipBit(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, true)
	h.Flush(0, 0x1000, true, true) // CBO.CLEAN with Skip It
	if h.DirtyAnywhere(0x1000) {
		t.Fatal("line dirty after flush")
	}
	if h.Stats().FlushWrites != 1 {
		t.Fatal("dirty flush did not write memory")
	}
	before := h.Clock(0)
	h.Flush(0, 0x1000, true, true) // redundant: dropped at L1
	if cost := h.Clock(0) - before; cost != h.cfg.CboPipeline {
		t.Fatalf("redundant flush cost %.0f, want pipeline-only %.0f", cost, h.cfg.CboPipeline)
	}
	if h.Stats().FlushDropsL1 != 1 {
		t.Fatal("redundant flush not dropped by skip bit")
	}
}

func TestFlushWithoutSkipItGoesToL2(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, true)
	h.Flush(0, 0x1000, true, false)
	before := h.Clock(0)
	h.Flush(0, 0x1000, true, false) // redundant: resolved at L2
	cost := h.Clock(0) - before
	if cost != h.cfg.CboPipeline+h.cfg.FlushL2 {
		t.Fatalf("redundant naive flush cost %.0f, want %.0f", cost, h.cfg.CboPipeline+h.cfg.FlushL2)
	}
	if h.Stats().FlushSkipsL2 != 1 {
		t.Fatal("redundant naive flush not counted as L2 skip")
	}
}

func TestCboFlushInvalidates(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, true)
	h.Flush(0, 0x1000, false, true) // CBO.FLUSH
	c := h.Clock(0)
	h.Access(0, 0x1000, false)
	if cost := h.Clock(0) - c; cost <= h.cfg.L1Hit {
		t.Fatal("flushed (invalidated) line still hit")
	}
}

func TestCleanKeepsLineResident(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, true)
	h.Flush(0, 0x1000, true, true)
	c := h.Clock(0)
	h.Access(0, 0x1000, false)
	if cost := h.Clock(0) - c; cost != h.cfg.L1Hit {
		t.Fatalf("re-read after clean cost %.0f, want L1 hit", cost)
	}
}

func TestRemoteDirtyFlushWritesBack(t *testing.T) {
	// §5.5: a flush by one thread must persist data dirty in another
	// thread's cache.
	h := h2()
	h.Access(0, 0x1000, true)
	h.Flush(1, 0x1000, true, true)
	if h.DirtyAnywhere(0x1000) {
		t.Fatal("remote dirty data survived a flush")
	}
	if h.Stats().FlushWrites != 1 {
		t.Fatal("remote dirty flush did not reach memory")
	}
}

func TestGrantDataDirtyClearsSkip(t *testing.T) {
	// A line dirty in L2 must install with skip unset (§6.1), so a flush
	// is not incorrectly dropped.
	h := h2()
	h.Access(0, 0x1000, true)  // dirty in T0
	h.Access(1, 0x1000, false) // T1 fetch: dirty moves to L2
	// T1's copy must not claim persistence.
	before := h.Clock(1)
	h.Flush(1, 0x1000, true, true)
	cost := h.Clock(1) - before
	if cost < h.cfg.FlushMem {
		t.Fatalf("flush of L2-dirty line cost %.0f; must have written back", cost)
	}
	if h.DirtyAnywhere(0x1000) {
		t.Fatal("line still dirty after flush")
	}
}

func TestCapacityEviction(t *testing.T) {
	h := h2()
	// Touch 3x the L1 capacity; early lines must be evicted.
	capacity := uint64(h.cfg.L1Sets * h.cfg.L1Ways)
	for i := uint64(0); i < 3*capacity; i++ {
		h.Access(0, i*64, false)
	}
	c := h.Clock(0)
	h.Access(0, 0, false)
	if cost := h.Clock(0) - c; cost == h.cfg.L1Hit {
		t.Fatal("line survived 3x-capacity sweep; eviction broken")
	}
}

func TestDirtyEvictionLandsInL2(t *testing.T) {
	h := h2()
	h.Access(0, 0, true)
	// Evict line 0 from L1 with a same-set sweep (same L1 set every
	// L1Sets lines).
	stride := uint64(h.cfg.L1Sets) * 64
	for i := uint64(1); i <= uint64(h.cfg.L1Ways); i++ {
		h.Access(0, i*stride, false)
	}
	if !h.DirtyAnywhere(0) {
		t.Fatal("dirty data lost on L1 eviction")
	}
}

func TestFenceChargesCost(t *testing.T) {
	h := h2()
	h.Fence(0)
	if h.Clock(0) != h.cfg.Fence {
		t.Fatalf("fence cost %.0f", h.Clock(0))
	}
	if h.Clock(1) != 0 {
		t.Fatal("fence charged the wrong thread")
	}
}

func TestMaxSecondsUsesSlowestThread(t *testing.T) {
	h := h2()
	h.AddCycles(0, 50e6) // one virtual second at 50 MHz
	h.AddCycles(1, 25e6)
	if got := h.MaxSeconds(); got < 0.99 || got > 1.01 {
		t.Fatalf("MaxSeconds = %f, want ~1.0", got)
	}
}

func TestResetClocksKeepsCacheState(t *testing.T) {
	h := h2()
	h.Access(0, 0x1000, false)
	h.ResetClocks()
	if h.Clock(0) != 0 {
		t.Fatal("clock not reset")
	}
	h.Access(0, 0x1000, false)
	if h.Clock(0) != h.cfg.L1Hit {
		t.Fatal("cache state lost on clock reset")
	}
}

func TestAllocatorAlignmentAndNoOverlap(t *testing.T) {
	a := NewAllocator(1 << 30)
	seen := map[uint64]bool{}
	prevEnd := uint64(0)
	for i := 0; i < 1000; i++ {
		size := uint64(8 + (i%7)*8)
		addr := a.Alloc(size)
		if addr%8 != 0 {
			t.Fatalf("unaligned alloc %#x", addr)
		}
		if addr < prevEnd {
			t.Fatalf("overlapping alloc %#x < %#x", addr, prevEnd)
		}
		if size <= 64 && addr/64 != (addr+size-1)/64 {
			t.Fatalf("object at %#x size %d straddles a line", addr, size)
		}
		prevEnd = addr + size
		if seen[addr] {
			t.Fatalf("duplicate address %#x", addr)
		}
		seen[addr] = true
	}
}

func TestAllocatorConcurrent(t *testing.T) {
	a := NewAllocator(0)
	var mu sync.Mutex
	seen := map[uint64]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := make([]uint64, 0, 500)
			for i := 0; i < 500; i++ {
				local = append(local, a.Alloc(24))
			}
			mu.Lock()
			for _, addr := range local {
				if seen[addr] {
					t.Errorf("duplicate concurrent alloc %#x", addr)
				}
				seen[addr] = true
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
}

// Property: flush-elision safety — whenever the skip bit would drop a flush,
// the line has no dirty data anywhere.
func TestSkipDropImpliesNotDirtyProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		h := h2()
		lines := []uint64{0, 64, 128, 4096, 8192}
		for _, op := range ops {
			tid := int(op) % 2
			addr := lines[int(op>>1)%len(lines)]
			switch (op >> 4) % 4 {
			case 0:
				h.Access(tid, addr, false)
			case 1:
				h.Access(tid, addr, true)
			case 2:
				h.Flush(tid, addr, true, true)
			case 3:
				h.Flush(tid, addr, false, true)
			}
			// Check the §6.2 predicate for every line and thread.
			for _, a := range lines {
				for t2 := 0; t2 < 2; t2++ {
					l := h.findL1(t2, h.line(a))
					if l != nil && l.valid && !l.dirty && l.skip && h.DirtyAnywhere(a) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFourThreadCoherenceRotation(t *testing.T) {
	h := New(DefaultConfig(4))
	// Each thread in turn writes the line; every successor must pay a
	// non-hit cost (the previous owner's copy is invalidated).
	for tid := 0; tid < 4; tid++ {
		before := h.Clock(tid)
		h.Access(tid, 0x1000, true)
		if cost := h.Clock(tid) - before; tid > 0 && cost <= h.cfg.L1Hit {
			t.Fatalf("thread %d wrote a migratory line at hit cost %.0f", tid, cost)
		}
	}
	// Exactly one dirty copy exists.
	holders := 0
	for tid := 0; tid < 4; tid++ {
		if l := h.findL1(tid, h.line(0x1000)); l != nil && l.valid {
			holders++
			if !l.dirty {
				t.Fatal("final owner not dirty")
			}
		}
	}
	if holders != 1 {
		t.Fatalf("%d L1 copies of a migratory write line, want 1", holders)
	}
}

func TestL2EvictionInvalidatesL1Copies(t *testing.T) {
	h := New(DefaultConfig(1))
	h.Access(0, 0, false)
	// Sweep addresses that all map to L2 set 0 until line 0 is evicted
	// from L2; inclusion requires the L1 copy to go too.
	stride := uint64(h.cfg.L2Sets) * 64
	for i := uint64(1); i <= uint64(h.cfg.L2Ways); i++ {
		h.Access(0, i*stride, false)
	}
	if l := h.findL1(0, 0); l != nil && l.valid {
		t.Fatal("L1 kept a line the inclusive L2 evicted")
	}
}

func TestFlushOfL1DirtyUnknownToL2(t *testing.T) {
	// Dirty data exists only in an L1 (never evicted): a flush must still
	// count as a memory writeback.
	h := New(DefaultConfig(2))
	h.Access(0, 0x4000, true)
	h.Flush(0, 0x4000, false, true)
	if h.Stats().FlushWrites != 1 {
		t.Fatalf("FlushWrites = %d, want 1", h.Stats().FlushWrites)
	}
	if h.DirtyAnywhere(0x4000) {
		t.Fatal("dirty after flush")
	}
}

// TestGoldenOpStream pins the model's complete behaviour on a fixed-seed
// stream that exercises what the figure runs do not: four threads, CBO.CLEAN
// as well as CBO.FLUSH, flushes with and without the Skip It bit, and a
// geometry small enough (L1 4x2, L2 8x2 against 64 lines) that inclusive
// back-invalidation and dirty victim writebacks are frequent. The expected
// values were recorded from the divide-and-modulo indexing that preceded the
// shifts and masks; an index or eviction change that moves any of them
// changes simulated results.
func TestGoldenOpStream(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.L1Sets, cfg.L1Ways = 4, 2
	cfg.L2Sets, cfg.L2Ways = 8, 2
	h := New(cfg)
	rng := rand.New(rand.NewSource(20240427))
	for i := 0; i < 10_000; i++ {
		tid := rng.Intn(cfg.Threads)
		line := rng.Intn(64)
		if rng.Intn(2) == 0 {
			line %= 6 // a hot set, so hits, drops and coherence misses recur
		}
		addr := uint64(line)*cfg.LineBytes + uint64(rng.Intn(8))*8
		switch op := rng.Intn(16); {
		case op < 5:
			h.Access(tid, addr, false)
		case op < 10:
			h.Access(tid, addr, true)
		case op < 14:
			h.Flush(tid, addr, op&1 == 0, op&2 == 0)
		case op == 14:
			h.Fence(tid)
		default:
			h.AddCycles(tid, float64(rng.Intn(10)))
		}
	}
	want := Stats{
		Accesses: 6242, L1Hits: 917, L2Hits: 1605, MemFills: 3200, CoherenceMisses: 520,
		Flushes: 2457, FlushDropsL1: 54, FlushSkipsL2: 1673, FlushWrites: 2168, Fences: 653,
	}
	if got := h.Stats(); got != want {
		t.Errorf("Stats() = %+v\nwant %+v", got, want)
	}
	for tid, want := range []float64{140728, 142779, 137918, 140160.5} {
		if got := h.Clock(tid); got != want {
			t.Errorf("Clock(%d) = %v, want %v", tid, got, want)
		}
	}
}

// TestNewRejectsNonPowerOfTwoGeometry: set indices and tags are shifts and
// masks, so a geometry they cannot express must be refused at construction
// rather than silently aliasing sets.
func TestNewRejectsNonPowerOfTwoGeometry(t *testing.T) {
	for name, bad := range map[string]func(*Config){
		"LineBytes": func(c *Config) { c.LineBytes = 48 },
		"L1Sets":    func(c *Config) { c.L1Sets = 48 },
		"L2Sets":    func(c *Config) { c.L2Sets = 1000 },
	} {
		cfg := DefaultConfig(2)
		bad(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted a non-power-of-two %s", name)
				}
			}()
			New(cfg)
		}()
	}
	New(DefaultConfig(2))
}
