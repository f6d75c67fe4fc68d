package memsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
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
			if err := h.checkDirectory(); err != nil {
				t.Log(err)
				return false
			}
			// Check the §6.2 predicate for every line and thread.
			for _, a := range lines {
				for t2 := 0; t2 < 2; t2++ {
					l := h.l1State(t2, a)
					if l.valid && !l.dirty && l.skip && h.DirtyAnywhere(a) {
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
		if l := h.l1State(tid, 0x1000); l.valid {
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
	if h.l1State(0, 0).valid {
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
		if err := h.checkDirectory(); err != nil {
			t.Fatalf("op %d: %v", i, err)
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

// TestNewRejectsBadGeometry: set indices and tags are shifts and masks, so
// a geometry they cannot express must be refused at construction rather than
// silently aliasing sets. A way count a set cannot hold (none, a negative
// one, or more than the 8 lanes of its tag word and LRU matrix) must be
// refused too, rather than failing on the first miss.
func TestNewRejectsBadGeometry(t *testing.T) {
	for name, bad := range map[string]func(*Config){
		"non-power-of-two LineBytes": func(c *Config) { c.LineBytes = 48 },
		"non-power-of-two L1Sets":    func(c *Config) { c.L1Sets = 48 },
		"non-power-of-two L2Sets":    func(c *Config) { c.L2Sets = 1000 },
		"zero L1Ways":                func(c *Config) { c.L1Ways = 0 },
		"negative L1Ways":            func(c *Config) { c.L1Ways = -1 },
		"9 L1Ways":                   func(c *Config) { c.L1Ways = 9 },
		"zero L2Ways":                func(c *Config) { c.L2Ways = 0 },
		"negative L2Ways":            func(c *Config) { c.L2Ways = -1 },
		"9 L2Ways":                   func(c *Config) { c.L2Ways = 9 },
	} {
		cfg := DefaultConfig(2)
		bad(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted a %s", name)
				}
			}()
			New(cfg)
		}()
	}
	New(DefaultConfig(2))
	cfg := DefaultConfig(2)
	cfg.L1Sets, cfg.L1Ways = 1, 8
	cfg.L2Sets, cfg.L2Ways = 1, 8
	New(cfg).Access(0, 0, true)
}

// l1Line is one L1 way's state as the tests see it.
type l1Line struct{ valid, dirty, skip bool }

// l1State returns the state of tid's L1 copy of addr's line; valid is false
// when tid holds no copy.
func (h *Hierarchy) l1State(tid int, addr uint64) l1Line {
	lineNo := h.line(addr)
	i := h.findL1(h.l1Set(tid, lineNo), lineNo, fingerprints(lineNo))
	if i < 0 {
		return l1Line{}
	}
	return l1Line{valid: true, dirty: h.l1Dirty[i], skip: h.l1Skip[i]}
}

// l1Index returns the lane of way w of thread t's L1 set s.
func (h *Hierarchy) l1Index(t, s, w int) int { return (t<<h.l1SetBits|s)<<laneBits | w }

// l2Index returns the lane (the frame) of way w of L2 set s.
func (h *Hierarchy) l2Index(s, w int) int { return s<<laneBits | w }

// checkDirectory checks the L2 directory against the L1s: each valid L1
// way's frame holds the way's line and records the way, and each recorded
// way is valid and holds its frame's line. Inclusion follows: every valid
// L1 line is in the L2. It then checks every set's words (checkSets).
func (h *Hierarchy) checkDirectory() error {
	threads, ways := h.cfg.Threads, h.cfg.L1Ways
	for t := 0; t < threads; t++ {
		for set := 0; set < h.cfg.L1Sets; set++ {
			for w := 0; w < ways; w++ {
				i := h.l1Index(t, set, w)
				if h.l1Key[i] == 0 {
					continue
				}
				lineNo := (h.l1Key[i]-1)<<h.l1SetBits | uint64(set)
				f := int(h.l1Frame[i])
				if got := h.findL2(lineNo, fingerprints(lineNo)); got != f {
					return fmt.Errorf("thread %d L1 way %d holds line %#x and names frame %d, but the L2 holds it in frame %d",
						t, i, lineNo, f, got)
				}
				if got := h.dir(f)[t]; got != uint8(w+1) {
					return fmt.Errorf("thread %d L1 way %d holds line %#x, but frame %d records way %d for it",
						t, i, lineNo, f, int(got)-1)
				}
			}
		}
	}
	for set := 0; set < h.cfg.L2Sets; set++ {
		for w2 := 0; w2 < h.cfg.L2Ways; w2++ {
			f := h.l2Index(set, w2)
			key := h.l2Key[f]
			for t, w := range h.dir(f) {
				if w == 0 {
					continue
				}
				if key == 0 || int(w) > ways {
					return fmt.Errorf("frame %d (key %d) records way %d for thread %d", f, key, int(w)-1, t)
				}
				lineNo := (key-1)<<h.l2SetBits | uint64(set)
				if h.l1Key[h.l1Way(t, int(lineNo&h.l1SetMask), w)] != lineNo>>h.l1SetBits+1 {
					return fmt.Errorf("frame %d records thread %d's way %d for line %#x, which that way does not hold",
						f, t, int(w)-1, lineNo)
				}
			}
		}
	}
	return h.checkSets()
}

// checkSets checks each set's tag word and LRU matrix against its lanes. A
// valid way's tag byte is its line's fingerprint and an invalid way's is 0; a
// filler lane's tag byte and LRU row hold their filler values; and the
// matrix orders the valid ways strictly: of two valid ways, exactly one was
// used after the other, no way after itself, and no real row names a
// filler column, so the least recently used way's row reads zero.
func (h *Hierarchy) checkSets() error {
	for _, lv := range []struct {
		name             string
		keys, tags, lrus []uint64
		ways             int
		setBits          uint
		setMask          uint64
	}{
		{"L1", h.l1Key, h.l1Tag, h.l1LRU, h.cfg.L1Ways, h.l1SetBits, h.l1SetMask},
		{"L2", h.l2Key, h.l2Tag, h.l2LRU, h.cfg.L2Ways, h.l2SetBits, h.l2SetMask},
	} {
		mask := uint64(1)<<lv.ways - 1 // the real ways
		for x, tag := range lv.tags {
			row := func(w int) uint64 { return lv.lrus[x] >> (8 * w) & 0xff }
			valid := func(w int) bool { return w < lv.ways && lv.keys[x<<laneBits|w] != 0 }
			for w := 0; w <= laneMask; w++ {
				want := uint64(0)
				switch {
				case w >= lv.ways:
					want = fillerTag
					if row(w) != 0xff&^mask {
						return fmt.Errorf("%s set %d: filler lane %d has LRU row %#x, want %#x", lv.name, x, w, row(w), 0xff&^mask)
					}
				case valid(w):
					lineNo := (lv.keys[x<<laneBits|w]-1)<<lv.setBits | uint64(x)&lv.setMask
					want = fingerprints(lineNo) & 0xff
				}
				if got := tag >> (8 * w) & 0xff; got != want {
					return fmt.Errorf("%s set %d: lane %d has tag byte %#x, want %#x", lv.name, x, w, got, want)
				}
				if !valid(w) {
					continue
				}
				if row(w)&^mask != 0 || row(w)>>w&1 != 0 {
					return fmt.Errorf("%s set %d: way %d has LRU row %#x", lv.name, x, w, row(w))
				}
				for j := 0; j < w; j++ {
					if valid(j) && row(w)>>j&1 == row(j)>>w&1 {
						return fmt.Errorf("%s set %d: the LRU matrix does not order ways %d and %d (rows %#x, %#x)",
							lv.name, x, j, w, row(j), row(w))
					}
				}
			}
		}
	}
	return nil
}

// tinyConfig is TestGoldenOpStream's geometry: four threads over L1 4x2 and
// L2 8x2, small enough that a short stream evicts, back-invalidates and
// drops flushes in every set.
func tinyConfig() Config {
	cfg := DefaultConfig(4)
	cfg.L1Sets, cfg.L1Ways = 4, 2
	cfg.L2Sets, cfg.L2Ways = 8, 2
	return cfg
}

// tinyOp applies one op of a random stream to h: a load or a store (three
// in eight each), or a CBO.CLEAN or CBO.FLUSH on Skip It hardware, over 64
// lines, half the time over a hot six that the threads share.
func tinyOp(h *Hierarchy, rng *rand.Rand) {
	tid := rng.Intn(h.cfg.Threads)
	line := rng.Intn(64)
	if rng.Intn(2) == 0 {
		line %= 6
	}
	addr := uint64(line) * h.cfg.LineBytes
	switch op := rng.Intn(8); {
	case op < 6:
		h.Access(tid, addr, op >= 3)
	default:
		h.Flush(tid, addr, op == 6, true)
	}
}

// diff returns how a's observable state differs from b's: Stats, clocks and
// DirtyAnywhere over the 64 lines tinyOp touches, or "" when they agree.
func diff(a, b *Hierarchy) string {
	if a.Stats() != b.Stats() {
		return fmt.Sprintf("Stats %+v, want %+v", a.Stats(), b.Stats())
	}
	for tid := 0; tid < a.cfg.Threads; tid++ {
		if a.Clock(tid) != b.Clock(tid) {
			return fmt.Sprintf("Clock(%d) %v, want %v", tid, a.Clock(tid), b.Clock(tid))
		}
	}
	for line := uint64(0); line < 64; line++ {
		if addr := line * a.cfg.LineBytes; a.DirtyAnywhere(addr) != b.DirtyAnywhere(addr) {
			return fmt.Sprintf("DirtyAnywhere(%#x) %v, want %v", addr, a.DirtyAnywhere(addr), b.DirtyAnywhere(addr))
		}
	}
	return ""
}

// cloneLeak warms a hierarchy and an identical twin, takes a copy of the
// first with clone and drives the copy on its own. The source must still
// answer as the twin does, and hold the same state: much of what the copy
// writes (an L2 dirty bit under a dirty L1 copy, say) no answer shows until
// later. It then drives the source and the twin with one further stream and
// returns the first way in which the copy's work showed in its source, or ""
// when it never did.
func cloneLeak(clone func(*Hierarchy) *Hierarchy) string {
	src, twin := New(tinyConfig()), New(tinyConfig())
	warm, warmTwin := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		tinyOp(src, warm)
		tinyOp(twin, warmTwin)
	}
	c := clone(src)
	own := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		tinyOp(c, own)
	}
	if d := diff(src, twin); d != "" {
		return "after the copy ran: " + d
	}
	if !reflect.DeepEqual(src, twin) {
		return "after the copy ran, the source's state differs from the twin's"
	}
	next, nextTwin := rand.New(rand.NewSource(3)), rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		tinyOp(src, next)
		tinyOp(twin, nextTwin)
		if d := diff(src, twin); d != "" {
			return fmt.Sprintf("op %d after the copy ran: %s", i, d)
		}
	}
	if err := src.checkDirectory(); err != nil {
		return err.Error()
	}
	return ""
}

// A clone's later work never shows in its source, which goes on exactly as
// an untouched twin does. The check is sensitive: a planted copy that
// shares any one of the hierarchy's slices with its source fails it. The
// slices are found by reflection, so a field added later is checked too.
func TestCloneIsIndependentOfItsSource(t *testing.T) {
	if leak := cloneLeak((*Hierarchy).Clone); leak != "" {
		t.Fatalf("Clone shares state with its source: %s", leak)
	}
	// field returns h's i-th field as a settable value, unexported or not.
	field := func(h *Hierarchy, i int) reflect.Value {
		f := reflect.ValueOf(h).Elem().Field(i)
		return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
	}
	typ, checked := reflect.TypeOf(Hierarchy{}), 0
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() != reflect.Slice {
			continue
		}
		checked++
		planted := func(h *Hierarchy) *Hierarchy {
			c := h.Clone()
			field(c, i).Set(field(h, i))
			return c
		}
		if cloneLeak(planted) == "" {
			t.Errorf("a copy sharing %s with its source went unnoticed", typ.Field(i).Name)
		}
	}
	if checked == 0 {
		t.Fatal("found no slice field in Hierarchy")
	}
}

// A clone starts where its source stands: both go on to the same results.
func TestCloneContinuesLikeItsSource(t *testing.T) {
	h := New(tinyConfig())
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		tinyOp(h, rng)
	}
	c := h.Clone()
	a, b := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		tinyOp(h, a)
		tinyOp(c, b)
	}
	if d := diff(c, h); d != "" {
		t.Fatalf("clone diverged from its source: %s", d)
	}
	if err := c.checkDirectory(); err != nil {
		t.Fatal(err)
	}
}

// digest folds every valid way's state into one FNV-1a hash, way by way:
// each L1 way's key and dirty and skip bits, thread by thread, then each L2
// frame's key, dirty bit and directory entries. Equal digests mean the same
// lines in the same ways with the same state.
func (h *Hierarchy) digest() uint64 {
	d := uint64(14695981039346656037)
	mix := func(v uint64) { d = (d ^ v) * 1099511628211 }
	bit := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	for t := 0; t < h.cfg.Threads; t++ {
		for s := 0; s < h.cfg.L1Sets; s++ {
			for w := 0; w < h.cfg.L1Ways; w++ {
				i := h.l1Index(t, s, w)
				mix(h.l1Key[i])
				if h.l1Key[i] != 0 {
					mix(bit(h.l1Dirty[i])<<1 | bit(h.l1Skip[i]))
				}
			}
		}
	}
	for s := 0; s < h.cfg.L2Sets; s++ {
		for w := 0; w < h.cfg.L2Ways; w++ {
			f := h.l2Index(s, w)
			mix(h.l2Key[f])
			if h.l2Key[f] != 0 {
				mix(bit(h.l2Dirty[f]))
				for _, e := range h.dir(f) {
					mix(uint64(e))
				}
			}
		}
	}
	return d
}

// goldenStream drives h with a seeded stream scaled to its geometry: loads
// and stores, CBO.CLEAN and CBO.FLUSH with and without the Skip It bit,
// fences and compute cycles, over four times the L2's lines. Half the
// accesses fall in a hot range of one and a half L1s, so L1 sets both hit
// and evict by LRU, and a quarter in a range the size of the L2, so L2 sets
// do too. The directory is checked every 512 operations and at the end.
func goldenStream(t *testing.T, h *Hierarchy, seed int64, ops int) {
	t.Helper()
	cfg := h.cfg
	hot, warm := cfg.L1Sets*cfg.L1Ways*3/2, cfg.L2Sets*cfg.L2Ways
	rng := rand.New(rand.NewSource(seed))
	for i := 1; i <= ops; i++ {
		tid := rng.Intn(cfg.Threads)
		line := rng.Intn(4 * warm)
		switch rng.Intn(4) {
		case 0, 1:
			line %= hot
		case 2:
			line %= warm
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
		if i%512 == 0 || i == ops {
			if err := h.checkDirectory(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
}

// TestGoldenGeometries pins the model's complete behaviour, Stats, clocks
// and the state of every way, on seeded streams over the geometries the
// figures use (DefaultConfig at 2 and 4 threads) and over small 1-, 3-, 5-
// and 7-way sets at either level, where a way count below a power of two
// leaves lanes a set may not use. The values were recorded from the model
// that kept a timestamp per way and scanned each set; a lookup, placement or
// eviction change that moves any of them changes simulated results.
func TestGoldenGeometries(t *testing.T) {
	geometry := func(threads, l1Sets, l1Ways, l2Sets, l2Ways int) Config {
		cfg := DefaultConfig(threads)
		cfg.L1Sets, cfg.L1Ways = l1Sets, l1Ways
		cfg.L2Sets, cfg.L2Ways = l2Sets, l2Ways
		return cfg
	}
	for _, g := range []struct {
		name   string
		cfg    Config
		ops    int
		stats  Stats
		clocks []float64
		digest uint64
	}{
		{
			name: "default-2", cfg: DefaultConfig(2), ops: 300_000,
			stats: Stats{Accesses: 187832, L1Hits: 29855, L2Hits: 76431, MemFills: 74452, CoherenceMisses: 7094,
				Flushes: 74895, FlushDropsL1: 1510, FlushSkipsL2: 44402, FlushWrites: 52840, Fences: 18725},
			clocks: []float64{7.715951e+06, 7.7183605e+06},
			digest: 0x17d8547422ec259e,
		},
		{
			name: "default-4", cfg: DefaultConfig(4), ops: 300_000,
			stats: Stats{Accesses: 187832, L1Hits: 24402, L2Hits: 74882, MemFills: 74623, CoherenceMisses: 13925,
				Flushes: 74895, FlushDropsL1: 1106, FlushSkipsL2: 44803, FlushWrites: 52848, Fences: 18725},
			clocks: []float64{3.942723e+06, 3.957716e+06, 3.9499205e+06, 3.9489745e+06},
			digest: 0x342d33536ee473c,
		},
		{
			name: "L1-16x1-L2-32x3", cfg: geometry(2, 16, 1, 32, 3), ops: 20_000,
			stats: Stats{Accesses: 12444, L1Hits: 2161, L2Hits: 4916, MemFills: 4897, CoherenceMisses: 470,
				Flushes: 5018, FlushDropsL1: 115, FlushSkipsL2: 2945, FlushWrites: 3728, Fences: 1272},
			clocks: []float64{509898, 511096},
			digest: 0x7547c4f041b2bffa,
		},
		{
			name: "L1-8x3-L2-16x5", cfg: geometry(3, 8, 3, 16, 5), ops: 20_000,
			stats: Stats{Accesses: 12444, L1Hits: 2402, L2Hits: 4009, MemFills: 5038, CoherenceMisses: 995,
				Flushes: 5018, FlushDropsL1: 122, FlushSkipsL2: 2949, FlushWrites: 3815, Fences: 1272},
			clocks: []float64{346268.5, 345635, 348718},
			digest: 0x6db4033a13bc93b,
		},
		{
			name: "L1-4x5-L2-8x7", cfg: geometry(4, 4, 5, 8, 7), ops: 20_000,
			stats: Stats{Accesses: 12444, L1Hits: 2238, L2Hits: 3902, MemFills: 5033, CoherenceMisses: 1271,
				Flushes: 5018, FlushDropsL1: 131, FlushSkipsL2: 2924, FlushWrites: 3854, Fences: 1272},
			clocks: []float64{264681.5, 266821.5, 263251.5, 259187},
			digest: 0xd7ddf855e17a8666,
		},
		{
			name: "L1-2x7-L2-64x1", cfg: geometry(2, 2, 7, 64, 1), ops: 20_000,
			stats: Stats{Accesses: 12444, L1Hits: 2654, L2Hits: 4175, MemFills: 5052, CoherenceMisses: 563,
				Flushes: 5018, FlushDropsL1: 133, FlushSkipsL2: 2984, FlushWrites: 3874, Fences: 1272},
			clocks: []float64{512550.5, 507008.5},
			digest: 0x25e4ea185c1a7847,
		},
	} {
		t.Run(g.name, func(t *testing.T) {
			h := New(g.cfg)
			goldenStream(t, h, 20261020, g.ops)
			if got := h.Stats(); got != g.stats {
				t.Errorf("Stats() = %+v\nwant %+v", got, g.stats)
			}
			for tid, want := range g.clocks {
				if got := h.Clock(tid); got != want {
					t.Errorf("Clock(%d) = %v, want %v", tid, got, want)
				}
			}
			if got := h.digest(); got != g.digest {
				t.Errorf("digest() = %#x, want %#x", got, g.digest)
			}
		})
	}
}

// l1WayOf returns the way of tid's L1 set that holds addr's line, or -1.
func (h *Hierarchy) l1WayOf(tid int, addr uint64) int {
	lineNo := h.line(addr)
	s, key := int(lineNo&h.l1SetMask), lineNo>>h.l1SetBits+1
	for w := 0; w < h.cfg.L1Ways; w++ {
		if h.l1Key[h.l1Index(tid, s, w)] == key {
			return w
		}
	}
	return -1
}

// l2WayOf returns the way of its L2 set that holds addr's line, or -1.
func (h *Hierarchy) l2WayOf(addr uint64) int {
	lineNo := h.line(addr)
	s, key := int(lineNo&h.l2SetMask), lineNo>>h.l2SetBits+1
	for w := 0; w < h.cfg.L2Ways; w++ {
		if h.l2Key[h.l2Index(s, w)] == key {
			return w
		}
	}
	return -1
}

// A fill takes its set's lowest-numbered invalid way, and only a full set
// evicts, its least recently used way. At the L1 a hit and a write upgrade
// count as uses, at the L2 every L1 miss; no flush does.
func TestVictimIsFirstFreeWayElseLRU(t *testing.T) {
	line := func(n int) uint64 { return uint64(n) * 64 }
	check := func(t *testing.T, wayOf func(uint64) int, want map[int]int) {
		t.Helper()
		for n := 0; n < 8; n++ {
			w, ok := want[n]
			if !ok {
				w = -1
			}
			if got := wayOf(line(n)); got != w {
				t.Errorf("line %d in way %d, want %d", n, got, w)
			}
		}
	}
	t.Run("L1", func(t *testing.T) {
		cfg := DefaultConfig(1)
		cfg.L1Sets, cfg.L1Ways = 1, 4 // one set; the L2 holds every line
		h := New(cfg)
		for n := 0; n < 4; n++ {
			h.Access(0, line(n), false) // ways 0-3
		}
		h.Access(0, line(0), false)      // a hit: LRU order 1 2 3 0
		h.Access(0, line(2), true)       // an upgrade: 1 3 0 2
		h.Flush(0, line(1), true, false) // a clean: no use
		h.Access(0, line(4), false)      // evicts line 1 from way 1
		h.Flush(0, line(0), false, false)
		h.Flush(0, line(2), false, false) // ways 0 and 2 free
		h.Access(0, line(5), false)       // way 0
		h.Access(0, line(6), false)       // way 2; LRU order 3 4 5 6
		h.Access(0, line(7), false)       // evicts line 3 from way 3
		check(t, func(a uint64) int { return h.l1WayOf(0, a) }, map[int]int{4: 1, 5: 0, 6: 2, 7: 3})
	})
	t.Run("L2", func(t *testing.T) {
		cfg := DefaultConfig(1)
		cfg.L1Sets, cfg.L1Ways = 1, 1 // every other line misses the L1
		cfg.L2Sets, cfg.L2Ways = 1, 4
		h := New(cfg)
		for n := 0; n < 4; n++ {
			h.Access(0, line(n), false) // ways 0-3
		}
		h.Access(0, line(0), false)      // an L1 miss: LRU order 1 2 3 0
		h.Access(0, line(1), false)      // 2 3 0 1
		h.Access(0, line(1), true)       // an L1 hit: no use at the L2
		h.Flush(0, line(2), true, false) // a clean: no use
		h.Access(0, line(4), false)      // evicts line 2 from way 2
		h.Flush(0, line(0), false, false)
		h.Flush(0, line(3), false, false) // ways 0 and 3 free
		h.Access(0, line(5), false)       // way 0
		h.Access(0, line(6), false)       // way 3; LRU order 1 4 5 6
		h.Access(0, line(7), false)       // evicts line 1 from way 1
		check(t, h.l2WayOf, map[int]int{4: 2, 5: 0, 6: 3, 7: 1})
	})
}

// BenchmarkAccess times one call on a warm DefaultConfig(2) hierarchy, by
// pattern. hit-random reads 128 resident lines in a random order, l2-hit
// reads 768 lines in turn, so every read misses the L1 (12 lines per L1 set
// against 8 ways) and hits the L2, and hit-in-order reads the 128 resident
// lines in turn. automatic-plain is what the automatic mode's plain scheme
// does at each node a traversal reads: a load, then a CBO.FLUSH of the same
// line without the Skip It bit, over 1,024 lines in turn, so every load
// fills from memory; its ns/op is one load and its flush.
func BenchmarkAccess(b *testing.B) {
	lines := func(n int, shuffle bool) []uint64 {
		addrs := make([]uint64, 4096)
		perm := rand.New(rand.NewSource(1)).Perm(len(addrs))
		for i := range addrs {
			j := i
			if shuffle {
				j = perm[i]
			}
			addrs[i] = uint64(j%n) * 64
		}
		return addrs
	}
	for _, p := range []struct {
		name  string
		addrs []uint64
		flush bool
	}{
		{"hit-random", lines(128, true), false},
		{"l2-hit", lines(768, false), false},
		{"hit-in-order", lines(128, false), false},
		{"automatic-plain", lines(1024, false), true},
	} {
		b.Run(p.name, func(b *testing.B) {
			h := New(DefaultConfig(2))
			for _, a := range p.addrs {
				h.Access(0, a, false)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := p.addrs[i&(len(p.addrs)-1)]
				h.Access(0, a, false)
				if p.flush {
					h.Flush(0, a, false, false)
				}
			}
		})
	}
}
