// Package memsim is the fast behavioral memory model under the software
// persistence study (Figures 14–16). Where package sim models the SoC cycle
// by cycle, memsim models only what drives those figures' throughput
// differences: cache capacity (tag-only set-associative L1 per thread plus a
// shared L2), coherence (write-invalidate), per-line dirty/persisted state
// including the Skip It bit, and a virtual cycle clock per thread that every
// access and writeback charges.
//
// The L2 is inclusive and doubles as the coherence directory. Every valid L1
// line is also in the L2 (an L2 eviction invalidates the line's L1 copies
// first), each L1 way records the L2 frame that holds its line, and each L2
// frame records, per thread, which way of that thread's L1 set holds its
// line, if any. Access and Flush therefore search only the calling thread's
// L1 set and reach every other copy through the frame, as a directory
// protocol tracks sharers instead of snooping every cache.
//
// Each set answers its three questions, which way holds a line, which way
// is free and which way to evict, in a few ALU operations on two words, as
// a hardware cache answers them with a parallel tag compare and one LRU
// state word per set. The tag word holds one fingerprint byte per way (0 for
// an invalid way); one SWAR byte compare finds the ways whose fingerprint
// matches, and the way's full key confirms the match. The LRU word is an 8x8
// bit matrix: row w has bit j set when way w was used after way j, so the
// all-zero row is the least recently used way. No lookup, free-way search or
// victim pick loops over a set's ways, which caps a set at 8 ways.
//
// A Hierarchy is single-goroutine: it holds no lock, and simulated threads
// are only the tid arguments of its calls. The figure runs interleave their
// threads round-robin in one goroutine; a caller that drives a hierarchy from
// several goroutines serializes the calls itself (persist.Locked does so at
// the Policy edge). Set indices and tags are shifts and masks, so New accepts
// only power-of-two line sizes and set counts.
package memsim

import (
	"fmt"
	"math/bits"
	"slices"
)

// Config sets geometry and the cycle-cost model. The costs are set by hand;
// nothing yet checks them against the cycle-accurate simulator in package
// sim (ROADMAP.md item 4 plans that calibration).
type Config struct {
	Threads   int
	L1Sets    int // per-thread L1: 64x8x64B = 32 KiB
	L1Ways    int // 1 to 8
	L2Sets    int // shared L2: 1024x8x64B = 512 KiB
	L2Ways    int // 1 to 8
	LineBytes uint64

	// Access costs in cycles.
	L1Hit     float64
	L2Hit     float64
	Mem       float64
	Coherence float64 // extra cost when a line is fetched from another L1

	// Writeback costs in cycles.
	CboPipeline float64 // any CBO.X traversing the pipeline to the L1
	FlushL2     float64 // CBO resolved by the L2's trivial dirty-bit skip
	FlushMem    float64 // CBO that writes the line back to memory
	Fence       float64

	// ClockMHz converts virtual cycles to seconds for throughput; the
	// paper's §7.4 platform runs at 50 MHz.
	ClockMHz float64
}

// DefaultConfig mirrors the paper's Enzian platform (§7.1): per-core 32 KiB
// L1s and a shared 512 KiB L2 at 50 MHz. Its costs are set by hand, not
// measured on the cycle simulator (see Config).
func DefaultConfig(threads int) Config {
	return Config{
		Threads:   threads,
		L1Sets:    64,
		L1Ways:    8,
		L2Sets:    1024,
		L2Ways:    8,
		LineBytes: 64,

		L1Hit:     3,
		L2Hit:     25,
		Mem:       100,
		Coherence: 15,

		// A dropped CBO.X costs the pipeline traversal alone; the
		// out-of-order core hides part of it behind neighboring loads.
		CboPipeline: 5,
		FlushL2:     30,
		FlushMem:    100,
		Fence:       20,

		ClockMHz: 50,
	}
}

// Stats counts hierarchy traffic, aggregated across threads.
type Stats struct {
	Accesses        uint64
	L1Hits          uint64
	L2Hits          uint64
	MemFills        uint64
	CoherenceMisses uint64
	Flushes         uint64 // CBO.X requests that reached the flush path
	FlushDropsL1    uint64 // dropped by the Skip It bit in L1
	FlushSkipsL2    uint64 // resolved by the L2 trivial dirty check
	FlushWrites     uint64 // writebacks that reached memory
	Fences          uint64
}

// Hierarchy is the two-level tag-only cache model shared by the simulated
// threads. It is not safe for concurrent use.
//
// Each level keeps one flat slice per field. Every set has eight lanes,
// whatever its way count, so every index is a shift: thread t's L1 set s is
// set index t<<l1SetBits | s, an L2 set's index is its number, and way w of
// set index x is lane x<<3 | w. Per lane, a way's key is its tag plus one
// (key 0 marks an invalid way). Per set, l1Tag and l2Tag hold the tag word
// and l1LRU and l2LRU the LRU matrix. Lanes at and above the way count are
// filler: their tag byte is fillerTag, never 0 and never a fingerprint, and
// their LRU row holds the filler columns, which no use clears, so it is
// never zero.
type Hierarchy struct {
	cfg    Config
	clocks []float64
	stats  Stats

	l1Key   []uint64
	l1Frame []int32 // the L2 frame (lane) holding the way's line
	l1Dirty []bool
	l1Skip  []bool
	l1Tag   []uint64
	l1LRU   []uint64

	l2Key   []uint64
	l2Dirty []bool
	// l2Dir[f*Threads+t] is 1 + the way of thread t's L1 set that holds
	// frame f's line, or 0 when thread t holds no copy.
	l2Dir []uint8
	l2Tag []uint64
	l2LRU []uint64

	// l1Ways and l2Ways have bit w set for each way w a set of that level
	// may use.
	l1Ways, l2Ways uint64

	// The power-of-two geometry as shifts and masks: a line number is
	// addr>>lineShift, its L1 set lineNo&l1SetMask and its L1 tag
	// lineNo>>l1SetBits; likewise for the L2.
	lineShift, l1SetBits, l2SetBits uint
	l1SetMask, l2SetMask            uint64
}

const (
	laneBits = 3 // a set has 1<<laneBits lanes, the most ways New accepts
	laneMask = 1<<laneBits - 1

	// fillerTag is the tag byte of a lane at or above the way count: not 0,
	// so no free-way search takes it, and without the fingerprints' high
	// bit, so no lookup matches it.
	fillerTag = 0x7f

	eachByte = 0x0101010101010101 // a byte b times eachByte is b in every byte
	low7     = 0x7f7f7f7f7f7f7f7f
)

// zeroBytes returns x with 0x80 in each byte that is zero and 0 in every
// other byte. Adding low7 to a byte's low seven bits sets its high bit when
// any of them is set, without a carry into the next byte, so no byte reads
// as zero because of its neighbours.
func zeroBytes(x uint64) uint64 { return ^(x&low7 + low7 | x | low7) }

// fingerprints returns lineNo's tag byte in every byte of a word: the high
// bit, which marks a valid way, over seven bits of a multiplicative hash of
// the whole line number. The line number fixes both levels' sets and keys,
// so one hash serves both. A FliT counter's line differs from its datum's
// only in one high bit, in the same sets, so low bits would collide on every
// such pair.
func fingerprints(lineNo uint64) uint64 {
	return (0x80 | lineNo*0x9E3779B97F4A7C15>>57) * eachByte
}

// withByte returns word with byte w set to b.
func withByte(word uint64, w int, b uint64) uint64 {
	return word&^(0xff<<(8*w)) | b<<(8*w)
}

// touch returns the LRU matrix lru with way w made the most recently used
// of ways: row w says w was used after every way, and column w cleared says
// no way was used after w.
func touch(lru uint64, w int, ways uint64) uint64 {
	return withByte(lru, w, ways) &^ (eachByte << w)
}

// find returns the lane of set index x holding key, or -1, given the set's
// tag word, the level's keys and the line's fingerprints. Ways whose
// fingerprint differs are ruled out at once; a match is confirmed on the key.
// The loop visits only matching ways: the one holding key, if any, and the
// rare way whose fingerprint matches by chance.
func find(keys []uint64, tag uint64, x int, key, fps uint64) int {
	for m := zeroBytes(tag ^ fps); m != 0; m &= m - 1 {
		if i := x<<laneBits | bits.TrailingZeros64(m)>>3; keys[i] == key {
			return i
		}
	}
	return -1
}

// victim returns the lane of set index x to fill: the first invalid way,
// else the least recently used one, whose LRU row is the only zero row
// (every valid way has been used, at its fill at the latest).
func victim(tag, lru uint64, x int) int {
	m := zeroBytes(tag)
	if m == 0 {
		m = zeroBytes(lru)
	}
	return x<<laneBits | bits.TrailingZeros64(m)>>3
}

// New builds a hierarchy for cfg.Threads threads. It panics unless the
// thread and set counts are positive, each level has 1 to 8 ways (one byte
// of the set's tag word and one row of its LRU matrix per way), and
// LineBytes, L1Sets and L2Sets are powers of two.
func New(cfg Config) *Hierarchy {
	if cfg.Threads <= 0 || cfg.L1Sets <= 0 || cfg.L2Sets <= 0 ||
		cfg.L1Ways <= 0 || cfg.L1Ways > 1<<laneBits ||
		cfg.L2Ways <= 0 || cfg.L2Ways > 1<<laneBits {
		panic("memsim: bad config")
	}
	h := &Hierarchy{
		cfg:       cfg,
		l1Ways:    1<<cfg.L1Ways - 1,
		l2Ways:    1<<cfg.L2Ways - 1,
		lineShift: log2("LineBytes", cfg.LineBytes),
		l1SetBits: log2("L1Sets", uint64(cfg.L1Sets)),
		l2SetBits: log2("L2Sets", uint64(cfg.L2Sets)),
		l1SetMask: uint64(cfg.L1Sets) - 1,
		l2SetMask: uint64(cfg.L2Sets) - 1,
	}
	l1 := cfg.Threads * cfg.L1Sets
	h.l1Key = make([]uint64, l1<<laneBits)
	h.l1Frame = make([]int32, l1<<laneBits)
	h.l1Dirty = make([]bool, l1<<laneBits)
	h.l1Skip = make([]bool, l1<<laneBits)
	h.l1Tag, h.l1LRU = setWords(l1, h.l1Ways)
	l2 := cfg.L2Sets
	h.l2Key = make([]uint64, l2<<laneBits)
	h.l2Dirty = make([]bool, l2<<laneBits)
	h.l2Dir = make([]uint8, l2<<laneBits*cfg.Threads)
	h.l2Tag, h.l2LRU = setWords(l2, h.l2Ways)
	h.clocks = make([]float64, cfg.Threads)
	return h
}

// setWords returns the tag words and LRU matrices of n empty sets whose
// real ways are ways: the lanes above them get the filler tag byte and a
// row of the filler columns.
func setWords(n int, ways uint64) (tags, lrus []uint64) {
	var tag, lru uint64
	for w := bits.Len64(ways); w <= laneMask; w++ {
		tag = withByte(tag, w, fillerTag)
		lru = withByte(lru, w, 0xff&^ways)
	}
	tags, lrus = make([]uint64, n), make([]uint64, n)
	for x := range tags {
		tags[x], lrus[x] = tag, lru
	}
	return tags, lrus
}

// log2 returns the exponent of n, panicking when n is not a power of two.
func log2(name string, n uint64) uint {
	if n == 0 || n&(n-1) != 0 {
		panic(fmt.Sprintf("memsim: %s = %d is not a power of two", name, n))
	}
	return uint(bits.TrailingZeros64(n))
}

// Config returns the configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

func (h *Hierarchy) line(addr uint64) uint64 { return addr >> h.lineShift }

// l1Set returns the set index of tid's L1 set for lineNo.
func (h *Hierarchy) l1Set(tid int, lineNo uint64) int {
	return tid<<h.l1SetBits | int(lineNo&h.l1SetMask)
}

// findL1 returns the lane of L1 set index x holding lineNo, whose
// fingerprints are fps, or -1.
func (h *Hierarchy) findL1(x int, lineNo, fps uint64) int {
	return find(h.l1Key, h.l1Tag[x], x, lineNo>>h.l1SetBits+1, fps)
}

// findL2 returns the L2 frame holding lineNo, whose fingerprints are fps, or
// -1.
func (h *Hierarchy) findL2(lineNo, fps uint64) int {
	x := int(lineNo & h.l2SetMask)
	return find(h.l2Key, h.l2Tag[x], x, lineNo>>h.l2SetBits+1, fps)
}

// frameOf returns the L2 frame holding lineNo, given own, the caller's L1
// way for it or -1. By inclusion, a line with no frame has no L1 copies.
func (h *Hierarchy) frameOf(own int, lineNo, fps uint64) int {
	if own >= 0 {
		return int(h.l1Frame[own])
	}
	return h.findL2(lineNo, fps)
}

// dir returns frame f's directory entries, one per thread.
func (h *Hierarchy) dir(f int) []uint8 {
	t := h.cfg.Threads
	return h.l2Dir[f*t : f*t+t]
}

// l1Way returns the lane a directory entry w (nonzero) names for thread t,
// in L1 set s (the set's number within a thread's L1).
func (h *Hierarchy) l1Way(t, s int, w uint8) int {
	return (t<<h.l1SetBits|s)<<laneBits | int(w-1)
}

// dropL1 invalidates L1 lane i.
func (h *Hierarchy) dropL1(i int) {
	h.l1Key[i] = 0
	h.l1Tag[i>>laneBits] = withByte(h.l1Tag[i>>laneBits], i&laneMask, 0)
}

// dropL2 invalidates L2 frame f.
func (h *Hierarchy) dropL2(f int) {
	h.l2Key[f] = 0
	h.l2Tag[f>>laneBits] = withByte(h.l2Tag[f>>laneBits], f&laneMask, 0)
}

// touchL1 makes L1 lane i its set's most recently used way.
func (h *Hierarchy) touchL1(i int) {
	x := i >> laneBits
	h.l1LRU[x] = touch(h.l1LRU[x], i&laneMask, h.l1Ways)
}

// touchL2 makes L2 frame f its set's most recently used way.
func (h *Hierarchy) touchL2(f int) {
	x := f >> laneBits
	h.l2LRU[x] = touch(h.l2LRU[x], f&laneMask, h.l2Ways)
}

// fillL1 installs lineNo, whose fingerprints are fps, held by L2 frame f, in
// tid's L1 set index x. A dirty victim's data moves into the victim's own L2
// frame, which inclusion guarantees.
func (h *Hierarchy) fillL1(tid, x int, lineNo, fps uint64, f int, dirty, skip bool) {
	v := victim(h.l1Tag[x], h.l1LRU[x], x)
	if h.l1Key[v] != 0 {
		vf := int(h.l1Frame[v])
		if h.l1Dirty[v] {
			h.l2Dirty[vf] = true
		}
		h.dir(vf)[tid] = 0
	}
	w := v & laneMask
	h.l1Key[v] = lineNo>>h.l1SetBits + 1
	h.l1Tag[x] = withByte(h.l1Tag[x], w, fps&0xff)
	h.touchL1(v)
	h.l1Frame[v] = int32(f)
	h.l1Dirty[v] = dirty
	h.l1Skip[v] = skip
	h.dir(f)[tid] = uint8(w) + 1
}

// fillL2 installs lineNo, which must be absent and whose fingerprints are
// fps, in the L2 and returns its frame. The victim's L1 copies are
// invalidated first (inclusion), their dirty data merging into the victim,
// and a dirty victim is written to memory.
func (h *Hierarchy) fillL2(lineNo, fps uint64) int {
	x := int(lineNo & h.l2SetMask)
	v := victim(h.l2Tag[x], h.l2LRU[x], x)
	if k := h.l2Key[v]; k != 0 {
		s := int(((k-1)<<h.l2SetBits | uint64(x)) & h.l1SetMask)
		dir := h.dir(v)
		for t, w := range dir {
			if w == 0 {
				continue
			}
			i := h.l1Way(t, s, w)
			if h.l1Dirty[i] {
				h.l2Dirty[v] = true
			}
			h.dropL1(i)
			dir[t] = 0
		}
		if h.l2Dirty[v] {
			h.stats.FlushWrites++ // inclusive eviction writeback
		}
	}
	h.l2Key[v] = lineNo>>h.l2SetBits + 1
	h.l2Tag[x] = withByte(h.l2Tag[x], v&laneMask, fps&0xff)
	h.l2Dirty[v] = false
	return v
}

// Access models one 8-byte load or store by thread tid, charging its virtual
// clock and updating tag/dirty/skip state.
func (h *Hierarchy) Access(tid int, addr uint64, write bool) {
	h.stats.Accesses++
	lineNo := h.line(addr)
	fps := fingerprints(lineNo)
	x := h.l1Set(tid, lineNo)

	own := h.findL1(x, lineNo, fps)
	if own >= 0 && (!write || h.l1Dirty[own]) {
		// Read hit, or write hit on a line we already own dirty.
		h.touchL1(own)
		h.clocks[tid] += h.cfg.L1Hit
		h.stats.L1Hits++
		return
	}

	// Visit the other copies. A write invalidates them (write-invalidate
	// coherence), collecting remote dirty data into L2; a read miss
	// pulls a remote dirty copy's data into L2 and leaves the copy clean.
	cost := h.cfg.L1Hit
	remoteDirty := false
	f := h.frameOf(own, lineNo, fps)
	if f >= 0 {
		s := int(lineNo & h.l1SetMask)
		dir := h.dir(f)
		for t, w := range dir {
			if w == 0 || t == tid {
				continue
			}
			i := h.l1Way(t, s, w)
			switch {
			case write:
				if h.l1Dirty[i] {
					h.l2Dirty[f] = true
					cost += h.cfg.Coherence
				}
				h.dropL1(i)
				dir[t] = 0
			case h.l1Dirty[i]:
				remoteDirty = true
				h.l2Dirty[f] = true
				h.l1Dirty[i] = false
				h.l1Skip[i] = false
			}
		}
	}

	if own >= 0 {
		// Write hit on a clean (possibly shared) line: an upgrade.
		h.l1Dirty[own] = true
		h.touchL1(own)
		h.clocks[tid] += cost + h.cfg.Coherence/2
		h.stats.L1Hits++
		return
	}

	// L1 miss: a dirty copy in another L1 is the expensive coherence
	// path; otherwise L2, otherwise memory.
	missed := f < 0
	if missed {
		f = h.fillL2(lineNo, fps)
	}
	h.touchL2(f)
	switch {
	case remoteDirty:
		cost += h.cfg.L2Hit + h.cfg.Coherence
		h.stats.CoherenceMisses++
	case missed:
		cost += h.cfg.Mem
		h.stats.MemFills++
	default:
		cost += h.cfg.L2Hit
		h.stats.L2Hits++
	}
	// GrantData vs GrantDataDirty (§6.1): the skip bit is set only when
	// the granted line is not dirty in L2.
	h.fillL1(tid, x, lineNo, fps, f, write, !h.l2Dirty[f])
	h.clocks[tid] += cost
}

// Flush models one CBO.X by thread tid. With skipItHW, a hit on a clean line
// with the skip bit set is dropped at the L1 for the pipeline cost alone
// (§6.1). Otherwise the request resolves at the L2 (trivially skipped when
// nothing is dirty, §5.5) or writes the line back to memory. clean selects
// CBO.CLEAN semantics (copies survive) vs CBO.FLUSH (copies invalidated).
func (h *Hierarchy) Flush(tid int, addr uint64, clean, skipItHW bool) {
	h.stats.Flushes++
	lineNo := h.line(addr)
	fps := fingerprints(lineNo)

	own := h.findL1(h.l1Set(tid, lineNo), lineNo, fps)
	if skipItHW && own >= 0 && !h.l1Dirty[own] && h.l1Skip[own] {
		h.clocks[tid] += h.cfg.CboPipeline
		h.stats.FlushDropsL1++
		return
	}

	// Collect dirtiness across the hierarchy.
	dirty := false
	if f := h.frameOf(own, lineNo, fps); f >= 0 {
		s := int(lineNo & h.l1SetMask)
		dir := h.dir(f)
		for t, w := range dir {
			if w == 0 {
				continue
			}
			i := h.l1Way(t, s, w)
			if h.l1Dirty[i] {
				dirty = true
			}
			h.l1Dirty[i] = false
			if clean {
				h.l1Skip[i] = t == tid // §6.1: the requester's ack sets its bit
			} else {
				h.dropL1(i)
				dir[t] = 0
			}
		}
		if h.l2Dirty[f] {
			dirty = true
		}
		h.l2Dirty[f] = false
		if !clean {
			h.dropL2(f)
		}
	}

	if dirty {
		h.clocks[tid] += h.cfg.CboPipeline + h.cfg.FlushMem
		h.stats.FlushWrites++
	} else {
		h.clocks[tid] += h.cfg.CboPipeline + h.cfg.FlushL2
		h.stats.FlushSkipsL2++
	}
}

// Fence charges the fence cost to tid's clock.
func (h *Hierarchy) Fence(tid int) {
	h.stats.Fences++
	h.clocks[tid] += h.cfg.Fence
}

// AddCycles charges raw compute cycles (bit masking, counter arithmetic in
// software elision schemes) to tid's clock.
func (h *Hierarchy) AddCycles(tid int, c float64) {
	h.clocks[tid] += c
}

// DirtyAnywhere reports whether addr's line holds unpersisted data in any
// cache level — the predicate a correct flush-elision scheme must respect.
func (h *Hierarchy) DirtyAnywhere(addr uint64) bool {
	lineNo := h.line(addr)
	f := h.findL2(lineNo, fingerprints(lineNo))
	if f < 0 {
		return false
	}
	if h.l2Dirty[f] {
		return true
	}
	s := int(lineNo & h.l1SetMask)
	for t, w := range h.dir(f) {
		if w != 0 && h.l1Dirty[h.l1Way(t, s, w)] {
			return true
		}
	}
	return false
}

// Clock returns tid's virtual cycle count.
func (h *Hierarchy) Clock(tid int) float64 {
	return h.clocks[tid]
}

// MaxSeconds converts the slowest thread's clock to seconds.
func (h *Hierarchy) MaxSeconds() float64 {
	max := 0.0
	for _, c := range h.clocks {
		if c > max {
			max = c
		}
	}
	return max / (h.cfg.ClockMHz * 1e6)
}

// Stats returns aggregated counters.
func (h *Hierarchy) Stats() Stats {
	return h.stats
}

// ResetClocks zeroes the virtual clocks and the Stats counters while keeping
// cache state, so a measurement can start after a warm-up: the §7.4 prefill
// (package bench) calls it before it hands the warm hierarchy to the timed
// phase, so a point's Flushes and Elided count the timed phase alone.
func (h *Hierarchy) ResetClocks() {
	for i := range h.clocks {
		h.clocks[i] = 0
	}
	h.stats = Stats{}
}

// Clone returns a copy of h that shares no state with it: cache contents,
// directory, tag words, LRU matrices, clocks and Stats are copied, and what one of the two
// does later leaves the other as it was. Several §7.4 points that warm up
// alike each run on a clone of one prefilled hierarchy.
func (h *Hierarchy) Clone() *Hierarchy {
	c := *h
	c.clocks = slices.Clone(h.clocks)
	c.l1Key = slices.Clone(h.l1Key)
	c.l1Frame = slices.Clone(h.l1Frame)
	c.l1Dirty = slices.Clone(h.l1Dirty)
	c.l1Skip = slices.Clone(h.l1Skip)
	c.l1Tag = slices.Clone(h.l1Tag)
	c.l1LRU = slices.Clone(h.l1LRU)
	c.l2Key = slices.Clone(h.l2Key)
	c.l2Dirty = slices.Clone(h.l2Dirty)
	c.l2Dir = slices.Clone(h.l2Dir)
	c.l2Tag = slices.Clone(h.l2Tag)
	c.l2LRU = slices.Clone(h.l2LRU)
	return &c
}

func (h *Hierarchy) String() string {
	return fmt.Sprintf("memsim.Hierarchy{threads=%d l1=%dKiB l2=%dKiB}",
		h.cfg.Threads,
		h.cfg.L1Sets*h.cfg.L1Ways*int(h.cfg.LineBytes)/1024,
		h.cfg.L2Sets*h.cfg.L2Ways*int(h.cfg.LineBytes)/1024)
}
