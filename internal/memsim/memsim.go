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

// Config sets geometry and the cycle-cost model. The costs are calibrated
// against the cycle-accurate simulator in package sim (see EXPERIMENTS.md).
type Config struct {
	Threads   int
	L1Sets    int // per-thread L1: 64x8x64B = 32 KiB
	L1Ways    int
	L2Sets    int // shared L2: 1024x8x64B = 512 KiB
	L2Ways    int
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
// L1s and a shared 512 KiB L2 at 50 MHz, with costs matching the calibrated
// cycle simulator.
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
// Each level keeps one flat slice per field. A way's key is its tag plus
// one, so key 0 marks an invalid way. Thread t's L1 way w of set s sits at
// index t*l1Size + s*L1Ways + w; L2 frame w of set s at s*L2Ways + w.
type Hierarchy struct {
	cfg    Config
	clocks []float64
	tick   uint64
	stats  Stats

	l1Key   []uint64
	l1Used  []uint64
	l1Frame []int32 // the L2 frame holding the way's line
	l1Dirty []bool
	l1Skip  []bool
	l1Size  int // L1 ways per thread

	l2Key   []uint64
	l2Used  []uint64
	l2Dirty []bool
	// l2Dir[f*Threads+t] is 1 + the way of thread t's L1 set that holds
	// frame f's line, or 0 when thread t holds no copy.
	l2Dir []uint8

	// The power-of-two geometry as shifts and masks: a line number is
	// addr>>lineShift, its L1 set lineNo&l1SetMask and its L1 tag
	// lineNo>>l1SetBits; likewise for the L2.
	lineShift, l1SetBits, l2SetBits uint
	l1SetMask, l2SetMask            uint64
}

// New builds a hierarchy for cfg.Threads threads. It panics unless the
// thread, set and way counts are positive, L1Ways is at most 255 (the
// directory's per-thread entry is one byte), and LineBytes, L1Sets and
// L2Sets are powers of two.
func New(cfg Config) *Hierarchy {
	if cfg.Threads <= 0 || cfg.L1Sets <= 0 || cfg.L2Sets <= 0 ||
		cfg.L1Ways <= 0 || cfg.L1Ways > 255 || cfg.L2Ways <= 0 {
		panic("memsim: bad config")
	}
	h := &Hierarchy{
		cfg:       cfg,
		lineShift: log2("LineBytes", cfg.LineBytes),
		l1SetBits: log2("L1Sets", uint64(cfg.L1Sets)),
		l2SetBits: log2("L2Sets", uint64(cfg.L2Sets)),
		l1SetMask: uint64(cfg.L1Sets) - 1,
		l2SetMask: uint64(cfg.L2Sets) - 1,
	}
	h.l1Size = cfg.L1Sets * cfg.L1Ways
	l1 := cfg.Threads * h.l1Size
	h.l1Key = make([]uint64, l1)
	h.l1Used = make([]uint64, l1)
	h.l1Frame = make([]int32, l1)
	h.l1Dirty = make([]bool, l1)
	h.l1Skip = make([]bool, l1)
	l2 := cfg.L2Sets * cfg.L2Ways
	h.l2Key = make([]uint64, l2)
	h.l2Used = make([]uint64, l2)
	h.l2Dirty = make([]bool, l2)
	h.l2Dir = make([]uint8, l2*cfg.Threads)
	h.clocks = make([]float64, cfg.Threads)
	return h
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

// l1SetOff is lineNo's L1 set offset within any thread's L1.
func (h *Hierarchy) l1SetOff(lineNo uint64) int {
	return int(lineNo&h.l1SetMask) * h.cfg.L1Ways
}

// findL1 returns the index of tid's L1 way holding lineNo, or -1.
func (h *Hierarchy) findL1(tid int, lineNo uint64) int {
	base := tid*h.l1Size + h.l1SetOff(lineNo)
	key := lineNo>>h.l1SetBits + 1
	for i, k := range h.l1Key[base : base+h.cfg.L1Ways] {
		if k == key {
			return base + i
		}
	}
	return -1
}

// findL2 returns the L2 frame holding lineNo, or -1.
func (h *Hierarchy) findL2(lineNo uint64) int {
	base := int(lineNo&h.l2SetMask) * h.cfg.L2Ways
	key := lineNo>>h.l2SetBits + 1
	for i, k := range h.l2Key[base : base+h.cfg.L2Ways] {
		if k == key {
			return base + i
		}
	}
	return -1
}

// frameOf returns the L2 frame holding lineNo, given own, the caller's L1
// way for it or -1. By inclusion, a line with no frame has no L1 copies.
func (h *Hierarchy) frameOf(own int, lineNo uint64) int {
	if own >= 0 {
		return int(h.l1Frame[own])
	}
	return h.findL2(lineNo)
}

// dir returns frame f's directory entries, one per thread.
func (h *Hierarchy) dir(f int) []uint8 {
	t := h.cfg.Threads
	return h.l2Dir[f*t : f*t+t]
}

// l1Way returns the index of the L1 way a directory entry w (nonzero) names
// for thread t, in the L1 set at offset set.
func (h *Hierarchy) l1Way(t, set int, w uint8) int {
	return t*h.l1Size + set + int(w) - 1
}

// lruWay returns the way to fill among ways[base:base+n]: the first invalid
// one, else the least recently used.
func lruWay(keys, used []uint64, base, n int) int {
	v := base
	for i := base; i < base+n; i++ {
		if keys[i] == 0 {
			return i
		}
		if used[i] < used[v] {
			v = i
		}
	}
	return v
}

// fillL1 installs lineNo, held by L2 frame f, in tid's L1. A dirty victim's
// data moves into the victim's own L2 frame, which inclusion guarantees.
func (h *Hierarchy) fillL1(tid int, lineNo uint64, f int, dirty, skip bool) {
	base := tid*h.l1Size + h.l1SetOff(lineNo)
	v := lruWay(h.l1Key, h.l1Used, base, h.cfg.L1Ways)
	if h.l1Key[v] != 0 {
		vf := int(h.l1Frame[v])
		if h.l1Dirty[v] {
			h.l2Dirty[vf] = true
		}
		h.dir(vf)[tid] = 0
	}
	h.l1Key[v] = lineNo>>h.l1SetBits + 1
	h.l1Used[v] = h.tick
	h.l1Frame[v] = int32(f)
	h.l1Dirty[v] = dirty
	h.l1Skip[v] = skip
	h.dir(f)[tid] = uint8(v-base) + 1
}

// fillL2 installs lineNo, which must be absent, in the L2 and returns its
// frame. The victim's L1 copies are invalidated first (inclusion), their
// dirty data merging into the victim, and a dirty victim is written to
// memory.
func (h *Hierarchy) fillL2(lineNo uint64) int {
	base := int(lineNo&h.l2SetMask) * h.cfg.L2Ways
	v := lruWay(h.l2Key, h.l2Used, base, h.cfg.L2Ways)
	if k := h.l2Key[v]; k != 0 {
		set := h.l1SetOff((k-1)<<h.l2SetBits | lineNo&h.l2SetMask)
		dir := h.dir(v)
		for t, w := range dir {
			if w == 0 {
				continue
			}
			i := h.l1Way(t, set, w)
			if h.l1Dirty[i] {
				h.l2Dirty[v] = true
			}
			h.l1Key[i] = 0
			dir[t] = 0
		}
		if h.l2Dirty[v] {
			h.stats.FlushWrites++ // inclusive eviction writeback
		}
	}
	h.l2Key[v] = lineNo>>h.l2SetBits + 1
	h.l2Dirty[v] = false
	return v
}

// Access models one 8-byte load or store by thread tid, charging its virtual
// clock and updating tag/dirty/skip state.
func (h *Hierarchy) Access(tid int, addr uint64, write bool) {
	h.tick++
	h.stats.Accesses++
	lineNo := h.line(addr)

	own := h.findL1(tid, lineNo)
	if own >= 0 && (!write || h.l1Dirty[own]) {
		// Read hit, or write hit on a line we already own dirty.
		h.l1Used[own] = h.tick
		h.clocks[tid] += h.cfg.L1Hit
		h.stats.L1Hits++
		return
	}

	// Visit the other copies. A write invalidates them (write-invalidate
	// coherence), collecting remote dirty data into L2; a read miss
	// pulls a remote dirty copy's data into L2 and leaves the copy clean.
	cost := h.cfg.L1Hit
	remoteDirty := false
	f := h.frameOf(own, lineNo)
	if f >= 0 {
		set := h.l1SetOff(lineNo)
		dir := h.dir(f)
		for t, w := range dir {
			if w == 0 || t == tid {
				continue
			}
			i := h.l1Way(t, set, w)
			switch {
			case write:
				if h.l1Dirty[i] {
					h.l2Dirty[f] = true
					cost += h.cfg.Coherence
				}
				h.l1Key[i] = 0
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
		h.l1Used[own] = h.tick
		h.clocks[tid] += cost + h.cfg.Coherence/2
		h.stats.L1Hits++
		return
	}

	// L1 miss: a dirty copy in another L1 is the expensive coherence
	// path; otherwise L2, otherwise memory.
	missed := f < 0
	if missed {
		f = h.fillL2(lineNo)
	}
	h.l2Used[f] = h.tick
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
	h.fillL1(tid, lineNo, f, write, !h.l2Dirty[f])
	h.clocks[tid] += cost
}

// Flush models one CBO.X by thread tid. With skipItHW, a hit on a clean line
// with the skip bit set is dropped at the L1 for the pipeline cost alone
// (§6.1). Otherwise the request resolves at the L2 (trivially skipped when
// nothing is dirty, §5.5) or writes the line back to memory. clean selects
// CBO.CLEAN semantics (copies survive) vs CBO.FLUSH (copies invalidated).
func (h *Hierarchy) Flush(tid int, addr uint64, clean, skipItHW bool) {
	h.tick++
	h.stats.Flushes++
	lineNo := h.line(addr)

	own := h.findL1(tid, lineNo)
	if skipItHW && own >= 0 && !h.l1Dirty[own] && h.l1Skip[own] {
		h.clocks[tid] += h.cfg.CboPipeline
		h.stats.FlushDropsL1++
		return
	}

	// Collect dirtiness across the hierarchy.
	dirty := false
	if f := h.frameOf(own, lineNo); f >= 0 {
		set := h.l1SetOff(lineNo)
		dir := h.dir(f)
		for t, w := range dir {
			if w == 0 {
				continue
			}
			i := h.l1Way(t, set, w)
			if h.l1Dirty[i] {
				dirty = true
			}
			h.l1Dirty[i] = false
			if clean {
				h.l1Skip[i] = t == tid // §6.1: the requester's ack sets its bit
			} else {
				h.l1Key[i] = 0
				dir[t] = 0
			}
		}
		if h.l2Dirty[f] {
			dirty = true
		}
		h.l2Dirty[f] = false
		if !clean {
			h.l2Key[f] = 0
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
	f := h.findL2(lineNo)
	if f < 0 {
		return false
	}
	if h.l2Dirty[f] {
		return true
	}
	set := h.l1SetOff(lineNo)
	for t, w := range h.dir(f) {
		if w != 0 && h.l1Dirty[h.l1Way(t, set, w)] {
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
// directory, LRU ages, clocks and Stats are copied, and what one of the two
// does later leaves the other as it was. Several §7.4 points that warm up
// alike each run on a clone of one prefilled hierarchy.
func (h *Hierarchy) Clone() *Hierarchy {
	c := *h
	c.clocks = slices.Clone(h.clocks)
	c.l1Key = slices.Clone(h.l1Key)
	c.l1Used = slices.Clone(h.l1Used)
	c.l1Frame = slices.Clone(h.l1Frame)
	c.l1Dirty = slices.Clone(h.l1Dirty)
	c.l1Skip = slices.Clone(h.l1Skip)
	c.l2Key = slices.Clone(h.l2Key)
	c.l2Used = slices.Clone(h.l2Used)
	c.l2Dirty = slices.Clone(h.l2Dirty)
	c.l2Dir = slices.Clone(h.l2Dir)
	return &c
}

func (h *Hierarchy) String() string {
	return fmt.Sprintf("memsim.Hierarchy{threads=%d l1=%dKiB l2=%dKiB}",
		h.cfg.Threads,
		h.cfg.L1Sets*h.cfg.L1Ways*int(h.cfg.LineBytes)/1024,
		h.cfg.L2Sets*h.cfg.L2Ways*int(h.cfg.LineBytes)/1024)
}
