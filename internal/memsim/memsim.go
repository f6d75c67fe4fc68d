// Package memsim is the fast behavioral memory model under the software
// persistence study (Figures 14–16). Where package sim models the SoC cycle
// by cycle, memsim models only what drives those figures' throughput
// differences: cache capacity (tag-only set-associative L1 per thread plus a
// shared L2), coherence (write-invalidate), per-line dirty/persisted state
// including the Skip It bit, and a virtual cycle clock per thread that every
// access and writeback charges.
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

type l1Line struct {
	valid bool
	tag   uint64
	dirty bool
	skip  bool
	used  uint64
}

type l2Line struct {
	valid bool
	tag   uint64
	dirty bool
	used  uint64
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
type Hierarchy struct {
	cfg    Config
	l1     [][]l1Line // [thread][set*ways+way]
	l2     []l2Line
	clocks []float64
	tick   uint64
	stats  Stats

	// The power-of-two geometry as shifts and masks: a line number is
	// addr>>lineShift, its L1 set lineNo&l1SetMask and its L1 tag
	// lineNo>>l1SetBits; likewise for the L2.
	lineShift, l1SetBits, l2SetBits uint
	l1SetMask, l2SetMask            uint64
}

// New builds a hierarchy for cfg.Threads threads. It panics unless the
// thread and set counts are positive and LineBytes, L1Sets and L2Sets
// are powers of two.
func New(cfg Config) *Hierarchy {
	if cfg.Threads <= 0 || cfg.L1Sets <= 0 || cfg.L2Sets <= 0 {
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
	h.l1 = make([][]l1Line, cfg.Threads)
	for t := range h.l1 {
		h.l1[t] = make([]l1Line, cfg.L1Sets*cfg.L1Ways)
	}
	h.l2 = make([]l2Line, cfg.L2Sets*cfg.L2Ways)
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

func (h *Hierarchy) l1Slot(lineNo uint64) (setBase int, tag uint64) {
	return int(lineNo&h.l1SetMask) * h.cfg.L1Ways, lineNo >> h.l1SetBits
}

func (h *Hierarchy) l2Slot(lineNo uint64) (setBase int, tag uint64) {
	return int(lineNo&h.l2SetMask) * h.cfg.L2Ways, lineNo >> h.l2SetBits
}

func (h *Hierarchy) findL1(tid int, lineNo uint64) *l1Line {
	base, tag := h.l1Slot(lineNo)
	ways := h.l1[tid][base : base+h.cfg.L1Ways]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			return &ways[i]
		}
	}
	return nil
}

func (h *Hierarchy) findL2(lineNo uint64) *l2Line {
	base, tag := h.l2Slot(lineNo)
	ways := h.l2[base : base+h.cfg.L2Ways]
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			return &ways[i]
		}
	}
	return nil
}

// victimL1 returns the way to fill for lineNo in tid's L1, evicting as
// needed (dirty victims move their dirty bit into L2).
func (h *Hierarchy) victimL1(tid int, lineNo uint64) *l1Line {
	base, tag := h.l1Slot(lineNo)
	ways := h.l1[tid][base : base+h.cfg.L1Ways]
	var victim *l1Line
	for i := range ways {
		if !ways[i].valid {
			victim = &ways[i]
			break
		}
		if victim == nil || ways[i].used < victim.used {
			victim = &ways[i]
		}
	}
	if victim.valid && victim.dirty {
		// Victim writeback: the dirty data lands in L2 (inclusive).
		victimLine := victim.tag<<h.l1SetBits | lineNo&h.l1SetMask
		if l2 := h.findL2(victimLine); l2 != nil {
			l2.dirty = true
		} else {
			// The L2 lost the line (inclusive eviction is modeled
			// lazily); treat the victim as persisted via memory.
			h.stats.FlushWrites++
		}
	}
	victim.valid = false
	victim.tag = tag
	return victim
}

// fillL2 ensures lineNo is resident in L2, returning the entry and whether
// it missed. A dirty L2 victim is written to memory; L1 copies of the victim
// are invalidated (inclusion).
func (h *Hierarchy) fillL2(lineNo uint64) (*l2Line, bool) {
	if l := h.findL2(lineNo); l != nil {
		return l, false
	}
	base, tag := h.l2Slot(lineNo)
	ways := h.l2[base : base+h.cfg.L2Ways]
	var victim *l2Line
	for i := range ways {
		if !ways[i].valid {
			victim = &ways[i]
			break
		}
		if victim == nil || ways[i].used < victim.used {
			victim = &ways[i]
		}
	}
	if victim.valid {
		victimLine := victim.tag<<h.l2SetBits | lineNo&h.l2SetMask
		for t := 0; t < h.cfg.Threads; t++ {
			if l1 := h.findL1(t, victimLine); l1 != nil {
				if l1.dirty {
					victim.dirty = true
				}
				l1.valid = false
			}
		}
		if victim.dirty {
			h.stats.FlushWrites++ // inclusive eviction writeback
		}
	}
	victim.valid = true
	victim.tag = tag
	victim.dirty = false
	return victim, true
}

// Access models one 8-byte load or store by thread tid, charging its virtual
// clock and updating tag/dirty/skip state.
func (h *Hierarchy) Access(tid int, addr uint64, write bool) {
	h.tick++
	h.stats.Accesses++
	lineNo := h.line(addr)

	own := h.findL1(tid, lineNo)
	if own != nil && (!write || own.dirty) {
		// Read hit, or write hit on a line we already own dirty.
		own.used = h.tick
		if write {
			own.dirty = true
		}
		h.clocks[tid] += h.cfg.L1Hit
		h.stats.L1Hits++
		return
	}

	cost := h.cfg.L1Hit
	if write {
		// Invalidate every other copy (write-invalidate coherence),
		// collecting remote dirty data into L2.
		for t := 0; t < h.cfg.Threads; t++ {
			if t == tid {
				continue
			}
			if other := h.findL1(t, lineNo); other != nil {
				if other.dirty {
					l2, _ := h.fillL2(lineNo)
					l2.dirty = true
					cost += h.cfg.Coherence
				}
				other.valid = false
			}
		}
	}

	if own != nil {
		// Write hit on a clean (possibly shared) line: an upgrade.
		own.dirty = true
		own.used = h.tick
		h.clocks[tid] += cost + h.cfg.Coherence/2
		h.stats.L1Hits++
		return
	}

	// L1 miss: find the data. A dirty copy in another L1 is the expensive
	// coherence path; otherwise L2, otherwise memory.
	skip := true
	var remoteDirty bool
	for t := 0; t < h.cfg.Threads; t++ {
		if t == tid {
			continue
		}
		if other := h.findL1(t, lineNo); other != nil && other.dirty {
			remoteDirty = true
			l2, _ := h.fillL2(lineNo)
			l2.dirty = true
			other.dirty = false
			other.skip = false
			if write {
				other.valid = false
			}
		}
	}
	l2, missed := h.fillL2(lineNo)
	l2.used = h.tick
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
	skip = !l2.dirty

	v := h.victimL1(tid, lineNo)
	v.valid = true
	v.dirty = write
	v.skip = skip
	v.used = h.tick
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
	if skipItHW && own != nil && !own.dirty && own.skip {
		h.clocks[tid] += h.cfg.CboPipeline
		h.stats.FlushDropsL1++
		return
	}

	// Collect dirtiness across the hierarchy.
	dirty := false
	for t := 0; t < h.cfg.Threads; t++ {
		if l := h.findL1(t, lineNo); l != nil {
			if l.dirty {
				dirty = true
			}
			l.dirty = false
			if clean {
				l.skip = t == tid // §6.1: the requester's ack sets its bit
			} else {
				l.valid = false
			}
		}
	}
	l2 := h.findL2(lineNo)
	if l2 != nil {
		if l2.dirty {
			dirty = true
		}
		l2.dirty = false
		if !clean {
			l2.valid = false
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
	for t := 0; t < h.cfg.Threads; t++ {
		if l := h.findL1(t, lineNo); l != nil && l.dirty {
			return true
		}
	}
	if l := h.findL2(lineNo); l != nil && l.dirty {
		return true
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

// ResetClocks zeroes the virtual clocks (e.g. after warmup) while keeping
// cache state.
func (h *Hierarchy) ResetClocks() {
	for i := range h.clocks {
		h.clocks[i] = 0
	}
	h.stats = Stats{}
}

func (h *Hierarchy) String() string {
	return fmt.Sprintf("memsim.Hierarchy{threads=%d l1=%dKiB l2=%dKiB}",
		h.cfg.Threads,
		h.cfg.L1Sets*h.cfg.L1Ways*int(h.cfg.LineBytes)/1024,
		h.cfg.L2Sets*h.cfg.L2Ways*int(h.cfg.LineBytes)/1024)
}
