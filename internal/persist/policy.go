// Package persist implements the software side of the paper's §7.4 study:
// the four flush-elision schemes compared against Skip It — plain (no
// elision), FliT with adjacent counters, FliT with a hash-table of counters
// [Wei et al., PPoPP'22], and link-and-persist [David et al., ATC'18] — plus
// the three persistence algorithms they are evaluated under (automatic,
// NVTraverse, manual).
//
// Every scheme is expressed over the memsim hierarchy, so its costs are the
// cache traffic it really generates: FliT's counters occupy cache lines,
// link-and-persist pays a masking instruction on every load, and Skip It
// pays nothing in software but one pipeline traversal per (possibly dropped)
// CBO.X.
//
// Like the hierarchy under them, the policies are single-goroutine: their
// bookkeeping (FliT's counters, link-and-persist's marks) is plain maps. The
// figure runs call them from one goroutine, interleaving simulated threads
// by tid; a caller that drives a policy from several goroutines wraps it in
// Locked, the one lock of the ds → persist → memsim stack.
package persist

import (
	"fmt"
	"sync"

	"skipit/internal/memsim"
)

// Policy is one flush-elision scheme. Data structures never call memsim
// directly for persistent memory; they go through a Policy so each scheme
// charges its true overhead.
type Policy interface {
	Name() string
	// Load reads the 8-byte word at addr.
	Load(tid int, addr uint64)
	// Store writes the 8-byte word at addr.
	Store(tid int, addr uint64)
	// Flush requests a writeback of addr's line; the scheme may elide it
	// when it can prove the line is already persisted.
	Flush(tid int, addr uint64)
	// Fence orders previously issued writebacks.
	Fence(tid int)
	// NodePad returns the extra bytes per allocated object the scheme
	// requires (FliT adjacent doubles object footprints).
	NodePad() uint64
}

// Locked returns p with every method call serialized by one mutex, for
// callers that drive a policy from several goroutines (the lock-free
// structures' concurrency tests). It is the stack's one lock: it holds for a
// whole Policy call, so another thread never observes a call half done — a
// FliT store's in-flight counter is never seen by a concurrent flush, as in
// the round-robin interleaving of the figure runs. Every call that reaches
// p's hierarchy must go through the same Locked value: two policies that
// share a hierarchy must not run concurrently, even when each is Locked.
func Locked(p Policy) Policy { return &locked{p: p} }

type locked struct {
	mu sync.Mutex
	p  Policy
}

func (l *locked) Name() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.p.Name()
}

func (l *locked) Load(tid int, addr uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.p.Load(tid, addr)
}

func (l *locked) Store(tid int, addr uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.p.Store(tid, addr)
}

func (l *locked) Flush(tid int, addr uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.p.Flush(tid, addr)
}

func (l *locked) Fence(tid int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.p.Fence(tid)
}

func (l *locked) NodePad() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.p.NodePad()
}

// --- plain: every flush goes out, no bookkeeping ---

// Plain issues every requested writeback; it is the paper's "plain"
// baseline.
type Plain struct {
	H *memsim.Hierarchy
	// SkipItHW selects the hardware: Plain over Skip It hardware is the
	// "Skip It" configuration of Figures 14–16 (zero software overhead;
	// the L1 drops redundant writebacks).
	SkipItHW bool
	// Clean selects CBO.CLEAN (the §7.4 data-structure benchmarks use
	// CBO.FLUSH; see EXPERIMENTS.md).
	Clean bool
}

// Name identifies the configuration in benchmark output.
func (p *Plain) Name() string {
	if p.SkipItHW {
		return "skipit"
	}
	return "plain"
}

func (p *Plain) Load(tid int, addr uint64)  { p.H.Access(tid, addr, false) }
func (p *Plain) Store(tid int, addr uint64) { p.H.Access(tid, addr, true) }
func (p *Plain) Flush(tid int, addr uint64) { p.H.Flush(tid, addr, p.Clean, p.SkipItHW) }
func (p *Plain) Fence(tid int)              { p.H.Fence(tid) }
func (p *Plain) NodePad() uint64            { return 0 }

// NewPlain returns the no-elision baseline.
func NewPlain(h *memsim.Hierarchy, clean bool) *Plain {
	return &Plain{H: h, Clean: clean}
}

// NewSkipIt returns plain software over Skip It hardware.
func NewSkipIt(h *memsim.Hierarchy, clean bool) *Plain {
	return &Plain{H: h, SkipItHW: true, Clean: clean}
}

// --- FliT ---

// FliT tracks a counter of in-flight (unflushed) stores per location. A
// persistent store increments the counter, writes, flushes eagerly, and
// decrements; a flush request from anyone else is elided when the counter is
// zero, because the storing thread already persisted the data. Adjacent mode
// places each counter next to its datum (doubling object footprints); hash
// mode places counters in a fixed-size table (collisions cause spurious
// flushes but never missed ones, since counters only reach zero when every
// colliding store has flushed).
//
// The model keeps only the non-zero counters, keyed by table index: a
// counter is non-zero only while a Store is in flight, so the tables the
// scheme would hold in memory are almost entirely zero. Their cache traffic
// is charged at the counters' simulated addresses all the same.
type FliT struct {
	H *memsim.Hierarchy
	// Adjacent selects per-object counters; otherwise the hash table.
	Adjacent bool
	// TableEntries sizes the counter hash table (Fig. 16 sweeps this).
	TableEntries uint64
	// TableBase is the simulated address of the counter table.
	TableBase uint64
	Clean     bool

	counters map[uint64]int64 // table index -> in-flight stores, if non-zero
}

// NewFliT builds a FliT policy. For hash mode, tableEntries counters live at
// tableBase in the simulated address space.
func NewFliT(h *memsim.Hierarchy, adjacent bool, tableEntries uint64, tableBase uint64, clean bool) *FliT {
	if !adjacent && tableEntries == 0 {
		panic("persist: FliT hash table needs entries")
	}
	return &FliT{
		H:            h,
		Adjacent:     adjacent,
		TableEntries: tableEntries,
		TableBase:    tableBase,
		Clean:        clean,
		counters:     map[uint64]int64{},
	}
}

// Name identifies the configuration in benchmark output.
func (f *FliT) Name() string {
	if f.Adjacent {
		return "flit-adjacent"
	}
	return fmt.Sprintf("flit-hash[%d]", f.TableEntries)
}

func (f *FliT) slot(addr uint64) (idx uint64, counterAddr uint64) {
	line := addr / 64
	if f.Adjacent {
		// The counter sits in the object's padding: same cache set
		// behavior as the datum, modeled as a shadow word in a
		// parallel region so the data line itself stays clean after a
		// flush. Its index is a 22-bit hash of the line, collision-free
		// enough to stand for a counter per object.
		return (line * 0x9E3779B97F4A7C15) >> 42, addr ^ (1 << 40)
	}
	idx = (line * 0x9E3779B97F4A7C15) % f.TableEntries
	return idx, f.TableBase + idx*8
}

// checkCycles is the arithmetic cost of locating a counter: hash mode
// computes a multiplicative hash and table index per check; adjacent mode
// only offsets a pointer.
func (f *FliT) checkCycles() float64 {
	if f.Adjacent {
		return 1
	}
	return 3
}

func (f *FliT) Load(tid int, addr uint64) { f.H.Access(tid, addr, false) }

func (f *FliT) Store(tid int, addr uint64) {
	idx, caddr := f.slot(addr)
	f.H.AddCycles(tid, f.checkCycles())
	// counter++ (a write to the counter's line), data store, eager
	// flush, counter--. The second counter touch hits in L1.
	f.counters[idx]++
	f.H.Access(tid, caddr, true)
	f.H.Access(tid, addr, true)
	f.H.Flush(tid, addr, f.Clean, false)
	if n := f.counters[idx] - 1; n != 0 {
		f.counters[idx] = n
	} else {
		delete(f.counters, idx)
	}
	f.H.Access(tid, caddr, true)
}

func (f *FliT) Flush(tid int, addr uint64) {
	idx, caddr := f.slot(addr)
	f.H.AddCycles(tid, f.checkCycles())
	// Read the counter (real cache traffic); flush only if a store is in
	// flight.
	f.H.Access(tid, caddr, false)
	if f.counters[idx] != 0 {
		f.H.Flush(tid, addr, f.Clean, false)
	}
}

func (f *FliT) Fence(tid int) { f.H.Fence(tid) }

// NodePad doubles object footprints in adjacent mode.
func (f *FliT) NodePad() uint64 {
	if f.Adjacent {
		return 32
	}
	return 0
}

// --- link-and-persist ---

// LinkAndPersist steals bit 63 of each data word as a "not yet persisted"
// mark [David et al., ATC'18]: a store sets the mark for free (same word), a
// flush checks it (the word is typically already loaded — one masking cycle)
// and elides the writeback when clear, and every load pays a masking cycle
// to strip the mark. It is inapplicable to structures that use high pointer
// bits for their own logic (the BST, §7.4).
type LinkAndPersist struct {
	H     *memsim.Hierarchy
	Clean bool

	marks map[uint64]struct{} // word addresses with a pending mark
}

// NewLinkAndPersist builds the policy.
func NewLinkAndPersist(h *memsim.Hierarchy, clean bool) *LinkAndPersist {
	return &LinkAndPersist{H: h, Clean: clean, marks: map[uint64]struct{}{}}
}

// Name identifies the configuration in benchmark output.
func (l *LinkAndPersist) Name() string { return "link-and-persist" }

// MaskCycles is the per-load cost of stripping the stolen bit.
const MaskCycles = 1

func (l *LinkAndPersist) Load(tid int, addr uint64) {
	l.H.Access(tid, addr, false)
	l.H.AddCycles(tid, MaskCycles)
}

func (l *LinkAndPersist) Store(tid int, addr uint64) {
	// The mark rides in the stored word: no extra memory traffic.
	l.marks[addr] = struct{}{}
	l.H.Access(tid, addr, true)
}

func (l *LinkAndPersist) Flush(tid int, addr uint64) {
	// The caller has the word in hand; testing the bit costs a cycle.
	l.H.AddCycles(tid, MaskCycles)
	if _, marked := l.marks[addr]; !marked {
		return
	}
	delete(l.marks, addr)
	l.H.Flush(tid, addr, l.Clean, false)
	// Clearing the mark is a CAS on the word. Only the stolen bit
	// changes — it is not persistent data — so the line is not re-marked
	// dirty in the model; the CAS costs a hit-latency touch.
	l.H.Access(tid, addr, false)
	l.H.AddCycles(tid, 2)
}

func (l *LinkAndPersist) Fence(tid int) { l.H.Fence(tid) }

// NodePad is zero: the mark lives inside existing words.
func (l *LinkAndPersist) NodePad() uint64 { return 0 }
