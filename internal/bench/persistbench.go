package bench

import (
	"fmt"
	"math/rand"

	"skipit/internal/ds"
	"skipit/internal/memsim"
	"skipit/internal/persist"
	"skipit/internal/sweep"
)

// Workload parameters for the §7.4 data-structure study. The paper runs two
// threads for 2 s wall-clock; we run a fixed operation count in virtual
// time, interleaved round-robin across the simulated threads at operation
// granularity, which keeps the coherence contention the figures depend on
// while making every run bit-reproducible — the property the tolerance-0
// regression gate is built on. Sizes follow the paper (BST with
// 10k keys, Fig. 16); the list is smaller because O(n) traversals dominate
// otherwise, as in the original FliT/NVTraverse evaluations.
var (
	PersistThreads   = 2
	PersistOpsPerThr = 20_000
	ListKeys         = uint64(512)
	HashKeys         = uint64(8192)
	TreeKeys         = uint64(10_000)
	HashBuckets      = 1024
	FliTDefaultTable = uint64(1 << 20)
)

// PolicyKind enumerates the §7.4 flush-elision schemes.
type PolicyKind int

const (
	PolicyPlain PolicyKind = iota
	PolicyFliTAdjacent
	PolicyFliTHash
	PolicyLinkAndPersist
	PolicySkipIt
	PolicyNone // non-persistent baseline (dark dotted line)
)

func (k PolicyKind) String() string {
	switch k {
	case PolicyPlain:
		return "plain"
	case PolicyFliTAdjacent:
		return "flit-adjacent"
	case PolicyFliTHash:
		return "flit-hash"
	case PolicyLinkAndPersist:
		return "link-and-persist"
	case PolicySkipIt:
		return "skipit"
	case PolicyNone:
		return "non-persistent"
	}
	return "policy(?)"
}

// PolicyKinds lists the compared schemes in figure order.
func PolicyKinds() []PolicyKind {
	return []PolicyKind{PolicyPlain, PolicyFliTAdjacent, PolicyFliTHash, PolicyLinkAndPersist, PolicySkipIt}
}

// Structures lists the four data structures in figure order.
func Structures() []string {
	return []string{ds.NameList, ds.NameHash, ds.NameBST, ds.NameSkiplist}
}

// PersistRow is one bar of Figures 14/15: throughput of one (structure,
// persistence algorithm, elision scheme, update rate) configuration.
type PersistRow struct {
	Structure string
	Mode      persist.Mode
	Policy    PolicyKind
	UpdatePct int
	Mops      float64 // million operations per second of simulated time
	Cycles    float64 // slowest thread's virtual cycles (the gated metric)
	Flushes   uint64
	Elided    uint64 // flushes avoided (scheme-dependent accounting)
}

func (r PersistRow) String() string {
	return fmt.Sprintf("%-11s %-10s %-16s upd=%3d%%  %8.3f Mops/s", r.Structure, r.Mode, r.Policy, r.UpdatePct, r.Mops)
}

// RunPersistConfig measures one (structure, mode, policy, update%) point
// and returns its throughput row. It prefills afresh; the fig14, fig15 and
// fig16 jobs measure the same way but share each prefill within a run.
func RunPersistConfig(structure string, mode persist.Mode, kind PolicyKind, updatePct int, flitTable uint64) PersistRow {
	return runPersist(nil, prefillKey{structure, mode, kind, flitTable}, updatePct)
}

// prefillKey is what a §7.4 prefill depends on besides the package's knobs,
// which one job list fixes: every point of a key warms up alike, whatever
// its update rate.
type prefillKey struct {
	structure string
	mode      persist.Mode
	kind      PolicyKind
	flitTable uint64
}

// warmState is what a prefill leaves besides the structure: the warm
// hierarchy, clocks and Stats reset, and the elision scheme over it with
// its bookkeeping.
type warmState struct {
	h   *memsim.Hierarchy
	pol persist.Policy
}

// copy returns a warm state that shares nothing with w.
func (w warmState) copy() warmState {
	h := w.h.Clone()
	return warmState{h, persist.Copy(w.pol, h)}
}

// runPersist measures one point, taking its warm state from sh (see
// sweep.Take). The job that builds the warm state prefills for real and
// keeps the structure it filled. Every other job of the group rebuilds the
// same structure by replaying the prefill's inserts through padOnly, which
// lays the nodes out at the same simulated addresses at no cache cost, and
// then runs on its copy of the warm hierarchy and bookkeeping.
func runPersist(sh *sweep.Shared, k prefillKey, updatePct int) PersistRow {
	alloc := memsim.NewAllocator(1 << 20)
	var tableBase uint64
	if k.kind == PolicyFliTHash {
		tableBase = alloc.Alloc(k.flitTable * 8)
	}
	env := &persist.Env{Mode: k.mode, NonPersistent: k.kind == PolicyNone}
	var set ds.Set
	var keyRange uint64
	w := sweep.Take(sh, func() warmState {
		h := memsim.New(memsim.DefaultConfig(PersistThreads))
		env.Pol = newPolicy(k, h, tableBase)
		set, keyRange = prefill(k.structure, env, alloc)
		h.ResetClocks()
		return warmState{h, env.Pol}
	}, warmState.copy)
	if set == nil { // another job of the group prefilled
		env.Pol = padOnly(w.pol.NodePad())
		set, keyRange = prefill(k.structure, env, alloc)
	}
	env.Pol = w.pol
	h := w.h

	// Measured phase: PersistThreads simulated threads, updatePct updates
	// split evenly between inserts and deletes, the rest lookups (§7.4).
	// Each thread keeps its own operation stream; the streams interleave
	// round-robin one operation at a time, so contention on shared lines is
	// exercised deterministically instead of depending on goroutine
	// scheduling.
	rngs := make([]*rand.Rand, PersistThreads)
	for tid := range rngs {
		rngs[tid] = rand.New(rand.NewSource(int64(tid)*7919 + 13))
	}
	for i := 0; i < PersistOpsPerThr; i++ {
		for tid := 0; tid < PersistThreads; tid++ {
			r := rngs[tid]
			key := uint64(r.Int63n(int64(keyRange))) + 1
			roll := r.Intn(200)
			switch {
			case roll < updatePct:
				set.Insert(tid, key)
			case roll < 2*updatePct:
				set.Delete(tid, key)
			default:
				set.Contains(tid, key)
			}
		}
	}

	secs := h.MaxSeconds()
	totalOps := float64(PersistThreads * PersistOpsPerThr)
	st := h.Stats()
	return PersistRow{
		Structure: k.structure,
		Mode:      k.mode,
		Policy:    k.kind,
		UpdatePct: updatePct,
		Mops:      totalOps / secs / 1e6,
		Cycles:    secs * h.Config().ClockMHz * 1e6,
		Flushes:   st.Flushes,
		Elided:    st.FlushDropsL1,
	}
}

// newPolicy builds k's elision scheme over h; a FliT hash table sits at
// tableBase.
func newPolicy(k prefillKey, h *memsim.Hierarchy, tableBase uint64) persist.Policy {
	switch k.kind {
	case PolicySkipIt:
		return persist.NewSkipIt(h, false)
	case PolicyFliTAdjacent:
		return persist.NewFliT(h, true, 0, 0, false)
	case PolicyFliTHash:
		return persist.NewFliT(h, false, k.flitTable, tableBase, false)
	case PolicyLinkAndPersist:
		return persist.NewLinkAndPersist(h, false)
	}
	return persist.NewPlain(h, false) // PolicyPlain and PolicyNone
}

// prefill builds the named structure over env and alloc and fills it to 50%
// occupancy of its key range, which it returns: the inserts warm the caches
// under env's policy.
func prefill(structure string, env *persist.Env, alloc *memsim.Allocator) (ds.Set, uint64) {
	var set ds.Set
	var keyRange uint64
	switch structure {
	case ds.NameList:
		set = ds.NewLinkedList(env, alloc)
		keyRange = 2 * ListKeys
	case ds.NameHash:
		set = ds.NewHashTable(env, alloc, HashBuckets)
		keyRange = 2 * HashKeys
	case ds.NameBST:
		set = ds.NewBST(env, alloc)
		keyRange = 2 * TreeKeys
	case ds.NameSkiplist:
		set = ds.NewSkiplist(env, alloc)
		keyRange = 2 * TreeKeys
	default:
		panic("bench: unknown structure " + structure)
	}
	rng := rand.New(rand.NewSource(1))
	target := int(keyRange / 2)
	for n := 0; n < target; {
		if set.Insert(0, uint64(rng.Int63n(int64(keyRange)))+1) {
			n++
		}
	}
	return set, keyRange
}

// padOnly stands in for the elision scheme while a structure is rebuilt
// from a prefill another job made: it charges nothing and answers only
// NodePad, the one call whose answer shapes the structure.
type padOnly uint64

func (padOnly) Name() string      { return "pad-only" }
func (padOnly) Load(int, uint64)  {}
func (padOnly) Store(int, uint64) {}
func (padOnly) Flush(int, uint64) {}
func (padOnly) Fence(int)         {}
func (p padOnly) NodePad() uint64 { return uint64(p) }
