package bench

import (
	"fmt"
	"math/rand"

	"skipit/internal/ds"
	"skipit/internal/memsim"
	"skipit/internal/persist"
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
// and returns its throughput row; the fig14, fig15 and fig16 jobs run it.
func RunPersistConfig(structure string, mode persist.Mode, kind PolicyKind, updatePct int, flitTable uint64) PersistRow {
	h := memsim.New(memsim.DefaultConfig(PersistThreads))
	alloc := memsim.NewAllocator(1 << 20)

	var pol persist.Policy
	switch kind {
	case PolicyPlain, PolicyNone:
		pol = persist.NewPlain(h, false)
	case PolicySkipIt:
		pol = persist.NewSkipIt(h, false)
	case PolicyFliTAdjacent:
		pol = persist.NewFliT(h, true, 0, 0, false)
	case PolicyFliTHash:
		base := alloc.Alloc(flitTable * 8)
		pol = persist.NewFliT(h, false, flitTable, base, false)
	case PolicyLinkAndPersist:
		pol = persist.NewLinkAndPersist(h, false)
	}
	env := &persist.Env{Pol: pol, Mode: mode, NonPersistent: kind == PolicyNone}

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

	// Prefill to 50% occupancy of the key range, warming the caches.
	rng := rand.New(rand.NewSource(1))
	target := int(keyRange / 2)
	for n := 0; n < target; {
		if set.Insert(0, uint64(rng.Int63n(int64(keyRange)))+1) {
			n++
		}
	}
	h.ResetClocks()

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
		Structure: structure,
		Mode:      mode,
		Policy:    kind,
		UpdatePct: updatePct,
		Mops:      totalOps / secs / 1e6,
		Cycles:    secs * h.Config().ClockMHz * 1e6,
		Flushes:   st.Flushes,
		Elided:    st.FlushDropsL1,
	}
}
