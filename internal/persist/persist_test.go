package persist

import (
	"math/rand"
	"sync"
	"testing"

	"skipit/internal/memsim"
)

func setup(t *testing.T) *memsim.Hierarchy {
	t.Helper()
	return memsim.New(memsim.DefaultConfig(2))
}

func policies(h *memsim.Hierarchy) []Policy {
	return []Policy{
		NewPlain(h, false),
		NewSkipIt(h, false),
		NewFliT(h, true, 0, 0, false),
		NewFliT(h, false, 1<<16, 1<<41, false),
		NewLinkAndPersist(h, false),
	}
}

func TestPolicyNames(t *testing.T) {
	h := setup(t)
	want := []string{"plain", "skipit", "flit-adjacent", "flit-hash[65536]", "link-and-persist"}
	for i, p := range policies(h) {
		if p.Name() != want[i] {
			t.Errorf("policy %d name = %q, want %q", i, p.Name(), want[i])
		}
	}
}

// The core safety property of every elision scheme: after Store(addr);
// Flush(addr); Fence(), the line must not be dirty anywhere.
func TestStoreFlushFencePersists(t *testing.T) {
	for _, mk := range []func(h *memsim.Hierarchy) Policy{
		func(h *memsim.Hierarchy) Policy { return NewPlain(h, false) },
		func(h *memsim.Hierarchy) Policy { return NewSkipIt(h, false) },
		func(h *memsim.Hierarchy) Policy { return NewFliT(h, true, 0, 0, false) },
		func(h *memsim.Hierarchy) Policy { return NewFliT(h, false, 64, 1<<41, false) },
		func(h *memsim.Hierarchy) Policy { return NewLinkAndPersist(h, false) },
	} {
		h := setup(t)
		p := mk(h)
		for i := uint64(0); i < 100; i++ {
			addr := 0x10000 + i*8
			p.Store(0, addr)
			p.Flush(0, addr)
			p.Fence(0)
			if h.DirtyAnywhere(addr) {
				t.Fatalf("%s: dirty after store+flush+fence at %#x", p.Name(), addr)
			}
		}
	}
}

// Randomized elision-safety: interleave stores and flushes from two threads;
// after flushing an address (and with no store by anyone since), the line is
// clean.
func TestElisionSafetyRandom(t *testing.T) {
	for _, name := range []string{"skipit", "flit-adjacent", "flit-hash", "lap"} {
		h := setup(t)
		var p Policy
		switch name {
		case "skipit":
			p = NewSkipIt(h, false)
		case "flit-adjacent":
			p = NewFliT(h, true, 0, 0, false)
		case "flit-hash":
			p = NewFliT(h, false, 32, 1<<41, false) // tiny table: many collisions
		case "lap":
			p = NewLinkAndPersist(h, false)
		}
		rng := rand.New(rand.NewSource(11))
		words := make([]uint64, 16)
		for i := range words {
			words[i] = 0x20000 + uint64(i)*8
		}
		for i := 0; i < 3000; i++ {
			tid := rng.Intn(2)
			w := words[rng.Intn(len(words))]
			if rng.Intn(2) == 0 {
				p.Store(tid, w)
			} else {
				p.Flush(tid, w)
			}
		}
		// Drain: flush every word; everything must be persisted.
		for _, w := range words {
			p.Flush(0, w)
		}
		p.Fence(0)
		for _, w := range words {
			if h.DirtyAnywhere(w) {
				t.Fatalf("%s: word %#x dirty after final flush pass", p.Name(), w)
			}
		}
	}
}

func TestSkipItCheaperOnRedundantFlushes(t *testing.T) {
	// The pattern that dominates §7.4's automatic mode: read a node, then
	// write it back "just in case". With plain CBO.FLUSH the line is
	// invalidated and refetched every iteration; with Skip It the flush is
	// dropped and the line stays hot.
	h := setup(t)
	plain := NewPlain(h, false)
	skip := NewSkipIt(h, false)

	plain.Store(0, 0x1000)
	plain.Flush(0, 0x1000)
	base := h.Clock(0)
	for i := 0; i < 10; i++ {
		plain.Load(0, 0x1000)
		plain.Flush(0, 0x1000)
	}
	plainCost := h.Clock(0) - base

	skip.Store(1, 0x9000)
	skip.Flush(1, 0x9000)
	skip.Load(1, 0x9000) // refetch once: installs with skip=1
	base = h.Clock(1)
	for i := 0; i < 10; i++ {
		skip.Load(1, 0x9000)
		skip.Flush(1, 0x9000)
	}
	skipCost := h.Clock(1) - base
	if skipCost*2 >= plainCost {
		t.Fatalf("Skip It read+flush loop (%.0f cy) not ~2x cheaper than plain (%.0f cy)", skipCost, plainCost)
	}
	if h.Stats().FlushDropsL1 != 10 {
		t.Fatalf("FlushDropsL1 = %d, want 10", h.Stats().FlushDropsL1)
	}
}

func TestFliTElidesFlushOfPersistedData(t *testing.T) {
	h := setup(t)
	f := NewFliT(h, true, 0, 0, false)
	f.Store(0, 0x1000) // eager flush inside
	st0 := h.Stats().Flushes
	f.Flush(1, 0x1000) // reader-side flush: counter is 0 -> elided
	if got := h.Stats().Flushes - st0; got != 0 {
		t.Fatalf("FliT issued %d flushes for persisted data, want 0", got)
	}
}

func TestFliTHashCollisionsAreConservative(t *testing.T) {
	h := setup(t)
	f := NewFliT(h, false, 1, 1<<41, false) // one counter: everything collides
	// A store in flight on one address must force flushes on another.
	f.counters[0]++ // simulate a concurrent in-flight store
	st0 := h.Stats().Flushes
	f.Flush(0, 0x5000)
	if got := h.Stats().Flushes - st0; got != 1 {
		t.Fatalf("colliding FliT flush elided despite in-flight store (%d flushes)", got)
	}
	f.counters[0]--
}

func TestLAPSkipsUnmarkedWords(t *testing.T) {
	h := setup(t)
	l := NewLinkAndPersist(h, false)
	l.Store(0, 0x1000)
	l.Flush(0, 0x1000) // clears the mark
	st0 := h.Stats().Flushes
	l.Flush(0, 0x1000)
	if got := h.Stats().Flushes - st0; got != 0 {
		t.Fatalf("LAP re-flushed an unmarked word (%d flushes)", got)
	}
}

func TestLAPChargesMaskingOnLoads(t *testing.T) {
	h := setup(t)
	l := NewLinkAndPersist(h, false)
	l.Load(0, 0x1000)
	withMask := h.Clock(0)
	h2 := setup(t)
	p := NewPlain(h2, false)
	p.Load(0, 0x1000)
	if withMask <= h2.Clock(0) {
		t.Fatal("LAP load not charged the masking cycle")
	}
}

func TestFliTAdjacentPadsNodes(t *testing.T) {
	h := setup(t)
	if NewFliT(h, true, 0, 0, false).NodePad() == 0 {
		t.Error("FliT adjacent reports zero node padding")
	}
	if NewFliT(h, false, 64, 1<<41, false).NodePad() != 0 {
		t.Error("FliT hash reports node padding")
	}
	if NewSkipIt(h, false).NodePad() != 0 {
		t.Error("Skip It reports node padding")
	}
}

func TestEnvModeFlushCounts(t *testing.T) {
	// Automatic flushes traversal reads; NVTraverse flushes only critical
	// reads and writes; manual flushes only commits/new nodes.
	counts := map[Mode]uint64{}
	for _, mode := range Modes() {
		h := setup(t)
		env := &Env{Pol: NewPlain(h, false), Mode: mode}
		for i := uint64(0); i < 10; i++ {
			env.ReadTraverse(0, 0x1000+i*64)
		}
		env.ReadCritical(0, 0x2000)
		env.Write(0, 0x3000)
		env.WriteCommit(0, 0x4000)
		env.FlushNew(0, 0x3000)
		env.EndOp(0, true)
		counts[mode] = h.Stats().Flushes
	}
	if !(counts[Automatic] > counts[NVTraverse] && counts[NVTraverse] > counts[Manual]) {
		t.Fatalf("flush ordering wrong: automatic=%d nvtraverse=%d manual=%d",
			counts[Automatic], counts[NVTraverse], counts[Manual])
	}
}

func TestNonPersistentIssuesNothing(t *testing.T) {
	h := setup(t)
	env := &Env{Pol: NewPlain(h, false), NonPersistent: true}
	env.ReadTraverse(0, 0x1000)
	env.WriteCommit(0, 0x2000)
	env.EndOp(0, true)
	st := h.Stats()
	if st.Flushes != 0 || st.Fences != 0 {
		t.Fatalf("non-persistent env issued flushes=%d fences=%d", st.Flushes, st.Fences)
	}
}

func TestEnvReadOnlyOpFences(t *testing.T) {
	h := setup(t)
	env := &Env{Pol: NewPlain(h, false), Mode: Automatic}
	env.ReadTraverse(0, 0x1000)
	env.EndOp(0, false)
	if h.Stats().Fences != 1 {
		t.Fatal("automatic mode must fence read-only operations")
	}

	h2m := setup(t)
	env2 := &Env{Pol: NewPlain(h2m, false), Mode: Manual}
	env2.ReadTraverse(0, 0x1000)
	env2.EndOp(0, false)
	if h2m.Stats().Fences != 0 {
		t.Fatal("manual mode must not fence read-only operations")
	}
}

// TestLockedSerializesConcurrentCallers drives one Locked policy from four
// goroutines, first Plain and then FliT-hash over the same hierarchy. Every
// call must land whole: the hierarchy's counters equal exactly what the
// calls imply (a lost update would show as a shortfall, and -race reports
// any unserialized access), and no FliT flush observes another goroutine's
// store in flight, so FliT flushes only inside its stores.
func TestLockedSerializesConcurrentCallers(t *testing.T) {
	const goroutines, callsPer = 4, 2000
	h := memsim.New(memsim.DefaultConfig(goroutines))
	var wantAccesses, wantFlushes uint64
	for _, tc := range []struct {
		pol                         Policy
		loadAcc, storeAcc, flushAcc uint64 // accesses per call
		storeFl, flushFl            uint64 // flushes per call
	}{
		{NewPlain(h, false), 1, 1, 0, 0, 1},
		{NewFliT(h, false, 64, 1<<41, false), 1, 3, 1, 1, 0},
	} {
		p := Locked(tc.pol)
		var loads, stores, flushes [goroutines]uint64
		var wg sync.WaitGroup
		for tid := 0; tid < goroutines; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(tid)))
				for i := 0; i < callsPer; i++ {
					addr := 0x10000 + uint64(rng.Intn(256))*8
					switch rng.Intn(4) {
					case 0:
						p.Load(tid, addr)
						loads[tid]++
					case 1:
						p.Store(tid, addr)
						stores[tid]++
					case 2:
						p.Flush(tid, addr)
						flushes[tid]++
					default:
						p.Fence(tid)
					}
				}
			}(tid)
		}
		wg.Wait()
		for tid := 0; tid < goroutines; tid++ {
			wantAccesses += loads[tid]*tc.loadAcc + stores[tid]*tc.storeAcc + flushes[tid]*tc.flushAcc
			wantFlushes += stores[tid]*tc.storeFl + flushes[tid]*tc.flushFl
		}
		st := h.Stats()
		if st.Accesses != wantAccesses || st.Flushes != wantFlushes {
			t.Fatalf("%s: Accesses = %d, Flushes = %d; the calls imply %d and %d",
				p.Name(), st.Accesses, st.Flushes, wantAccesses, wantFlushes)
		}
	}
}
