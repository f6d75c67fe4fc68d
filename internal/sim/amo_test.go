package sim

import (
	"testing"

	"skipit/internal/isa"
)

func TestAmoAddReturnsOldAndAccumulates(t *testing.T) {
	p := isa.NewBuilder().
		Store(0x1000, 10).
		AmoAdd(0x1000, 5).
		AmoAdd(0x1000, 7).
		Load(0x1000).
		Build()
	s := run1(t, p)
	tm := s.Cores[0].Timings()
	if tm[1].LoadValue != 10 {
		t.Fatalf("first amoadd returned %d, want 10", tm[1].LoadValue)
	}
	if tm[2].LoadValue != 15 {
		t.Fatalf("second amoadd returned %d, want 15", tm[2].LoadValue)
	}
	if tm[3].LoadValue != 22 {
		t.Fatalf("final load = %d, want 22", tm[3].LoadValue)
	}
}

func TestAmoSwapExchanges(t *testing.T) {
	p := isa.NewBuilder().
		Store(0x1000, 3).
		AmoSwap(0x1000, 99).
		Load(0x1000).
		Build()
	s := run1(t, p)
	tm := s.Cores[0].Timings()
	if tm[1].LoadValue != 3 {
		t.Fatalf("amoswap returned %d, want 3", tm[1].LoadValue)
	}
	if tm[2].LoadValue != 99 {
		t.Fatalf("load after swap = %d, want 99", tm[2].LoadValue)
	}
}

func TestAmoOnColdLineGoesThroughMSHR(t *testing.T) {
	s := New(DefaultConfig(1))
	s.Mem.PokeUint64(0x2000, 40)
	p := isa.NewBuilder().AmoAdd(0x2000, 2).Load(0x2000).Build()
	if _, err := s.Run([]*isa.Program{p}, runLimit); err != nil {
		t.Fatal(err)
	}
	tm := s.Cores[0].Timings()
	if tm[0].LoadValue != 40 {
		t.Fatalf("cold amoadd returned %d, want 40", tm[0].LoadValue)
	}
	if tm[1].LoadValue != 42 {
		t.Fatalf("load = %d, want 42", tm[1].LoadValue)
	}
}

// TestAtomicCounterAcrossCores is the canonical atomicity test: four cores
// each add 1 to a shared counter N times through the coherence protocol; the
// final durable value must be exactly 4N, and every AMO must have observed a
// distinct old value.
func TestAtomicCounterAcrossCores(t *testing.T) {
	const cores, perCore = 4, 25
	s := New(DefaultConfig(cores))
	progs := make([]*isa.Program, cores)
	for c := 0; c < cores; c++ {
		b := isa.NewBuilder()
		for i := 0; i < perCore; i++ {
			b.AmoAdd(0x1000, 1)
		}
		b.Fence()
		progs[c] = b.Build()
	}
	if _, err := s.Run(progs, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	seen := map[uint64]bool{}
	for c := 0; c < cores; c++ {
		for i, in := range progs[c].Instrs {
			if in.Op != isa.OpAmoAdd {
				continue
			}
			old := s.Cores[c].Timing(i).LoadValue
			if seen[old] {
				t.Fatalf("two AMOs observed the same old value %d: atomicity violated", old)
			}
			seen[old] = true
		}
	}
	// Flush the counter and verify the durable total.
	fin := isa.NewBuilder().CboFlush(0x1000).Fence().Build()
	progs2 := make([]*isa.Program, cores)
	progs2[0] = fin
	if _, err := s.Run(progs2, runLimit); err != nil {
		t.Fatal(err)
	}
	if got := s.Mem.PeekUint64(0x1000); got != cores*perCore {
		t.Fatalf("durable counter = %d, want %d", got, cores*perCore)
	}
}
