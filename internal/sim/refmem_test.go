package sim

import (
	"testing"

	"skipit/internal/isa"
)

// TestReferenceMemoryFullL2 stores 2,048 distinct lines on the default
// geometry and reloads them. That puts two resident ways in every L2 set and
// pushes most lines out of the L1 and back, so every L2 data row and
// directory entry is written and read back at least once. (Random programs
// on tiny geometries are internal/chaos's TestConfigs.)
func TestReferenceMemoryFullL2(t *testing.T) {
	cfg := DefaultConfig(1)
	n := 2 * cfg.L2.Sets
	lineBytes := cfg.L2.LineBytes
	word := func(i int) uint64 { return 0x100000 + uint64(i)*lineBytes + uint64(i%8)*8 }
	value := func(i int) uint64 { return uint64(i)*2654435761 + 1 }
	b := isa.NewBuilder()
	for i := 0; i < n; i++ {
		b.Store(word(i), value(i))
	}
	b.Fence()
	reload := b.Mark()
	for i := 0; i < n; i++ {
		b.Load(word(i))
	}
	b.Fence()

	s := New(cfg)
	if _, err := s.Run([]*isa.Program{b.Build()}, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !s.L2.LineState(word(i)).Present {
			t.Fatalf("line %#x left the L2: the run no longer fills two ways per set", word(i))
		}
		if got := s.Cores[0].Timing(reload + i).LoadValue; got != value(i) {
			t.Fatalf("load of %#x = %d, stored %d", word(i), got, value(i))
		}
	}
}
