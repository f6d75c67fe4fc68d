package sim

// Reference-memory testbench: random programs run on the cycle simulator and
// every load is checked against the sequential golden model, the way a
// hardware cache testbench checks each read against a reference memory.
// Tiny geometries keep every set full, so evictions, probes and victim
// selection overlap on nearly every miss; the default-geometry run fills
// every L2 set with two resident ways, which the handful of lines the other
// golden tests touch never does.

import (
	"fmt"
	"math/rand"
	"testing"

	"skipit/internal/isa"
)

// randomLines picks n distinct lines from a 64-line window at base.
func randomLines(rng *rand.Rand, base uint64, n int) []uint64 {
	lines := make([]uint64, n)
	for i, k := range rng.Perm(64)[:n] {
		lines[i] = base + uint64(k)*64
	}
	return lines
}

// randomRefProgram builds n random operations over words of the given
// lines, then reloads every word it stored, so the state the run leaves
// behind is checked as well as the values read along the way.
func randomRefProgram(rng *rand.Rand, lines []uint64, n int) *isa.Program {
	b := isa.NewBuilder()
	var stored []uint64
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		w := lines[rng.Intn(len(lines))] + uint64(rng.Intn(8))*8
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			b.Store(w, uint64(rng.Intn(1_000_000))+1)
			if !seen[w] {
				seen[w] = true
				stored = append(stored, w)
			}
		case 4, 5, 6:
			b.Load(w)
		case 7:
			b.Cbo(w, rng.Intn(2) == 0)
		case 8:
			b.CflushDL1(w)
		case 9:
			b.Fence()
		}
	}
	b.Fence()
	for _, w := range stored {
		b.Load(w)
	}
	return b.Build()
}

// runReference steps s cycle by cycle with every invariant checked until
// the programs finish and the SoC drains, then checks every load of every
// core against the golden model. A simulator panic is reported as an error.
func runReference(s *System, progs []*isa.Program, limit int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("cycle %d: panic: %v", s.Now(), r)
		}
	}()
	for i, p := range progs {
		s.Cores[i].SetProgram(p)
	}
	for !s.Done() || !s.Quiescent() {
		if s.Now() >= limit {
			return fmt.Errorf("did not finish in %d cycles: %s", limit, s.describeStall())
		}
		if err := s.StepChecked(); err != nil {
			return fmt.Errorf("cycle %d: %v", s.Now(), err)
		}
	}
	return checkLoads(s, progs)
}

// checkLoads compares every core's load values with the golden model and
// reports how many differ, with the first.
func checkLoads(s *System, progs []*isa.Program) error {
	var first error
	wrong, total := 0, 0
	for c, p := range progs {
		want := (&goldenModel{}).run(p)
		li := 0
		for idx, in := range p.Instrs {
			if in.Op != isa.OpLoad {
				continue
			}
			if got := s.Cores[c].Timing(idx).LoadValue; got != want[li] {
				wrong++
				if first == nil {
					first = fmt.Errorf("core %d load #%d (instr %d, addr %#x) = %d, golden %d",
						c, li, idx, in.Addr, got, want[li])
				}
			}
			li++
		}
		total += li
	}
	if first != nil {
		return fmt.Errorf("%d of %d loads wrong; first: %v", wrong, total, first)
	}
	return nil
}

// TestReferenceMemoryTinyGeometries runs random programs over 24 lines per
// core on caches of a few frames each, on one core and on two cores with
// disjoint lines. Inclusion, directory, flush-counter and LSU invariants are
// checked every cycle and every load against the golden model. This is the
// check that found the L1 evicting a line its probe unit had just accepted.
func TestReferenceMemoryTinyGeometries(t *testing.T) {
	geometries := []struct{ l1Sets, l1Ways, l2Sets, l2Ways int }{
		{2, 2, 4, 2},
		{1, 2, 2, 2},
	}
	const seeds = 25
	for _, g := range geometries {
		for _, cores := range []int{1, 2} {
			name := fmt.Sprintf("l1=%dx%d/l2=%dx%d/cores=%d", g.l1Sets, g.l1Ways, g.l2Sets, g.l2Ways, cores)
			t.Run(name, func(t *testing.T) {
				failures := 0
				for seed := int64(1); seed <= seeds; seed++ {
					rng := rand.New(rand.NewSource(seed))
					progs := make([]*isa.Program, cores)
					for c := range progs {
						base := 0x10000 + uint64(c)*0x10000
						progs[c] = randomRefProgram(rng, randomLines(rng, base, 24), 120)
					}
					cfg := DefaultConfig(cores)
					cfg.L1.Sets, cfg.L1.Ways = g.l1Sets, g.l1Ways
					cfg.L2.Sets, cfg.L2.Ways = g.l2Sets, g.l2Ways
					cfg.L1.Flush.SkipIt = seed%2 == 0
					if err := runReference(New(cfg), progs, 200_000); err != nil {
						t.Errorf("seed %d: %v", seed, err)
						if failures++; failures == 5 {
							t.Fatal("stopping after 5 failing seeds")
						}
					}
				}
			})
		}
	}
}

// TestReferenceMemoryFullL2 stores 2,048 distinct lines on the default
// geometry and reloads them. That puts two resident ways in every L2 set and
// pushes most lines out of the L1 and back, so every L2 data row and
// directory entry is written and read back at least once.
func TestReferenceMemoryFullL2(t *testing.T) {
	cfg := DefaultConfig(1)
	n := 2 * cfg.L2.Sets
	lineBytes := cfg.L2.LineBytes
	word := func(i int) uint64 { return 0x100000 + uint64(i)*lineBytes + uint64(i%8)*8 }
	b := isa.NewBuilder()
	for i := 0; i < n; i++ {
		b.Store(word(i), uint64(i)*2654435761+1)
	}
	b.Fence()
	for i := 0; i < n; i++ {
		b.Load(word(i))
	}
	b.Fence()
	progs := []*isa.Program{b.Build()}

	s := New(cfg)
	if _, err := s.Run(progs, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if !s.L2.LineState(word(i)).Present {
			t.Fatalf("line %#x left the L2: the run no longer fills two ways per set", word(i))
		}
	}
	if err := checkLoads(s, progs); err != nil {
		t.Fatal(err)
	}
}
