package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"skipit/internal/isa"
)

// configMatrix enumerates the microarchitectural knobs whose combinations
// must all preserve correctness: the ablation parameters change performance
// only, never semantics.
func configMatrix() []Config {
	var out []Config
	for _, skipIt := range []bool{true, false} {
		for _, coalesce := range []bool{true, false} {
			for _, cross := range []bool{false, true} {
				for _, wide := range []bool{true, false} {
					for _, depth := range []int{1, 8} {
						for _, fshrs := range []int{1, 8} {
							cfg := DefaultConfig(2)
							cfg.L1.Flush.SkipIt = skipIt
							cfg.L1.Flush.Coalescing = coalesce
							cfg.L1.Flush.CoalesceCrossKind = cross
							cfg.L1.Flush.WideDataArray = wide
							cfg.L1.Flush.QueueDepth = depth
							cfg.L1.Flush.NumFSHRs = fshrs
							out = append(out, cfg)
						}
					}
				}
			}
		}
	}
	return out
}

func matrixName(cfg Config) string {
	f := cfg.L1.Flush
	return fmt.Sprintf("skip=%v coal=%v cross=%v wide=%v q=%d fshr=%d",
		f.SkipIt, f.Coalescing, f.CoalesceCrossKind, f.WideDataArray, f.QueueDepth, f.NumFSHRs)
}

// TestConfigMatrixDurability runs the same randomized workload on every
// configuration: regardless of the knobs, a flush+fence chain makes data
// durable, invariants hold, and the system drains.
func TestConfigMatrixDurability(t *testing.T) {
	// One deterministic program pair shared by all configs.
	build := func(seed int64, base uint64) *isa.Program {
		rng := rand.New(rand.NewSource(seed))
		lines := []uint64{base, base + 64, base + 4096}
		b := isa.NewBuilder()
		for i := 0; i < 60; i++ {
			a := lines[rng.Intn(len(lines))]
			switch rng.Intn(6) {
			case 0, 1:
				b.Store(a, uint64(rng.Intn(100))+1)
			case 2:
				b.CboClean(a)
			case 3:
				b.CboFlush(a)
			case 4:
				b.Load(a)
			case 5:
				b.Fence()
			}
		}
		// Deterministic epilogue: a known value, flushed and fenced.
		b.Store(base, 4242).CboFlush(base).Fence()
		return b.Build()
	}

	for _, cfg := range configMatrix() {
		cfg := cfg
		t.Run(matrixName(cfg), func(t *testing.T) {
			t.Parallel()
			s := New(cfg)
			progs := []*isa.Program{build(1, 0x1000), build(2, 0x100000)}
			if _, err := s.Run(progs, 2_000_000); err != nil {
				t.Fatal(err)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			s.Crash(false)
			if got := s.Mem.PeekUint64(0x1000); got != 4242 {
				t.Fatalf("core 0 epilogue not durable: %d", got)
			}
			if got := s.Mem.PeekUint64(0x100000); got != 4242 {
				t.Fatalf("core 1 epilogue not durable: %d", got)
			}
		})
	}
}

// TestConfigMatrixLoadValues checks functional correctness of loads across
// the matrix: each core's final load of its private word must see its last
// store despite intervening CBO.X traffic.
func TestConfigMatrixLoadValues(t *testing.T) {
	for _, cfg := range configMatrix() {
		cfg := cfg
		t.Run(matrixName(cfg), func(t *testing.T) {
			t.Parallel()
			s := New(cfg)
			mk := func(base uint64) *isa.Program {
				b := isa.NewBuilder()
				b.Store(base, 10).CboClean(base)
				b.Store(base, 20).CboFlush(base).Fence()
				b.Store(base, 30).CboClean(base).Fence()
				b.Load(base)
				b.Fence()
				return b.Build()
			}
			progs := []*isa.Program{mk(0x2000), mk(0x200000)}
			if _, err := s.Run(progs, 2_000_000); err != nil {
				t.Fatal(err)
			}
			for c, base := range []uint64{0x2000, 0x200000} {
				tm := s.Cores[c].Timings()
				if got := tm[len(tm)-2].LoadValue; got != 30 {
					t.Fatalf("core %d final load = %d, want 30", c, got)
				}
				if got := s.Mem.PeekUint64(base); got != 30 {
					t.Fatalf("core %d NVMM = %d, want 30", c, got)
				}
			}
		})
	}
}

// TestMatrixFourCoreStress runs a shared-line workload on four cores for a
// few key configurations with per-cycle invariant checking.
func TestMatrixFourCoreStress(t *testing.T) {
	for _, skipIt := range []bool{true, false} {
		skipIt := skipIt
		t.Run(fmt.Sprintf("skipit=%v", skipIt), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(4)
			cfg.L1.Flush.SkipIt = skipIt
			s := New(cfg)
			lines := []uint64{0x1000, 0x1040, 0x8000}
			for c := 0; c < 4; c++ {
				rng := rand.New(rand.NewSource(int64(c) + 100))
				b := isa.NewBuilder()
				for i := 0; i < 80; i++ {
					a := lines[rng.Intn(len(lines))]
					switch rng.Intn(6) {
					case 0, 1:
						b.Store(a, uint64(c*1000+i))
					case 2:
						b.Load(a)
					case 3:
						b.CboClean(a)
					case 4:
						b.CboFlush(a)
					case 5:
						b.Fence()
					}
				}
				b.Fence()
				s.Cores[c].SetProgram(b.Build())
			}
			for i := 0; i < 400_000; i++ {
				if err := s.StepChecked(); err != nil {
					t.Fatalf("cycle %d: %v", s.Now(), err)
				}
				if s.Done() && s.Quiescent() {
					return
				}
			}
			t.Fatal("stress did not finish")
		})
	}
}
