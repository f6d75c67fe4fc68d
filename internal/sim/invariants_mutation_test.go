package sim

// Mutation-style coverage for CheckInvariants: each test builds an otherwise
// legal state by running a real program, then seeds exactly one violation
// class through the test-only pokers and asserts the checker names it. A
// checker that misses any of these classes would silently pass every stress
// run, so this file is the checker's own regression net.

import (
	"strings"
	"testing"

	"skipit/internal/isa"
	"skipit/internal/tilelink"
)

// mutationSystem runs one store+fence on core 0 so the L1 holds 0x1000 as a
// dirty trunk line, verifies the state is legal, and hands it to the test.
func mutationSystem(t *testing.T, cores int) *System {
	t.Helper()
	s := New(DefaultConfig(cores))
	progs := make([]*isa.Program, cores)
	progs[0] = isa.NewBuilder().Store(0x1000, 7).Fence().Build()
	for i := 1; i < cores; i++ {
		progs[i] = isa.NewBuilder().Build()
	}
	if _, err := s.Run(progs, 10_000); err != nil {
		t.Fatalf("setup run: %v", err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("legal state flagged before mutation: %v", err)
	}
	return s
}

func wantViolation(t *testing.T, s *System, substr string) {
	t.Helper()
	err := s.CheckInvariants()
	if err == nil {
		t.Fatalf("mutation not detected; want error containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("wrong violation: got %q, want substring %q", err, substr)
	}
}

func TestMutationInclusion(t *testing.T) {
	s := mutationSystem(t, 1)
	if !s.L2.PokeDrop(0x1000) {
		t.Fatal("line not resident in L2")
	}
	wantViolation(t, s, "inclusion")
}

func TestMutationDirectoryConservatism(t *testing.T) {
	s := mutationSystem(t, 1)
	// The L1 holds trunk; rewrite the directory to claim it only granted a
	// branch.
	if !s.L2.PokePerm(0x1000, 0, tilelink.PermBranch) {
		t.Fatal("line not resident in L2")
	}
	wantViolation(t, s, "directory")
}

func TestMutationDirtyWithoutTrunk(t *testing.T) {
	s := mutationSystem(t, 1)
	if !s.L1s[0].PokeMeta(0x1000, tilelink.PermBranch, true, false) {
		t.Fatal("line not resident in L1")
	}
	wantViolation(t, s, "dirty line")
}

func TestMutationStaleSkipBit(t *testing.T) {
	s := mutationSystem(t, 1)
	// A clean L1 line with skip set while the L2 copy is dirty and no CBO
	// is in flight: a redundant-writeback drop here would lose the L2's
	// obligation to write back.
	if !s.L1s[0].PokeMeta(0x1000, tilelink.PermTrunk, false, true) {
		t.Fatal("line not resident in L1")
	}
	if !s.L2.PokeDirty(0x1000, true) {
		t.Fatal("line not resident in L2")
	}
	wantViolation(t, s, "skip-bit")
}

func TestMutationSingleWriter(t *testing.T) {
	s := mutationSystem(t, 2)
	// Core 0 owns the trunk; forge a second holder in the directory.
	if !s.L2.PokePerm(0x1000, 1, tilelink.PermBranch) {
		t.Fatal("line not resident in L2")
	}
	wantViolation(t, s, "single-writer")
}

func TestMutationFlushCounter(t *testing.T) {
	s := mutationSystem(t, 1)
	s.L1s[0].FlushUnit().PokePendingCount(1)
	wantViolation(t, s, "flush counter")
}

// lsuSystem stops a core mid-program, with loads waiting behind a fence
// and stores ahead of them, so the waiting-load list and the settled mark
// have entries to corrupt.
func lsuSystem(t *testing.T) *System {
	t.Helper()
	s := New(DefaultConfig(1))
	s.Cores[0].SetProgram(isa.NewBuilder().
		Store(0x1000, 1).Store(0x2000, 2).Fence().
		Load(0x3000).Load(0x4000).Store(0x5000, 3).Build())
	for i := 0; i < 3; i++ {
		if err := s.StepChecked(); err != nil {
			t.Fatalf("legal state flagged before mutation: %v", err)
		}
	}
	return s
}

func TestMutationLSULists(t *testing.T) {
	t.Run("waiting-load list", func(t *testing.T) {
		s := lsuSystem(t)
		if !s.Cores[0].PokeDropWaitingLoad() {
			t.Fatal("no waiting load to drop")
		}
		wantViolation(t, s, "lsu accounting")
	})
	t.Run("settled mark", func(t *testing.T) {
		s := lsuSystem(t)
		s.Cores[0].PokeSettled(1)
		wantViolation(t, s, "lsu accounting")
	})
}

func TestMutationL1ActiveMSHRCount(t *testing.T) {
	s := mutationSystem(t, 1)
	s.L1s[0].PokeActiveMSHRs(1)
	wantViolation(t, s, "l1 mshr accounting")
}

func TestMutationL2BusySet(t *testing.T) {
	s := mutationSystem(t, 1)
	// Every MSHR is free after the run; a set bit claims a transaction no
	// MSHR holds (a missing bit would skip advanceMSHRs for a live one).
	s.L2.PokeBusyMSHRs(1 << 3)
	wantViolation(t, s, "l2 mshr accounting")
}

func TestMutationFlushPreAckMask(t *testing.T) {
	s := mutationSystem(t, 1)
	// Every FSHR is free after the run; a set bit would have Tick step an
	// idle FSHR and hold flush_rdy low.
	s.L1s[0].FlushUnit().PokePreAckFSHRs(1 << 2)
	wantViolation(t, s, "flush pre-ack accounting")
}

func TestMutationL1ResponseCache(t *testing.T) {
	s := mutationSystem(t, 1)
	// The queue is empty after the run; a cached earliest response would
	// wake the tile for nothing, and a late one would starve the core.
	s.L1s[0].PokeRespNext(s.Now() + 5)
	wantViolation(t, s, "l1 response accounting")
}

func TestMutationL2BusyLines(t *testing.T) {
	t.Run("evicting bit on a free MSHR", func(t *testing.T) {
		s := mutationSystem(t, 1)
		s.L2.PokeEvicting(1 << 5)
		wantViolation(t, s, "l2 busy lines")
	})
	t.Run("evicting bit on an MSHR that is not evicting", func(t *testing.T) {
		s := New(DefaultConfig(1))
		s.Cores[0].SetProgram(isa.NewBuilder().Load(0x1000).Build())
		for s.L2.BusyMSHRs() == 0 {
			if s.Now() > 1_000 {
				t.Fatal("the load never reached the L2")
			}
			if err := s.StepChecked(); err != nil {
				t.Fatalf("legal state flagged before mutation: %v", err)
			}
		}
		busy := s.L2.BusyMSHRs()
		s.L2.PokeEvicting(busy & -busy)
		wantViolation(t, s, "l2 busy lines")
	})
}
