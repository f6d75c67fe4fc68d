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

func TestMutationWaitingLoadCount(t *testing.T) {
	s := mutationSystem(t, 1)
	s.Cores[0].PokeWaitingLoads(1)
	wantViolation(t, s, "lsu accounting")
}
