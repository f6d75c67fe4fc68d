// Command crashtest is a randomized crash-consistency checker for the §4
// writeback/fence memory semantics: it runs random store/CBO.X/fence
// programs on the cycle simulator, injects a power failure at a random
// cycle, and verifies that the persistence domain (NVMM) holds a state the
// semantics allow —
//
//   - a store whose line was written back by a CBO.X ordered before a fence
//     that completed before the crash MUST be durable (Fig. 5c);
//   - any address may additionally hold the value of a later store (cache
//     evictions persist data opportunistically), but never only an older
//     one once a newer value was guaranteed.
//
// Usage:
//
//	crashtest [-runs N] [-seed S] [-cores N] [-timeout-cycles N] [-v]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"skipit/internal/boom"
	"skipit/internal/isa"
	"skipit/internal/sim"
)

func main() {
	runs := flag.Int("runs", 200, "number of randomized crash scenarios")
	seed := flag.Int64("seed", 1, "random seed")
	cores := flag.Int("cores", 1, "simulated cores")
	timeoutCycles := flag.Int64("timeout-cycles", 10_000,
		"forward-progress watchdog limit per scenario (0 disables)")
	verbose := flag.Bool("v", false, "print each scenario")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	for run := 0; run < *runs; run++ {
		if err := oneRun(rng, *cores, *timeoutCycles, *verbose); err != nil {
			log.Fatalf("run %d FAILED: %v", run, err)
		}
	}
	fmt.Printf("ok: %d randomized crash scenarios, no durability violations\n", *runs)
}

// oneRun builds a random program per core (single word per line, disjoint
// address spaces per core), runs it to a random crash point, and validates
// NVMM contents.
func oneRun(rng *rand.Rand, cores int, timeoutCycles int64, verbose bool) error {
	s := sim.New(sim.DefaultConfig(cores))
	if timeoutCycles > 0 {
		s.ArmWatchdog(timeoutCycles)
	}
	baseAddrs := []uint64{0x1000, 0x2000, 0x3000, 0x11000}
	progs := make([]*isa.Program, cores)
	for c := 0; c < cores; c++ {
		b := isa.NewBuilder()
		n := 10 + rng.Intn(30)
		for i := 0; i < n; i++ {
			a := baseAddrs[rng.Intn(len(baseAddrs))] + uint64(c)*0x100000
			switch rng.Intn(5) {
			case 0, 1:
				b.Store(a, uint64(rng.Intn(100))+1)
			case 2:
				b.Cbo(a, rng.Intn(2) == 0)
			case 3:
				b.Fence()
			case 4:
				b.Load(a)
			}
		}
		b.Fence()
		progs[c] = b.Build()
		s.Cores[c].SetProgram(progs[c])
	}

	crashAt := s.Now() + int64(50+rng.Intn(2000))
	for s.Now() < crashAt {
		// StepGuarded converts both watchdog trips and simulator panics
		// into a structured HangReport instead of a hang or a crash.
		if err := s.StepGuarded(); err != nil {
			var he *sim.HangError
			if errors.As(err, &he) {
				return fmt.Errorf("%w\n%s", err, he.Report.JSON())
			}
			return err
		}
		if s.Done() && s.Quiescent() {
			break
		}
	}
	// Snapshot per-instruction timings before the crash wipes core state.
	snapshots := make([][]boom.Timing, cores)
	for c := 0; c < cores; c++ {
		snapshots[c] = append([]boom.Timing(nil), s.Cores[c].Timings()...)
	}
	s.Crash(rng.Intn(2) == 0)

	for c := 0; c < cores; c++ {
		if err := checkCore(s, progs[c], snapshots[c], c, verbose); err != nil {
			return err
		}
	}
	return nil
}

// checkCore computes, per address, which values the §4 semantics permit in
// NVMM after the crash and verifies the actual contents.
func checkCore(s *sim.System, p *isa.Program, timings []boom.Timing, core int, verbose bool) error {
	byAddr := map[uint64][]int{}
	for i, in := range p.Instrs {
		if in.Op == isa.OpStore {
			byAddr[in.Addr] = append(byAddr[in.Addr], i)
		}
	}
	for addr, stores := range byAddr {
		guaranteed := -1
		for _, si := range stores {
			if guaranteedDurable(p, timings, si, addr) {
				guaranteed = si
			}
		}
		got := s.Mem.PeekUint64(addr)
		allowed := map[uint64]bool{}
		if guaranteed < 0 {
			allowed[0] = true // never written back: zero is fine
		}
		// Any store at or after the guaranteed one may be the durable
		// value (evictions and later flushes persist opportunistically).
		for _, si := range stores {
			if si >= guaranteed {
				allowed[p.Instrs[si].Data] = true
			}
		}
		if !allowed[got] {
			return fmt.Errorf("core %d addr %#x: NVMM holds %d; guaranteed store idx %d, allowed %v",
				core, addr, got, guaranteed, allowed)
		}
		if verbose {
			fmt.Printf("core %d addr %#x: NVMM=%d ok (guaranteed idx %d)\n", core, addr, got, guaranteed)
		}
	}
	return nil
}

// guaranteedDurable reports whether store si to addr is covered by the
// Fig. 5(c) chain: a CBO.X to its line later in program order that
// completed, followed by a fence that completed before the crash.
func guaranteedDurable(p *isa.Program, timings []boom.Timing, si int, addr uint64) bool {
	line := addr &^ 63
	for ci := si + 1; ci < len(p.Instrs); ci++ {
		in := p.Instrs[ci]
		if (in.Op == isa.OpCboClean || in.Op == isa.OpCboFlush) && in.Addr&^63 == line {
			if timings[ci].CompletedAt < 0 {
				continue
			}
			for fi := ci + 1; fi < len(p.Instrs); fi++ {
				if p.Instrs[fi].Op == isa.OpFence && timings[fi].CompletedAt >= 0 {
					return true
				}
			}
		}
	}
	return false
}
