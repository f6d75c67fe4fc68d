package sim

import (
	"reflect"
	"testing"

	"skipit/internal/isa"
)

// ffWorkload is a two-core workload with enough idle windows (DRAM misses,
// flush round-trips, a long nop stretch) for the fast-forward clock to bite.
func ffWorkload() []*isa.Program {
	p0 := isa.NewBuilder().
		Store(0x1000, 7).Store(0x2000, 8).CboClean(0x1000).
		Nops(200).
		Load(0x3000).Store(0x3000, 9).CboFlush(0x3000).
		Load(0x1000).Fence().Build()
	p1 := isa.NewBuilder().
		Load(0x101000).Nops(150).Store(0x101000, 4).
		CboClean(0x101000).Load(0x102000).Fence().Build()
	return []*isa.Program{p0, p1}
}

// fourCoreMix is a four-core mix of store bursts, clean/flush traffic, AMOs
// and idle stretches on shared lines, so L2 probes and cross-core coherence
// traffic interleave with the idle windows the clock skips.
func fourCoreMix() []*isa.Program {
	p0 := isa.NewBuilder().
		StoreRegion(0x1000, 16*64, 64, 7).CboRegionLoop(0x1000, 16*64, 64, true, 2).
		Load(0x40000).AmoAdd(0x40000, 3).Nops(120).
		Load(0x2000).Store(0x2000, 9).CboFlush(0x2000).Fence().Build()
	p1 := isa.NewBuilder().
		Load(0x1000).Store(0x1040, 5).Nops(40).
		AmoSwap(0x40000, 11).StoreRegion(0x8000, 8, 64, 2).
		CboClean(0x8000).Fence().Build()
	p2 := isa.NewBuilder().
		Nops(300).Load(0x40000).Store(0x40040, 1).
		CboClean(0x40040).Load(0x1040).Fence().Build()
	p3 := isa.NewBuilder().
		Store(0x90000, 4).CboFlush(0x90000).Nops(10).
		Load(0x90000).CflushDL1(0x90000).Fence().Build()
	return []*isa.Program{p0, p1, p2, p3}
}

// eightCoreMix gives each of eight cores its own store burst and CBO
// passes, a fence that stalls on the flush unit's drain, an idle stretch of
// its own length, and loads, stores and AMOs on lines the cores share. So the
// tiles sleep and wake at different cycles, probes cross between them, and
// drain stalls run across sampler boundaries and idle windows.
func eightCoreMix() []*isa.Program {
	progs := make([]*isa.Program, 8)
	for c := range progs {
		base := uint64(0x10000 * (c + 1))
		shared := uint64(0x80000 + 64*(c%3))
		b := isa.NewBuilder().
			StoreRegion(base, uint64(4+c)*64, 64, uint64(c+1)).
			CboRegion(base, uint64(4+c)*64, 64, c%2 == 0).Fence().
			Nops(30*c).
			Load(shared).Store(shared+8, uint64(c)).AmoAdd(0x80100, 1).
			CboFlush(shared).Nops(50).Load(base).Fence()
		progs[c] = b.Build()
	}
	return progs
}

// runWorkload runs progs on a fresh system with the given clock mode and
// returns the system and its finish cycle.
func runWorkload(t *testing.T, progs []*isa.Program, fastForward bool, sampleEvery int64) (*System, int64) {
	t.Helper()
	s := New(DefaultConfig(len(progs)))
	s.SetFastForward(fastForward)
	if sampleEvery > 0 {
		s.EnableSampling(sampleEvery)
	}
	cycle, err := s.Run(progs, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return s, cycle
}

// runGuarded is runWorkload stepping under the watchdog, as the chaos
// runner does: StepGuarded, then FastForward clamped to the cycle limit.
func runGuarded(t *testing.T, progs []*isa.Program, fastForward bool, sampleEvery, watchdog int64) (*System, int64) {
	t.Helper()
	s := New(DefaultConfig(len(progs)))
	s.SetFastForward(fastForward)
	s.EnableSampling(sampleEvery)
	s.ArmWatchdog(watchdog)
	for i, p := range progs {
		s.Cores[i].SetProgram(p)
	}
	const limit = 1_000_000
	for !(s.Done() && s.Quiescent()) {
		if s.Now() >= limit {
			t.Fatal("runaway")
		}
		if err := s.StepGuarded(); err != nil {
			t.Fatal(err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if s.Done() && s.Quiescent() {
			break
		}
		s.FastForward(limit)
	}
	return s, s.Now()
}

// TestFastForwardEquivalence: every observable — finish cycle, final clock,
// every counter, every sampled series point — must be identical with the
// next-event clock on and off. Only sim.skipped_cycles (the clock's own
// odometer) may differ. The eight-core row steps under the watchdog with a
// short sampler interval, so the tiles' wakes meet every clamp.
func TestFastForwardEquivalence(t *testing.T) {
	cases := []struct {
		name        string
		progs       func() []*isa.Program
		sampleEvery int64
		watchdog    int64 // >0: step under the watchdog (runGuarded)
	}{
		{"two-core idle-heavy", ffWorkload, 100, 0},
		{"four-core shared-line mix", fourCoreMix, 50, 0},
		{"eight-core tiles under sampler and watchdog", eightCoreMix, 7, 3_000},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(ff bool) (*System, int64) {
				if c.watchdog > 0 {
					return runGuarded(t, c.progs(), ff, c.sampleEvery, c.watchdog)
				}
				return runWorkload(t, c.progs(), ff, c.sampleEvery)
			}
			sFF, cycFF := run(true)
			sSlow, cycSlow := run(false)
			if cycFF != cycSlow {
				t.Fatalf("finish cycle differs: ff=%d slow=%d", cycFF, cycSlow)
			}
			if sSlow.SkippedCycles() != 0 {
				t.Fatalf("slow clock skipped %d cycles", sSlow.SkippedCycles())
			}
			if sFF.SkippedCycles() == 0 {
				t.Fatal("fast-forward clock skipped nothing on a workload with idle stretches")
			}
			if n := uint64(len(sFF.Cores)); sFF.TileTicks() >= n*(uint64(sFF.Now())-sFF.SkippedCycles()) {
				t.Fatalf("%d tile ticks over %d ticked cycles: no tile ever slept", sFF.TileTicks(), uint64(sFF.Now())-sFF.SkippedCycles())
			}
			assertSameObservables(t, sFF, sSlow)
		})
	}
}

// assertSameObservables compares everything a finished run exposes except
// the fast-forward odometer: final clock, counters, per-core instruction
// timings and sampled series.
func assertSameObservables(t *testing.T, sFF, sSlow *System) {
	t.Helper()
	if sFF.Now() != sSlow.Now() {
		t.Fatalf("clock differs: ff=%d slow=%d", sFF.Now(), sSlow.Now())
	}
	snapFF, snapSlow := sFF.Snapshot(), sSlow.Snapshot()
	delete(snapFF.Counters, "sim.skipped_cycles")
	delete(snapSlow.Counters, "sim.skipped_cycles")
	if !reflect.DeepEqual(snapFF.Counters, snapSlow.Counters) {
		for k, v := range snapFF.Counters {
			if w := snapSlow.Counters[k]; v != w {
				t.Errorf("counter %s: ff=%d slow=%d", k, v, w)
			}
		}
		t.Fatal("counters diverged")
	}
	// Per-core timings (cycle-stamped per instruction) must match exactly.
	for i := range sFF.Cores {
		if !reflect.DeepEqual(sFF.Cores[i].Timings(), sSlow.Cores[i].Timings()) {
			t.Fatalf("core %d timings diverged", i)
		}
	}
	// The sampler must have fired at the same boundaries with the same
	// values, except for the skipped-cycles odometer's own series.
	ser := func(s *System) map[string][]uint64 {
		out := map[string][]uint64{}
		for _, sr := range s.Snapshot().Series {
			if sr.Key == "sim.skipped_cycles" {
				continue
			}
			out[sr.Key] = sr.Values
		}
		return out
	}
	if !reflect.DeepEqual(ser(sFF), ser(sSlow)) {
		t.Fatal("sampled series diverged")
	}
}

// TestFastForwardClamps unit-tests each clamp in FastForward directly.
func TestFastForwardClamps(t *testing.T) {
	t.Run("fully idle no clamps", func(t *testing.T) {
		s := New(DefaultConfig(1))
		s.Step() // establish now=1 with components ticked at 0
		if skipped := s.FastForward(); skipped != 0 {
			t.Fatalf("idle system with no clamp skipped %d cycles", skipped)
		}
		if s.Now() != 1 {
			t.Fatalf("clock moved to %d", s.Now())
		}
	})
	t.Run("caller limit", func(t *testing.T) {
		s := New(DefaultConfig(1))
		s.Step()
		if skipped := s.FastForward(500); skipped != 499 {
			t.Fatalf("skipped %d cycles, want 499", skipped)
		}
		if s.Now() != 500 {
			t.Fatalf("clock at %d, want 500", s.Now())
		}
	})
	t.Run("sampler boundary", func(t *testing.T) {
		s := New(DefaultConfig(1))
		s.EnableSampling(64)
		s.Step()
		s.FastForward(1000)
		if s.Now() != 64 {
			t.Fatalf("clock at %d, want sampler boundary 64", s.Now())
		}
	})
	t.Run("watchdog trip cycle", func(t *testing.T) {
		s := New(DefaultConfig(1))
		s.ArmWatchdog(100) // wdLastChange = 0 → first tripping ticked cycle is 99
		s.Step()
		s.FastForward(10_000)
		if s.Now() != 99 {
			t.Fatalf("clock at %d, want watchdog trip cycle 99", s.Now())
		}
		// Ticking that cycle must trip the watchdog, exactly as if every
		// cycle in between had been stepped.
		err := s.StepGuarded()
		if err == nil {
			t.Fatal("watchdog did not trip")
		}
		he, ok := err.(*HangError)
		if !ok {
			t.Fatalf("unexpected error type %T: %v", err, err)
		}
		if he.Report.Cycle != 100 || he.Report.Window != 100 {
			t.Fatalf("trip at cycle %d window %d, want cycle 100 window 100",
				he.Report.Cycle, he.Report.Window)
		}
	})
	t.Run("disabled", func(t *testing.T) {
		s := New(DefaultConfig(1))
		s.SetFastForward(false)
		s.Step()
		if skipped := s.FastForward(500); skipped != 0 {
			t.Fatalf("disabled clock skipped %d cycles", skipped)
		}
	})
}

// TestFastForwardNeverSkipsArmedEvents drives the full matrix of armed
// observation points on a real workload: sampler series, watchdog bookkeeping
// and run results must be identical whether idle windows are stepped or
// skipped, even with the watchdog armed tightly enough to matter.
func TestFastForwardNeverSkipsArmedEvents(t *testing.T) {
	run := func(ff bool) (*System, int64) {
		s := New(DefaultConfig(2))
		s.SetFastForward(ff)
		s.EnableSampling(50)
		s.ArmWatchdog(5_000)
		for i, p := range ffWorkload() {
			s.Cores[i].SetProgram(p)
		}
		for !(s.Done() && s.Quiescent()) {
			if s.Now() > 1_000_000 {
				t.Fatal("runaway")
			}
			if err := s.StepGuarded(); err != nil {
				t.Fatal(err)
			}
			// Re-check before fast-forwarding: a freshly terminal SoC has no
			// next event, and the sampler clamp would otherwise overshoot the
			// exit cycle.
			if s.Done() && s.Quiescent() {
				break
			}
			s.FastForward()
		}
		return s, s.Now()
	}
	sFF, nFF := run(true)
	sSlow, nSlow := run(false)
	if nFF != nSlow {
		t.Fatalf("final cycle differs: ff=%d slow=%d", nFF, nSlow)
	}
	snapFF, snapSlow := sFF.Snapshot(), sSlow.Snapshot()
	delete(snapFF.Counters, "sim.skipped_cycles")
	delete(snapSlow.Counters, "sim.skipped_cycles")
	if !reflect.DeepEqual(snapFF.Counters, snapSlow.Counters) {
		t.Fatal("counters diverged under armed watchdog + sampler")
	}
}
