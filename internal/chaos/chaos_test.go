package chaos

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"skipit/internal/isa"
	"skipit/internal/l1"
	"skipit/internal/sim"
)

func TestScheduleDeterminism(t *testing.T) {
	cfg := DefaultGenConfig(2)
	cfg.AddrPool = []uint64{0x1000, 0x2000}
	a := Generate(42, cfg)
	b := Generate(42, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a, b)
	}
	c := Generate(43, cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	for i := 1; i < len(a.Faults); i++ {
		if a.Faults[i].Cycle < a.Faults[i-1].Cycle {
			t.Fatalf("schedule not sorted at %d: %v", i, a.Faults)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	// A clean case and a faulted case must both replay bit-identically:
	// same stats, same flip outcomes, same failure (or absence of one).
	for _, seed := range []int64{3, 7} {
		c := DefaultCase(seed, 2)
		f1, s1, in1 := Run(c)
		f2, s2, in2 := Run(c)
		if !reflect.DeepEqual(in1.Schedule, in2.Schedule) {
			t.Fatalf("seed %d: schedules differ", seed)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("seed %d: stats differ:\n%+v\n%+v", seed, s1, s2)
		}
		if !reflect.DeepEqual(f1, f2) {
			t.Fatalf("seed %d: failures differ:\n%+v\n%+v", seed, f1, f2)
		}
	}
}

// hangInput builds the canonical deterministic hang: channel D (grants)
// stalled forever starves the first miss. The junk faults are noise the
// shrinker must strip.
func hangInput(junk bool) Input {
	p, err := isa.Parse("sd 0x1000 7\nld 0x2000\nnop 4\nsd 0x3000 9\nfence\n")
	if err != nil {
		panic(err)
	}
	faults := []Fault{
		{Cycle: 0, Kind: LinkStall, Core: 0, Channel: 3, Duration: 10_000_000},
	}
	if junk {
		faults = append(faults,
			Fault{Cycle: 5, Kind: LinkDelay, Core: 0, Channel: 0, Duration: 50, Extra: 3},
			Fault{Cycle: 9, Kind: L1Nack, Core: 0, Duration: 20},
			Fault{Cycle: 40, Kind: L2MSHRSqueeze, Duration: 60, Quota: 1},
			Fault{Cycle: 300, Kind: FSHRSqueeze, Core: 0, Duration: 80, Quota: 0},
		)
	}
	s := Schedule{Faults: faults}
	s.Normalize()
	return Input{
		Progs:         []*isa.Program{p},
		Schedule:      s,
		CycleLimit:    100_000,
		WatchdogLimit: 1_000,
	}
}

func TestHangDetection(t *testing.T) {
	fail, st := RunInput(hangInput(false))
	if fail == nil || fail.Kind != FailHang {
		t.Fatalf("want hang, got %+v", fail)
	}
	if fail.Report == nil || fail.Report.Reason != "no-progress" {
		t.Fatalf("hang without report: %+v", fail)
	}
	if st.WatchdogTrips != 1 {
		t.Fatalf("watchdog_trips = %d, want 1", st.WatchdogTrips)
	}
}

func TestShrinkReducesToMinimalRepro(t *testing.T) {
	in := hangInput(true)
	fail, _ := RunInput(in)
	if fail == nil || fail.Kind != FailHang {
		t.Fatalf("want hang, got %+v", fail)
	}
	shrunk, runs := Shrink(in, FailHang, ShrinkOpts{})
	if runs == 0 || runs > DefaultShrinkRuns {
		t.Fatalf("suspicious shrink run count %d", runs)
	}
	if got := len(shrunk.Schedule.Faults); got != 1 {
		t.Fatalf("schedule not minimal: %d faults: %v", got, shrunk.Schedule.Faults)
	}
	if shrunk.Schedule.Faults[0].Kind != LinkStall {
		t.Fatalf("wrong surviving fault: %v", shrunk.Schedule.Faults[0])
	}
	// The program must have lost the instructions irrelevant to the hang;
	// a single load suffices to starve on the stalled grant channel.
	if got := len(shrunk.Progs[0].Instrs); got >= len(in.Progs[0].Instrs) {
		t.Fatalf("program not shrunk: still %d instrs", got)
	}
	fail2, _ := RunInput(shrunk)
	if fail2 == nil || fail2.Kind != FailHang {
		t.Fatalf("shrunk input no longer hangs: %+v", fail2)
	}
	// Shrinking must be deterministic too.
	shrunk2, _ := Shrink(hangInput(true), FailHang, ShrinkOpts{})
	if !reflect.DeepEqual(shrunk.Schedule, shrunk2.Schedule) {
		t.Fatal("shrink not deterministic")
	}
}

func TestReproRoundTrip(t *testing.T) {
	cfg := sim.DefaultConfig(1)
	cfg.L1.Sets, cfg.L1.Ways = 1, 2
	crash := DefaultCase(5, 1)
	crash.Crash, crash.Config = true, &cfg
	for _, in := range []Input{hangInput(true), BuildInput(crash)} {
		fail, st := RunInput(in)
		r := NewRepro(99, in, fail)
		data, err := r.Encode()
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeRepro(data)
		if err != nil {
			t.Fatal(err)
		}
		in2, err := back.Input()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in.Progs[0].Instrs, in2.Progs[0].Instrs) {
			t.Fatal("program did not survive the text round-trip")
		}
		if !reflect.DeepEqual(in.Config, in2.Config) || in.CrashAt != in2.CrashAt || in.ADR != in2.ADR {
			t.Fatalf("config or crash point did not survive the round-trip: %+v", back)
		}
		fail2, st2 := RunInput(in2)
		if !reflect.DeepEqual(fail, fail2) || !reflect.DeepEqual(st, st2) {
			t.Fatalf("replay diverged:\n%+v %+v\n%+v %+v", fail, st, fail2, st2)
		}
	}
}

// TestCommittedHangArtifactReplays pins the committed known-bad schedule: the
// replay must reproduce the recorded failure kind at the recorded cycle,
// bit-identically, on every machine.
func TestCommittedHangArtifactReplays(t *testing.T) {
	data, err := os.ReadFile("testdata/hang.chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	r, err := DecodeRepro(data)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failure == nil || r.Failure.Kind != FailHang {
		t.Fatalf("artifact should record a hang: %+v", r.Failure)
	}
	in, err := r.Input()
	if err != nil {
		t.Fatal(err)
	}
	fail, _ := RunInput(in)
	if fail == nil {
		t.Fatal("replay ran clean")
	}
	if fail.Kind != r.Failure.Kind || fail.Cycle != r.Failure.Cycle {
		t.Fatalf("replay diverged: got %s@%d, recorded %s@%d",
			fail.Kind, fail.Cycle, r.Failure.Kind, r.Failure.Cycle)
	}
}

// TestCommittedArtifactsReplayEitherClock replays every committed .chaos.json
// artifact twice — fast-forward clock on and off — and requires both runs to
// produce the recorded verdict and identical stats. This is the end-to-end
// guarantee that the next-event clock skips only no-op cycles: hang reports
// (trip cycle, window) and timeout cycles must not move by a single cycle.
func TestCommittedArtifactsReplayEitherClock(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	artifacts := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".chaos.json") {
			continue
		}
		artifacts++
		t.Run(e.Name(), func(t *testing.T) {
			data, err := os.ReadFile("testdata/" + e.Name())
			if err != nil {
				t.Fatal(err)
			}
			r, err := DecodeRepro(data)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failure == nil {
				t.Fatal("artifact records no failure")
			}
			in, err := r.Input()
			if err != nil {
				t.Fatal(err)
			}
			failFF, stFF, _ := runInput(in, true)
			failSlow, stSlow, _ := runInput(in, false)
			for _, got := range []*Failure{failFF, failSlow} {
				if got == nil {
					t.Fatal("replay ran clean")
				}
				if got.Kind != r.Failure.Kind || got.Cycle != r.Failure.Cycle {
					t.Fatalf("replay diverged: got %s@%d, recorded %s@%d",
						got.Kind, got.Cycle, r.Failure.Kind, r.Failure.Cycle)
				}
			}
			if !reflect.DeepEqual(failFF, failSlow) {
				t.Fatalf("fast-forward changed the verdict:\nff:   %+v\nslow: %+v",
					failFF, failSlow)
			}
			if r.Failure.Report != nil {
				if failFF.Report == nil ||
					failFF.Report.Cycle != r.Failure.Report.Cycle ||
					failFF.Report.Window != r.Failure.Report.Window {
					t.Fatalf("hang report diverged:\ngot      %+v\nrecorded %+v",
						failFF.Report, r.Failure.Report)
				}
			}
			if !reflect.DeepEqual(stFF, stSlow) {
				t.Fatalf("fast-forward changed the stats:\nff:   %+v\nslow: %+v",
					stFF, stSlow)
			}
		})
	}
	if artifacts < 2 {
		t.Fatalf("expected at least 2 committed artifacts, found %d", artifacts)
	}
}

// TestFuzzEquivalenceEitherClock runs a handful of full fuzzer cases, with
// and without a crash, with the fast-forward clock on and off; verdicts,
// cycle counts, every chaos stat and the NVMM words the programs wrote must
// match bit for bit. A crash case's programs and schedule are those of the
// same seed without it. The eight-core cases have tiles sleeping while
// others run, through faults, bit flips and crash points.
func TestFuzzEquivalenceEitherClock(t *testing.T) {
	for _, cores := range []int{2, 8} {
		seeds := int64(10)
		if cores == 8 {
			seeds = 6
		}
		for seed := int64(1); seed <= seeds; seed++ {
			fuzzEquivalenceCase(t, seed, cores)
		}
	}
}

func fuzzEquivalenceCase(t *testing.T, seed int64, cores int) {
	t.Helper()
	plain := BuildInput(DefaultCase(seed, cores))
	for _, crash := range []bool{false, true} {
		c := DefaultCase(seed, cores)
		c.Crash = crash
		in := BuildInput(c)
		if !reflect.DeepEqual(in.Progs, plain.Progs) || !reflect.DeepEqual(in.Schedule, plain.Schedule) {
			t.Fatalf("%d cores, seed %d: Crash changed the programs or the schedule", cores, seed)
		}
		if crash != (in.CrashAt > 0) {
			t.Fatalf("%d cores, seed %d, crash %v: CrashAt %d", cores, seed, crash, in.CrashAt)
		}
		failFF, stFF, sFF := runInput(in, true)
		failSlow, stSlow, sSlow := runInput(in, false)
		if !reflect.DeepEqual(failFF, failSlow) {
			t.Fatalf("%d cores, seed %d, crash %v: verdicts differ:\nff:   %+v\nslow: %+v", cores, seed, crash, failFF, failSlow)
		}
		if !reflect.DeepEqual(stFF, stSlow) {
			t.Fatalf("%d cores, seed %d, crash %v: stats differ:\nff:   %+v\nslow: %+v", cores, seed, crash, stFF, stSlow)
		}
		for _, p := range in.Progs {
			for _, ins := range p.Instrs {
				if !writes(ins.Op) {
					continue
				}
				if ff, slow := sFF.Mem.PeekUint64(ins.Addr), sSlow.Mem.PeekUint64(ins.Addr); ff != slow {
					t.Fatalf("%d cores, seed %d, crash %v: NVMM %#x holds %#x with fast-forward, %#x without", cores, seed, crash, ins.Addr, ff, slow)
				}
			}
		}
	}
}

// TestBitFlipWakesEveryPart: a bit flip changes a cache outside Step, so
// the step that follows it ticks every tile and the hub, whatever their
// cached wakes say; here every part is asleep on an idle SoC.
func TestBitFlipWakesEveryPart(t *testing.T) {
	s := sim.New(sim.DefaultConfig(4))
	progs := []*isa.Program{isa.NewBuilder().Store(0x1000, 77).CboClean(0x1000).Fence().Build(), nil, nil, nil}
	if _, err := s.Run(progs, 10_000); err != nil {
		t.Fatal(err)
	}
	flipAt := s.Now() + 10
	r := Arm(s, Schedule{Faults: []Fault{{Cycle: flipAt, Kind: L1BitFlip, Core: 0, Addr: 0x1000, Bit: 3}}})
	for s.Now() < flipAt {
		if err := r.StepChecked(); err != nil {
			t.Fatal(err)
		}
	}
	tiles, hub := s.TileTicks(), s.HubTicks()
	if err := r.StepChecked(); err != nil {
		t.Fatal(err)
	}
	if flips := r.Flips(); len(flips) != 1 || flips[0].Outcome != l1.FlipApplied.String() {
		t.Fatalf("flips %+v, want one applied", flips)
	}
	if got := s.TileTicks() - tiles; got != 4 {
		t.Fatalf("the step after the flip ticked %d tiles, want all 4", got)
	}
	if got := s.HubTicks() - hub; got != 1 {
		t.Fatalf("the step after the flip ticked the hub %d times, want 1", got)
	}
}

// TestBitFlipRecovery drives the ECC model end to end on a real system: a
// flip on a clean resident line is detected at the next access and healed
// through the refetch path, with the architectural value intact.
func TestBitFlipRecovery(t *testing.T) {
	s := sim.New(sim.DefaultConfig(1))
	// Make 0x1000 resident and clean: store, then CBO.CLEAN writes it back
	// without invalidating.
	if _, err := s.Run([]*isa.Program{
		isa.NewBuilder().Store(0x1000, 77).CboClean(0x1000).Fence().Build(),
	}, 10_000); err != nil {
		t.Fatal(err)
	}
	if out := s.L1s[0].InjectBitFlip(0x1000, 13); out != l1.FlipApplied {
		t.Fatalf("flip outcome %v, want applied", out)
	}
	if _, err := s.Run([]*isa.Program{
		isa.NewBuilder().Load(0x1000).Fence().Build(),
	}, 10_000); err != nil {
		t.Fatal(err)
	}
	if got := s.Cores[0].Timing(0).LoadValue; got != 77 {
		t.Fatalf("corruption leaked: loaded %d, want 77", got)
	}
	if got := s.Metrics().Counter("chaos", "refetch_recoveries").Value(); got != 1 {
		t.Fatalf("refetch_recoveries = %d, want 1", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestECCRepairsInFlightRecorder: a chaos run whose schedule flips a bit of
// one clean line in the L1 and in the L2 repairs both on the next load, and
// the flight recorder's dump shows each repair: ecc-scrub in the L1 and
// ecc-restore in the L2.
func TestECCRepairsInFlightRecorder(t *testing.T) {
	s := sim.New(sim.DefaultConfig(1))
	s.EnableFlightRecorder(64)
	if _, err := s.Run([]*isa.Program{
		isa.NewBuilder().Store(0x1000, 77).CboClean(0x1000).Fence().Build(),
	}, 10_000); err != nil {
		t.Fatal(err)
	}
	at := s.Now()
	r := Arm(s, Schedule{Faults: []Fault{
		{Cycle: at, Kind: L1BitFlip, Addr: 0x1000, Bit: 13},
		{Cycle: at, Kind: L2BitFlip, Addr: 0x1000, Bit: 13},
	}})
	s.Cores[0].SetProgram(isa.NewBuilder().Load(0x1000).Fence().Build())
	for !(s.Done() && s.Quiescent()) {
		if err := r.StepChecked(at + 10_000); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Cores[0].Timing(0).LoadValue; got != 77 {
		t.Fatalf("corruption leaked: loaded %d, want 77", got)
	}
	repairs := map[string]string{}
	for _, d := range s.FlightRecorder().Dump() {
		for _, e := range d.Events {
			if strings.HasPrefix(e.Code, "ecc-") && e.Addr == "0x1000" {
				repairs[e.Code] = d.Component
			}
		}
	}
	if want := map[string]string{"ecc-scrub": "l1[0]", "ecc-restore": "l2"}; !reflect.DeepEqual(repairs, want) {
		t.Fatalf("flight recorder shows repairs %v, want %v", repairs, want)
	}
}

// TestBitFlipDirtyUnrecoverable: a flip aimed at a dirty line must be flagged
// and not applied — healing it silently would hide real data loss.
func TestBitFlipDirtyUnrecoverable(t *testing.T) {
	s := sim.New(sim.DefaultConfig(1))
	if _, err := s.Run([]*isa.Program{
		isa.NewBuilder().Store(0x1000, 55).Fence().Build(),
	}, 10_000); err != nil {
		t.Fatal(err)
	}
	if out := s.L1s[0].InjectBitFlip(0x1000, 13); out != l1.FlipDirtyUnrecoverable {
		t.Fatalf("flip outcome %v, want dirty-unrecoverable", out)
	}
	if got := s.Metrics().Counter("chaos", "ecc_dirty_unrecoverable").Value(); got != 1 {
		t.Fatalf("ecc_dirty_unrecoverable = %d, want 1", got)
	}
	if _, err := s.Run([]*isa.Program{
		isa.NewBuilder().Load(0x1000).Fence().Build(),
	}, 10_000); err != nil {
		t.Fatal(err)
	}
	if got := s.Cores[0].Timing(0).LoadValue; got != 55 {
		t.Fatalf("dirty line was corrupted: loaded %d, want 55", got)
	}
}

// TestChaosCountersInSnapshot: the chaos and watchdog instruments must appear
// in every snapshot, armed or not, so dashboards see explicit zeros.
func TestChaosCountersInSnapshot(t *testing.T) {
	s := sim.New(sim.DefaultConfig(1))
	snap := s.Metrics().Snapshot(0)
	for _, key := range []string{
		"chaos.faults_injected", "chaos.ecc_flips",
		"chaos.ecc_dirty_unrecoverable", "chaos.refetch_recoveries",
		"sim.watchdog_trips",
	} {
		if _, ok := snap.Counters[key]; !ok {
			t.Errorf("snapshot missing %q", key)
		}
	}
}
