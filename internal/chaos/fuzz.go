package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"skipit/internal/detrand"
	"skipit/internal/isa"
	"skipit/internal/sim"
	"skipit/internal/trace"
)

// recorderDepth is the per-component flight-recorder ring depth armed for
// every chaos run: enough history to see the transactions surrounding a
// failure without bloating .chaos.json artifacts.
const recorderDepth = 64

// FailKind classifies a failing run.
type FailKind string

const (
	// FailInvariant: sim.CheckInvariants reported a cross-layer violation.
	FailInvariant FailKind = "invariant"
	// FailHang: the forward-progress watchdog tripped.
	FailHang FailKind = "hang"
	// FailPanic: a panic escaped a simulator component.
	FailPanic FailKind = "panic"
	// FailTimeout: the cycle limit elapsed with progress still trickling.
	FailTimeout FailKind = "timeout"
	// FailCorruption: a load observed a value the golden sequential model
	// says it cannot (e.g. a silently leaked ECC flip).
	FailCorruption FailKind = "corruption"
)

// Failure describes one failing run.
type Failure struct {
	Kind    FailKind        `json:"kind"`
	Message string          `json:"message"`
	Cycle   int64           `json:"cycle"`
	Report  *sim.HangReport `json:"report,omitempty"` // hang/panic only
	// FlightRecorder holds the per-component event-ring dump for failures
	// without a HangReport (timeout, invariant, corruption); hang and panic
	// failures carry the dump inside Report instead. Deterministic, so
	// fast-forwarded and single-stepped replays produce identical dumps.
	FlightRecorder []trace.RecDump `json:"flight_recorder,omitempty"`
}

func (f *Failure) Error() string {
	return fmt.Sprintf("chaos: %s at cycle %d: %s", f.Kind, f.Cycle, f.Message)
}

// Stats summarizes a run's chaos activity, read back from the metrics
// registry.
type Stats struct {
	Cycles            int64        `json:"cycles"`
	FaultsInjected    uint64       `json:"faults_injected"`
	EccFlips          uint64       `json:"ecc_flips"`
	EccDirtyUnrec     uint64       `json:"ecc_dirty_unrecoverable"`
	RefetchRecoveries uint64       `json:"refetch_recoveries"`
	WatchdogTrips     uint64       `json:"watchdog_trips"`
	Flips             []FlipRecord `json:"flips,omitempty"`
}

// Case is one fuzzer iteration's parameters; everything concrete (programs,
// schedule) derives deterministically from Seed.
type Case struct {
	Seed      int64
	Cores     int
	ProgLen   int
	NumFaults int
	// CycleLimit bounds the run; WatchdogLimit arms the forward-progress
	// watchdog (0 disables).
	CycleLimit    int64
	WatchdogLimit int64
}

// DefaultCase sizes a fuzzer iteration for the default SoC.
func DefaultCase(seed int64, cores int) Case {
	return Case{
		Seed:          seed,
		Cores:         cores,
		ProgLen:       24,
		NumFaults:     12,
		CycleLimit:    300_000,
		WatchdogLimit: 20_000,
	}
}

// Input is the concrete, replayable form of a case: the programs and the
// schedule, plus the run bounds. Shrinking operates on Inputs.
type Input struct {
	Progs         []*isa.Program
	Schedule      Schedule
	CycleLimit    int64
	WatchdogLimit int64
}

// BuildInput expands a case into its concrete input. Deterministic: the same
// case always yields the same programs and schedule.
func BuildInput(c Case) Input {
	if c.Cores < 1 {
		c.Cores = 1
	}
	rng := detrand.New(c.Seed)
	progs := make([]*isa.Program, c.Cores)
	var pool []uint64
	for i := 0; i < c.Cores; i++ {
		p, addrs := genProgram(rng, i, c.ProgLen)
		progs[i] = p
		pool = append(pool, addrs...)
	}
	gcfg := DefaultGenConfig(c.Cores)
	gcfg.NumFaults = c.NumFaults
	gcfg.AddrPool = pool
	// Concentrate faults where the action is: a ProgLen-instruction program
	// retires in tens of cycles per instruction, so a span tied to program
	// length lands most faults mid-run instead of after quiescence.
	gcfg.CycleSpan = maxi64(300, int64(c.ProgLen)*25)
	gcfg.MaxDuration = maxi64(100, gcfg.CycleSpan/4)
	// Derive the schedule from the same stream so one seed fixes the whole
	// case (the detrand split discipline: one seed, one tree of streams).
	sched := Generate(detrand.SplitSeed(rng), gcfg)
	return Input{
		Progs:         progs,
		Schedule:      sched,
		CycleLimit:    c.CycleLimit,
		WatchdogLimit: c.WatchdogLimit,
	}
}

// genProgram emits a random program for one core over a private address pool
// (disjoint per core, so a sequential per-core golden model predicts every
// load). The pool mixes same-set aliases and distant lines to exercise
// victims, and the program ends with a fence so all stores land before the
// run is judged quiescent.
func genProgram(rng *rand.Rand, core, length int) (*isa.Program, []uint64) {
	base := 0x1000 + uint64(core)<<20
	lines := []uint64{
		base, base + 64, base + 128, base + 192,
		base + 0x1000, base + 0x2000, base + 0x1040,
	}
	pick := func() uint64 { return lines[rng.Intn(len(lines))] + 8*uint64(rng.Intn(8)) }
	b := isa.NewBuilder()
	for i := 0; i < length; i++ {
		switch r := rng.Intn(20); {
		case r < 6:
			b.Store(pick(), rng.Uint64()%1000+1)
		case r < 11:
			b.Load(pick())
		case r < 13:
			b.AmoAdd(pick(), rng.Uint64()%100+1)
		case r < 15:
			b.AmoSwap(pick(), rng.Uint64()%1000+1)
		case r < 17:
			b.CboClean(lines[rng.Intn(len(lines))])
		case r < 18:
			b.CboFlush(lines[rng.Intn(len(lines))])
		case r < 19:
			b.CflushDL1(lines[rng.Intn(len(lines))])
		default:
			b.Fence()
		}
	}
	b.Fence()
	return b.Build(), lines
}

// RunInput executes one concrete input on a fresh default system: faults
// armed, watchdog armed, invariants checked every cycle, and load values
// verified against the golden model afterwards. A nil Failure means the run
// survived.
func RunInput(in Input) (*Failure, Stats) {
	return runInput(in, true)
}

// runInput is RunInput with the fast-forward clock switchable, so the
// equivalence tests can pin fast-forwarded replays against single-stepped
// ones.
func runInput(in Input, fastForward bool) (*Failure, Stats) {
	s := sim.New(sim.DefaultConfig(len(in.Progs)))
	s.SetFastForward(fastForward)
	s.EnableFlightRecorder(recorderDepth)
	if in.WatchdogLimit > 0 {
		s.ArmWatchdog(in.WatchdogLimit)
	}
	r := Arm(s, in.Schedule)
	for i, p := range in.Progs {
		if p == nil {
			p = isa.NewBuilder().Build()
		}
		s.Cores[i].SetProgram(p)
	}
	var fail *Failure
	for !(s.Done() && s.Quiescent()) {
		if s.Now() >= in.CycleLimit {
			fail = &Failure{
				Kind:    FailTimeout,
				Cycle:   s.Now(),
				Message: fmt.Sprintf("cycle limit %d exceeded before quiescence", in.CycleLimit),
			}
			break
		}
		if err := r.StepChecked(in.CycleLimit); err != nil {
			fail = classify(err, s.Now())
			break
		}
	}
	if fail == nil {
		fail = checkValues(in.Progs, s)
	}
	if fail != nil && fail.Report == nil {
		fail.FlightRecorder = s.FlightRecorder().Dump()
	}
	m := s.Metrics()
	st := Stats{
		Cycles:            s.Now(),
		FaultsInjected:    m.Counter("chaos", "faults_injected").Value(),
		EccFlips:          m.Counter("chaos", "ecc_flips").Value(),
		EccDirtyUnrec:     m.Counter("chaos", "ecc_dirty_unrecoverable").Value(),
		RefetchRecoveries: m.Counter("chaos", "refetch_recoveries").Value(),
		WatchdogTrips:     m.Counter("sim", "watchdog_trips").Value(),
		Flips:             r.Flips(),
	}
	return fail, st
}

func classify(err error, now int64) *Failure {
	var he *sim.HangError
	if errors.As(err, &he) {
		kind := FailHang
		if he.Report.Reason == "panic" {
			kind = FailPanic
		}
		return &Failure{Kind: kind, Cycle: now, Message: he.Report.Summary(), Report: he.Report}
	}
	return &Failure{Kind: FailInvariant, Cycle: now, Message: err.Error()}
}

// checkValues replays each program against a sequential golden model. Address
// spaces are disjoint per core, so every load and AMO must observe exactly
// the value the core's own program history dictates; any divergence is data
// corruption the cache hierarchy let through.
func checkValues(progs []*isa.Program, s *sim.System) *Failure {
	for c, p := range progs {
		if p == nil {
			continue
		}
		golden := map[uint64]uint64{}
		timings := s.Cores[c].Timings()
		for i, in := range p.Instrs {
			switch in.Op {
			case isa.OpStore:
				golden[in.Addr] = in.Data
			case isa.OpLoad, isa.OpAmoAdd, isa.OpAmoSwap:
				want := golden[in.Addr]
				if got := timings[i].LoadValue; got != want {
					return &Failure{
						Kind:  FailCorruption,
						Cycle: s.Now(),
						Message: fmt.Sprintf(
							"core %d instr %d (%v %#x): loaded %#x, golden model says %#x",
							c, i, in.Op, in.Addr, got, want),
					}
				}
				switch in.Op {
				case isa.OpAmoAdd:
					golden[in.Addr] = want + in.Data
				case isa.OpAmoSwap:
					golden[in.Addr] = in.Data
				}
			}
		}
	}
	return nil
}

// Run expands and executes one fuzzer case.
func Run(c Case) (*Failure, Stats, Input) {
	in := BuildInput(c)
	fail, st := RunInput(in)
	return fail, st, in
}
