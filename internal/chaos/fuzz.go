package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"skipit/internal/boom"
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
	// FailDurability: after a crash, NVMM lost a write the Fig. 5(c) rule
	// guarantees (see checkDurability).
	FailDurability FailKind = "durability"
)

// Failure describes one failing run.
type Failure struct {
	Kind    FailKind        `json:"kind"`
	Message string          `json:"message"`
	Cycle   int64           `json:"cycle"`
	Report  *sim.HangReport `json:"report,omitempty"` // hang/panic only
	// FlightRecorder holds the per-component event-ring dump for failures
	// without a HangReport (timeout, invariant, corruption, durability);
	// hang and panic failures carry the dump inside Report instead.
	// Deterministic, so fast-forwarded and single-stepped replays produce
	// identical dumps.
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
	// MidRunCrash reports a crash that cut power before every program
	// finished and the SoC drained.
	MidRunCrash bool `json:"mid_run_crash,omitempty"`
}

// Case is one fuzzer iteration's parameters; everything concrete (programs,
// schedule, crash point) derives deterministically from Seed.
type Case struct {
	Seed      int64
	Cores     int
	ProgLen   int
	NumFaults int
	// Lines, when positive (at most 64), draws each core's line pool as
	// that many lines of a 64-line window and ends each program by
	// reloading every word it wrote, so the state a run leaves is checked
	// too. Zero keeps the fixed 7-line pool.
	Lines int
	// Crash cuts power at a cycle drawn from the seed and then holds NVMM
	// to the Fig. 5(c) rule.
	Crash bool
	// Config is the SoC to build; nil means sim.DefaultConfig(Cores).
	Config *sim.Config
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

// Input is the concrete, replayable form of a case: the programs, the
// schedule, the SoC and the crash point, plus the run bounds. Shrinking
// operates on Inputs.
type Input struct {
	Progs         []*isa.Program
	Schedule      Schedule
	Config        *sim.Config // nil: sim.DefaultConfig(len(Progs))
	CycleLimit    int64
	WatchdogLimit int64
	// CrashAt, when positive, cuts power at that cycle, or when the run
	// drains if that comes first. ADR lets writes the memory controller
	// has accepted survive the crash.
	CrashAt int64
	ADR     bool
}

// BuildInput expands a case into its concrete input. Deterministic: the same
// case always yields the same programs and schedule, with or without Crash.
func BuildInput(c Case) Input {
	if c.Cores < 1 {
		c.Cores = 1
	}
	rng := detrand.New(c.Seed)
	progs := make([]*isa.Program, c.Cores)
	var pool []uint64
	for i := 0; i < c.Cores; i++ {
		p, addrs := genProgram(rng, i, c.ProgLen, c.Lines)
		progs[i] = p
		pool = append(pool, addrs...)
	}
	gcfg := DefaultGenConfig(c.Cores)
	gcfg.NumFaults = c.NumFaults
	gcfg.AddrPool = pool
	// Concentrate faults where the action is: a ProgLen-instruction program
	// retires in tens of cycles per instruction, so a span tied to program
	// length lands most faults mid-run instead of after quiescence.
	gcfg.CycleSpan = max(300, int64(c.ProgLen)*25)
	gcfg.MaxDuration = max(100, gcfg.CycleSpan/4)
	// Derive the schedule from the same stream so one seed fixes the whole
	// case (the detrand split discipline: one seed, one tree of streams).
	sched := Generate(detrand.SplitSeed(rng), gcfg)
	in := Input{
		Progs:         progs,
		Schedule:      sched,
		Config:        c.Config,
		CycleLimit:    c.CycleLimit,
		WatchdogLimit: c.WatchdogLimit,
	}
	if c.Crash {
		// Split off last, so the draws above do not depend on Crash. The
		// crash lands in the fault span, where the programs still run.
		crash := detrand.Split(rng)
		in.CrashAt = 50 + crash.Int63n(gcfg.CycleSpan)
		in.ADR = crash.Intn(2) == 0
	}
	return in
}

// genProgram emits a random program for one core over a private address pool
// (disjoint per core, so a sequential per-core golden model predicts every
// load). The pool mixes same-set aliases and distant lines to exercise
// victims, and the program ends with a fence so all stores land before the
// run is judged quiescent. With nlines > 0 the pool is nlines lines drawn
// from a 64-line window, and the program then reloads every word it wrote.
func genProgram(rng *rand.Rand, core, length, nlines int) (*isa.Program, []uint64) {
	base := 0x1000 + uint64(core)<<20
	lines := []uint64{
		base, base + 64, base + 128, base + 192,
		base + 0x1000, base + 0x2000, base + 0x1040,
	}
	if nlines > 0 {
		lines = lines[:0]
		for _, k := range rng.Perm(64)[:nlines] {
			lines = append(lines, base+uint64(k)*64)
		}
	}
	var written []uint64 // words in first-write order, for the reload
	seen := map[uint64]bool{}
	pick := func(write bool) uint64 {
		w := lines[rng.Intn(len(lines))] + 8*uint64(rng.Intn(8))
		if write && !seen[w] {
			seen[w] = true
			written = append(written, w)
		}
		return w
	}
	b := isa.NewBuilder()
	for i := 0; i < length; i++ {
		switch r := rng.Intn(20); {
		case r < 6:
			b.Store(pick(true), rng.Uint64()%1000+1)
		case r < 11:
			b.Load(pick(false))
		case r < 13:
			b.AmoAdd(pick(true), rng.Uint64()%100+1)
		case r < 15:
			b.AmoSwap(pick(true), rng.Uint64()%1000+1)
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
	if nlines > 0 {
		for _, w := range written {
			b.Load(w)
		}
	}
	return b.Build(), lines
}

// RunInput executes one concrete input on a fresh system: faults armed,
// watchdog armed, invariants checked every cycle, load values verified
// against the golden model afterwards and, for a crash input, NVMM held to
// the Fig. 5(c) rule. A nil Failure means the run survived.
func RunInput(in Input) (*Failure, Stats) {
	fail, st, _ := runInput(in, true)
	return fail, st
}

// runInput is RunInput with the fast-forward clock switchable, so the
// equivalence tests can pin fast-forwarded replays against single-stepped
// ones; it also returns the system, whose NVMM they compare.
func runInput(in Input, fastForward bool) (*Failure, Stats, *sim.System) {
	cfg := sim.DefaultConfig(len(in.Progs))
	if in.Config != nil {
		cfg = *in.Config
	}
	s := sim.New(cfg)
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
	limits := []int64{in.CycleLimit}
	if in.CrashAt > 0 {
		limits = append(limits, in.CrashAt)
	}
	var fail *Failure
	midRunCrash := false
	for !(s.Done() && s.Quiescent()) {
		if in.CrashAt > 0 && s.Now() >= in.CrashAt {
			midRunCrash = true
			break
		}
		if s.Now() >= in.CycleLimit {
			fail = &Failure{
				Kind:    FailTimeout,
				Cycle:   s.Now(),
				Message: fmt.Sprintf("cycle limit %d exceeded before quiescence", in.CycleLimit),
			}
			break
		}
		if err := r.StepChecked(limits...); err != nil {
			fail = classify(err, s.Now())
			break
		}
	}
	timings := make([][]boom.Timing, len(s.Cores))
	for c, core := range s.Cores {
		timings[c] = core.Timings() // a crash gives each core a fresh array
	}
	if fail == nil {
		fail = checkValues(in.Progs, timings, s.Now())
	}
	if fail == nil && in.CrashAt > 0 {
		s.Crash(in.ADR)
		fail = checkDurability(in.Progs, timings, s.Mem.PeekUint64, s.Now())
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
		MidRunCrash:       midRunCrash,
	}
	return fail, st, s
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

// Run expands and executes one fuzzer case.
func Run(c Case) (*Failure, Stats, Input) {
	in := BuildInput(c)
	fail, st := RunInput(in)
	return fail, st, in
}
