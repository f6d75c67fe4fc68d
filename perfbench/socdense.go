package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"

	"skipit/internal/isa"
	"skipit/internal/sim"
)

// The soc_dense workload: a warmed, serial 4-core SoC with fast-forward on
// runs a rotation of dense per-core programs over disjoint 16 KiB regions,
// one sim.System.Run round at a time.
const (
	socCores       = 4
	socRegionBytes = 16 << 10
	lineBytes      = 64
	// socRegionSets region sets rotate through the rounds; each holds one
	// region per core, so 16 regions (256 KiB) stay resident in the 512 KiB L2.
	socRegionSets = 4
	// socRotation rounds make one rotation of programs. Round i uses region
	// set i%socRegionSets, with store values of its own, so a region's next
	// round always writes values its previous round did not.
	socRotation = 20
	// Region bases are multiples of the L2's set period (1024 sets of 64 B),
	// drawn from socBaseSlots slots: every seed maps its regions onto the same
	// L1 and L2 sets, so the seed moves addresses and values but not the
	// simulated timing.
	socBaseStride = 64 << 10
	socBaseSlots  = 1024

	socWarmRounds = 4   // warm-up rounds in every set-up
	socSetupReps  = 5   // set-ups per run; setup_s is their median
	socPassRounds = 200 // rounds in one timed pass, the workload's fixed size
	socRunLimit   = 20_000_000
	// socGoldenRounds rounds of the default seed have their cycle counts
	// committed in testdata; later rounds are checked without it.
	socGoldenRounds = 2048
)

const defaultSeed = 1

//go:embed testdata/soc_dense_golden.json
var socGoldenJSON []byte

// socGoldenPath is where -write-golden writes the table. Like the baseline
// file, it is relative to the repository root, the benchmark's working
// directory.
const socGoldenPath = "perfbench/testdata/soc_dense_golden.json"

// socRound is one rotation entry: a program per core and the value every
// line of its regions must read back from NVMM after the round.
type socRound struct {
	progs []*isa.Program
	bases [socCores]uint64
	value uint64
}

// socInputs is everything the seed decides for soc_dense, plus the golden
// cycle table when the seed is the default one.
type socInputs struct {
	rounds []socRound
	golden []int64
}

// newSocInputs builds the program rotation for a seed.
func newSocInputs(seed int64) (*socInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	slots := rng.Perm(socBaseSlots - 1)[:socRegionSets*socCores]
	in := &socInputs{}
	for i := 0; i < socRotation; i++ {
		set := i % socRegionSets
		first, value := rng.Uint64(), rng.Uint64()
		rd := socRound{value: value}
		for c := 0; c < socCores; c++ {
			base := uint64(slots[set*socCores+c]+1) * socBaseStride
			rd.bases[c] = base
			rd.progs = append(rd.progs, denseProgram(base, first, value))
		}
		in.rounds = append(in.rounds, rd)
	}
	if seed == defaultSeed {
		if err := json.Unmarshal(socGoldenJSON, &in.golden); err != nil {
			return nil, fmt.Errorf("golden cycle table: %w", err)
		}
	}
	return in, nil
}

// denseProgram is one core's round: store, CBO.CLEAN, fence, reload,
// re-store, CBO.FLUSH, fence over a 16 KiB region.
func denseProgram(base, first, value uint64) *isa.Program {
	b := isa.NewBuilder()
	b.StoreRegion(base, socRegionBytes, lineBytes, first)
	b.Fence()
	b.CboRegion(base, socRegionBytes, lineBytes, true)
	b.Fence()
	b.LoadRegion(base, socRegionBytes, lineBytes)
	b.StoreRegion(base, socRegionBytes, lineBytes, value)
	b.CboRegion(base, socRegionBytes, lineBytes, false)
	b.Fence()
	return b.Build()
}

func (in *socInputs) round(r int) *socRound { return &in.rounds[r%len(in.rounds)] }

// check validates round r on the system it ran on: the run finished, the
// coherence and Skip It invariants hold, every flushed line reads back the
// round's value from NVMM, and, for the default seed, the round took its
// golden cycle count.
func (in *socInputs) check(sys *sim.System, r int, cycles int64, runErr error) error {
	if runErr != nil {
		return fmt.Errorf("round %d: %w", r, runErr)
	}
	if err := sys.CheckInvariants(); err != nil {
		return fmt.Errorf("round %d: %w", r, err)
	}
	rd := in.round(r)
	for c, base := range rd.bases {
		for a := base; a < base+socRegionBytes; a += lineBytes {
			if got := sys.Mem.PeekUint64(a); got != rd.value {
				return fmt.Errorf("round %d: core %d line %#x reads %#x from NVMM, want %#x", r, c, a, got, rd.value)
			}
		}
	}
	if r < len(in.golden) && in.golden[r] != cycles {
		return fmt.Errorf("round %d: %d cycles, golden table says %d", r, cycles, in.golden[r])
	}
	return nil
}

// stepper runs one round's programs to completion the way System.Run does
// and reports its clock: System.Run itself, or one of the traced drivers.
type stepper interface {
	run(progs []*isa.Program, limit int64) (int64, error)
	clock() int64
}

type runStepper struct{ sys *sim.System }

func (s runStepper) run(progs []*isa.Program, limit int64) (int64, error) {
	return s.sys.Run(progs, limit)
}
func (s runStepper) clock() int64 { return s.sys.Now() }

// roundLog is what a sequence of rounds produced, for the metrics and the
// identity guards.
type roundLog struct {
	cycles []int64 // per round: clock after minus clock before
	done   []int64 // per round: the cycle Run reported every core done
	hostNS []int64 // per round: host time of the run call
}

// runRounds runs rounds [from, from+n) through st on sys, checking each one
// into m.
func runRounds(st stepper, sys *sim.System, in *socInputs, from, n int, m *measurement,
	rec *spanRecorder, lane int) roundLog {
	var log roundLog
	for r := from; r < from+n; r++ {
		c0 := st.clock()
		t0 := now()
		done, err := st.run(in.round(r).progs, socRunLimit)
		t1 := now()
		rec.add(fmt.Sprintf("round %d", r), "unit", lane, t0, t1)
		cycles := st.clock() - c0
		log.cycles = append(log.cycles, cycles)
		log.done = append(log.done, done)
		log.hostNS = append(log.hostNS, t1-t0)
		m.attempted++
		if err := in.check(sys, r, cycles, err); err != nil {
			m.fail(err)
		}
	}
	return log
}

// warmSystem is one set-up: a fresh serial 4-core system plus the warm-up
// rounds. It returns the system and the host time of New and the warm-up
// runs, without the output checks.
func warmSystem(in *socInputs, m *measurement) (*sim.System, int64) {
	t0 := now()
	sys := sim.New(sim.DefaultConfig(socCores))
	ns := now() - t0
	log := runRounds(runStepper{sys}, sys, in, 0, socWarmRounds, m, nil, laneSoC)
	for _, h := range log.hostNS {
		ns += h
	}
	return sys, ns
}

// socDense is the untraced soc_dense run: set up socSetupReps times, then
// time passes of socPassRounds rounds on the last system until the budget
// is spent.
func socDense(seed int64, seconds float64) (result, error) {
	in, err := newSocInputs(seed)
	if err != nil {
		return result{}, err
	}
	var m measurement
	var sys *sim.System
	for rep := 0; rep < socSetupReps; rep++ {
		s, ns := warmSystem(in, &m)
		sys = s
		m.setupS = append(m.setupS, float64(ns)/1e9)
	}
	b := newBudget(seconds, 1, minUnits)
	r := socWarmRounds
	for pass := 0; b.another(pass, len(m.unitMS)); pass++ {
		start := sys.Now()
		var wall int64
		var peak uint64
		for i := 0; i < socPassRounds; i, r = i+1, r+1 {
			alloc0, _ := heapState()
			c0 := sys.Now()
			t0 := now()
			_, err := sys.Run(in.round(r).progs, socRunLimit)
			dt := now() - t0
			alloc1, inuse := heapState()
			wall += dt
			m.unitMS = append(m.unitMS, float64(dt)/1e6)
			m.allocBytes += alloc1 - alloc0
			peak = max(peak, inuse)
			m.attempted++
			if err := in.check(sys, r, sys.Now()-c0, err); err != nil {
				m.fail(err)
			}
		}
		m.simCycles += float64(sys.Now() - start)
		m.passWallS = append(m.passWallS, float64(wall)/1e9)
		m.peakHeap = append(m.peakHeap, float64(peak))
	}
	return m.endToEnd()
}

// writeSocGolden regenerates the default seed's golden cycle table. The
// table only needs regenerating when a change is meant to alter simulated
// timing.
func writeSocGolden() error {
	in, err := newSocInputs(defaultSeed)
	if err != nil {
		return err
	}
	in.golden = nil
	var m measurement
	sys := sim.New(sim.DefaultConfig(socCores))
	log := runRounds(runStepper{sys}, sys, in, 0, socGoldenRounds, &m, nil, laneSoC)
	if m.failed > 0 {
		return fmt.Errorf("golden rounds failed their checks: %v", m.failures)
	}
	b, err := json.Marshal(log.cycles)
	if err != nil {
		return err
	}
	return os.WriteFile(socGoldenPath, append(b, '\n'), 0o644)
}
