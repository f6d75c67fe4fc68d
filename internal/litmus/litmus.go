// Package litmus is a table-driven litmus-test suite for the §4 writeback
// and fence memory semantics on the cycle simulator: small multi-threaded
// programs whose sets of allowed final NVMM/register states are written down
// explicitly and checked over many interleavings (the simulator is
// deterministic per configuration, so interleavings are varied by skewing
// thread start offsets and by toggling microarchitectural knobs).
//
// The suite covers the three Fig. 5 scenarios, write-back ordering across
// lines, cross-core writeback visibility, coherence (load-value) tests, and
// the CBO.CLEAN/CBO.FLUSH residency difference.
package litmus

import (
	"fmt"

	"skipit/internal/isa"
	"skipit/internal/sim"
)

// Outcome is one observable final state: durable NVMM words and loaded
// register values, keyed by name.
type Outcome map[string]uint64

// key returns a canonical string for set membership.
func (o Outcome) key() string {
	// Outcomes are tiny; render deterministically by probing known names
	// in order. Names are provided by the test's Observe spec.
	return fmt.Sprintf("%v", o)
}

// Observation extracts one named value from a finished (possibly crashed)
// system.
type Observation struct {
	Name string
	// NVMM address to read after the run; used when Load is nil.
	Addr uint64
	// Load reads a loaded value from a core's timing record instead:
	// core index and instruction index.
	Core, Instr int
	FromLoad    bool
}

// Test is one litmus test: programs per core, a crash/no-crash mode, the
// observations to extract, and the set of allowed outcomes.
type Test struct {
	Name     string
	Programs []*isa.Program
	// CrashAfter > 0 crashes the machine once the given core count
	// completed... 0 means run to completion then crash (volatile state
	// dropped, NVMM inspected).
	RunToCompletion bool
	Observe         []Observation
	Allowed         []Outcome
	// Forbidden lists outcomes that must never appear (documentation +
	// double bookkeeping; anything not in Allowed already fails).
	Forbidden []Outcome
}

// skews are the start-offset combinations used to vary interleavings: core
// i's program is prefixed with skews[k][i] nops.
var skews = [][]int{
	{0, 0}, {0, 7}, {7, 0}, {0, 23}, {23, 0}, {13, 29}, {40, 0}, {0, 40},
}

// Run executes the test across all skews and reports the outcomes seen and
// the first violation, if any.
func Run(t Test) (seen []Outcome, err error) {
	allowed := map[string]bool{}
	for _, o := range t.Allowed {
		allowed[o.key()] = true
	}
	seenKeys := map[string]bool{}
	for _, skew := range skews {
		s := sim.New(sim.DefaultConfig(len(t.Programs)))
		progs := make([]*isa.Program, len(t.Programs))
		// prefix[i] is how many instructions the skew puts ahead of core
		// i's program: 0, or 1 for the run of nops.
		prefix := make([]int, len(t.Programs))
		for i, p := range t.Programs {
			b := isa.NewBuilder()
			if i < len(skew) {
				b.Nops(skew[i])
			}
			prefix[i] = b.Mark()
			progs[i] = &isa.Program{Instrs: append(b.Build().Instrs, p.Instrs...)}
		}
		if _, runErr := s.Run(progs, 5_000_000); runErr != nil {
			return seen, fmt.Errorf("%s: %w", t.Name, runErr)
		}
		if invErr := s.CheckInvariants(); invErr != nil {
			return seen, fmt.Errorf("%s: %w", t.Name, invErr)
		}
		// Register observations must be read before the crash wipes
		// core state; NVMM observations after it (the crash drops only
		// volatile state, which is the point).
		o := Outcome{}
		for _, obs := range t.Observe {
			if obs.FromLoad {
				o[obs.Name] = s.Cores[obs.Core].Timing(obs.Instr + prefix[obs.Core]).LoadValue
			}
		}
		s.Crash(false)
		for _, obs := range t.Observe {
			if !obs.FromLoad {
				o[obs.Name] = s.Mem.PeekUint64(obs.Addr)
			}
		}
		k := o.key()
		if !seenKeys[k] {
			seenKeys[k] = true
			seen = append(seen, o)
		}
		if !allowed[k] {
			return seen, fmt.Errorf("%s: forbidden outcome %v (skew %v)", t.Name, o, skew)
		}
	}
	return seen, nil
}

// Crash variants: run to a fixed cycle, crash, observe NVMM. Used for the
// Fig. 5 "may or may not be durable" scenarios where both outcomes must be
// observable across crash points.
type CrashTest struct {
	Name    string
	Program *isa.Program
	// CrashCycles lists the injection points to try.
	CrashCycles []int64
	Observe     []Observation
	Allowed     []Outcome
}

// RunCrash executes the crash test at every injection point.
func RunCrash(t CrashTest) (seen []Outcome, err error) {
	allowed := map[string]bool{}
	for _, o := range t.Allowed {
		allowed[o.key()] = true
	}
	seenKeys := map[string]bool{}
	for _, at := range t.CrashCycles {
		s := sim.New(sim.DefaultConfig(1))
		s.Cores[0].SetProgram(t.Program)
		for s.Now() < at && !(s.Cores[0].Done() && s.Quiescent()) {
			s.Step()
		}
		s.Crash(false)
		o := Outcome{}
		for _, obs := range t.Observe {
			o[obs.Name] = s.Mem.PeekUint64(obs.Addr)
		}
		k := o.key()
		if !seenKeys[k] {
			seenKeys[k] = true
			seen = append(seen, o)
		}
		if !allowed[k] {
			return seen, fmt.Errorf("%s: forbidden post-crash state %v (crash@%d)", t.Name, o, at)
		}
	}
	return seen, nil
}
