package chaos

import (
	"encoding/json"
	"fmt"
	"strings"

	"skipit/internal/isa"
	"skipit/internal/sim"
)

// ReproVersion is the .chaos.json format version.
const ReproVersion = 1

// Repro is the replayable artifact the fuzzer writes for every failure:
// everything needed to reproduce the run bit-identically, with programs in
// the assembler's human-readable text form.
type Repro struct {
	Version int `json:"version"`
	// Seed is the originating fuzzer seed (informational: the programs and
	// schedule below are authoritative, since shrinking detaches them from
	// the seed).
	Seed int64 `json:"seed,omitempty"`
	// Programs holds one isa-format listing per core.
	Programs []string `json:"programs"`
	Schedule Schedule `json:"schedule"`
	// Config is the SoC, when it is not sim.DefaultConfig.
	Config        *sim.Config `json:"config,omitempty"`
	CycleLimit    int64       `json:"cycle_limit"`
	WatchdogLimit int64       `json:"watchdog_limit"`
	// CrashAt and ADR describe a crash case (see Input).
	CrashAt int64 `json:"crash_at,omitempty"`
	ADR     bool  `json:"adr,omitempty"`
	// Failure records what the original run produced, so a replay can be
	// checked against it.
	Failure *Failure `json:"failure,omitempty"`
}

// NewRepro captures an input and its failure as an artifact.
func NewRepro(seed int64, in Input, fail *Failure) *Repro {
	r := &Repro{
		Version:       ReproVersion,
		Seed:          seed,
		Schedule:      in.Schedule,
		Config:        in.Config,
		CycleLimit:    in.CycleLimit,
		WatchdogLimit: in.WatchdogLimit,
		CrashAt:       in.CrashAt,
		ADR:           in.ADR,
		Failure:       fail,
	}
	for _, p := range in.Progs {
		if p == nil {
			p = isa.NewBuilder().Build()
		}
		r.Programs = append(r.Programs, isa.Format(p))
	}
	return r
}

// Encode renders the artifact as indented JSON.
func (r *Repro) Encode() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// DecodeRepro parses a .chaos.json artifact.
func DecodeRepro(data []byte) (*Repro, error) {
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("chaos: bad repro: %w", err)
	}
	if r.Version != ReproVersion {
		return nil, fmt.Errorf("chaos: repro version %d, want %d", r.Version, ReproVersion)
	}
	if len(r.Programs) == 0 {
		return nil, fmt.Errorf("chaos: repro has no programs")
	}
	return &r, nil
}

// Input reassembles the runnable input: programs parsed back from text, the
// schedule normalized.
func (r *Repro) Input() (Input, error) {
	in := Input{
		Schedule:      r.Schedule,
		Config:        r.Config,
		CycleLimit:    r.CycleLimit,
		WatchdogLimit: r.WatchdogLimit,
		CrashAt:       r.CrashAt,
		ADR:           r.ADR,
	}
	in.Schedule.Normalize()
	for i, src := range r.Programs {
		p, err := isa.Parse(src)
		if err != nil {
			return Input{}, fmt.Errorf("chaos: repro program %d: %w", i, err)
		}
		in.Progs = append(in.Progs, p)
	}
	return in, nil
}

// Summary is a one-line description for logs.
func (r *Repro) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d core(s), %d fault(s)", len(r.Programs), len(r.Schedule.Faults))
	if r.Failure != nil {
		fmt.Fprintf(&b, ", %s: %s", r.Failure.Kind, r.Failure.Message)
	}
	return b.String()
}
