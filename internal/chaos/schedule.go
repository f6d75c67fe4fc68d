// Package chaos is a deterministic fault-injection harness for the simulated
// SoC: seeded schedules of timing perturbations (link jitter, stalls,
// acceptance backpressure), structural squeezes (MSHR/FSHR/ListBuffer
// capacity, forced nacks) and transient ECC-style bit flips, plus a fuzzer
// that runs random programs under random schedules with the invariant
// checker and forward-progress watchdog armed, and a shrinker that reduces
// failures to minimal replayable repro artifacts.
//
// Everything is derived from explicit seeds: the same seed always yields the
// same schedule, the same run, and the same shrunk repro.
package chaos

import (
	"fmt"
	"sort"

	"skipit/internal/detrand"
)

// Kind names one fault class. String-valued so schedules read naturally in
// .chaos.json artifacts.
type Kind string

const (
	// LinkDelay adds Extra cycles of delivery latency to every message
	// sent on the channel during the window. Delivery order is preserved.
	LinkDelay Kind = "link-delay"
	// LinkStall holds the channel's receive side (beat stall) during the
	// window: ready messages are not delivered.
	LinkStall Kind = "link-stall"
	// LinkRefuse makes the channel refuse new sends during the window
	// (acceptance backpressure); senders retry as for ordinary occupancy.
	LinkRefuse Kind = "link-refuse"
	// L1Nack forces the L1 to nack every request processed in the window.
	L1Nack Kind = "l1-nack"
	// L1MSHRSqueeze caps the L1's usable MSHRs at Quota for the window.
	L1MSHRSqueeze Kind = "l1-mshr-squeeze"
	// FSHRSqueeze caps the flush unit's usable FSHRs at Quota.
	FSHRSqueeze Kind = "fshr-squeeze"
	// L2MSHRSqueeze caps the L2's usable MSHRs at Quota.
	L2MSHRSqueeze Kind = "l2-mshr-squeeze"
	// L2ListBufferSqueeze caps the L2's usable ListBuffer depth at Quota.
	L2ListBufferSqueeze Kind = "l2-listbuffer-squeeze"
	// L1BitFlip flips Bit of the line holding Addr in core Core's L1 at
	// Cycle (clean lines only; dirty targets are flagged unrecoverable).
	L1BitFlip Kind = "l1-bit-flip"
	// L2BitFlip is the L2 counterpart.
	L2BitFlip Kind = "l2-bit-flip"
)

// Fault is one (cycle, site, fault) tuple. Site addressing: Core selects the
// L1/link/flush-unit instance (ignored for L2 kinds); Channel selects the
// TileLink channel (0..4 = A,B,C,D,E) for link kinds.
type Fault struct {
	Cycle    int64 `json:"cycle"`
	Kind     Kind  `json:"kind"`
	Core     int   `json:"core,omitempty"`
	Channel  int   `json:"channel,omitempty"`
	Duration int64 `json:"duration,omitempty"`
	// Extra is the added latency for LinkDelay.
	Extra int64 `json:"extra,omitempty"`
	// Quota is the capacity cap for squeeze kinds.
	Quota int `json:"quota,omitempty"`
	// Addr and Bit target bit flips.
	Addr uint64 `json:"addr,omitempty"`
	Bit  uint64 `json:"bit,omitempty"`
}

// window returns the fault's active interval [from, to).
func (f *Fault) window() (from, to int64) {
	d := f.Duration
	if d < 1 {
		d = 1
	}
	return f.Cycle, f.Cycle + d
}

// activeAt reports whether a window fault is live at cycle now.
func (f *Fault) activeAt(now int64) bool {
	from, to := f.window()
	return now >= from && now < to
}

func (f Fault) String() string {
	s := fmt.Sprintf("@%d %s", f.Cycle, f.Kind)
	switch f.Kind {
	case LinkDelay, LinkStall, LinkRefuse:
		s += fmt.Sprintf(" core=%d ch=%c dur=%d", f.Core, 'A'+rune(f.Channel), f.Duration)
		if f.Kind == LinkDelay {
			s += fmt.Sprintf(" extra=%d", f.Extra)
		}
	case L1Nack:
		s += fmt.Sprintf(" core=%d dur=%d", f.Core, f.Duration)
	case L1MSHRSqueeze, FSHRSqueeze:
		s += fmt.Sprintf(" core=%d dur=%d quota=%d", f.Core, f.Duration, f.Quota)
	case L2MSHRSqueeze, L2ListBufferSqueeze:
		s += fmt.Sprintf(" dur=%d quota=%d", f.Duration, f.Quota)
	case L1BitFlip:
		s += fmt.Sprintf(" core=%d addr=%#x bit=%d", f.Core, f.Addr, f.Bit)
	case L2BitFlip:
		s += fmt.Sprintf(" addr=%#x bit=%d", f.Addr, f.Bit)
	}
	return s
}

// Schedule is an ordered fault list. Normalize sorts it by cycle (stable, so
// equal-cycle faults keep their authored order); Arm requires a normalized
// schedule and Generate returns one.
type Schedule struct {
	Faults []Fault `json:"faults"`
}

// Normalize sorts the faults by cycle, preserving authored order within a
// cycle.
func (s *Schedule) Normalize() {
	sort.SliceStable(s.Faults, func(i, j int) bool { return s.Faults[i].Cycle < s.Faults[j].Cycle })
}

// GenConfig parameterizes schedule generation.
type GenConfig struct {
	Cores     int
	NumFaults int
	// Faults are placed in [0, CycleSpan).
	CycleSpan int64
	// MaxDuration caps window lengths. Keep it well below the watchdog
	// limit so drained backpressure is never mistaken for a hang.
	MaxDuration int64
	// MaxExtra caps LinkDelay jitter.
	MaxExtra int64
	// MaxQuota caps squeeze quotas (quotas are drawn from [0, MaxQuota]).
	MaxQuota int
	// AddrPool supplies bit-flip target addresses (typically the address
	// set the fuzzed programs touch). Empty disables bit-flip faults.
	AddrPool []uint64
}

// DefaultGenConfig returns a fault mix sized for the default SoC: windows two
// orders of magnitude below the usual watchdog limit.
func DefaultGenConfig(cores int) GenConfig {
	return GenConfig{
		Cores:       cores,
		NumFaults:   12,
		CycleSpan:   20_000,
		MaxDuration: 300,
		MaxExtra:    40,
		MaxQuota:    2,
	}
}

var windowKinds = []Kind{
	LinkDelay, LinkStall, LinkRefuse,
	L1Nack, L1MSHRSqueeze, FSHRSqueeze,
	L2MSHRSqueeze, L2ListBufferSqueeze,
}

// Generate derives a schedule from the seed: the same (seed, cfg) pair always
// yields the same schedule.
func Generate(seed int64, cfg GenConfig) Schedule {
	rng := detrand.New(seed)
	if cfg.Cores < 1 {
		cfg.Cores = 1
	}
	if cfg.CycleSpan < 1 {
		cfg.CycleSpan = 1
	}
	if cfg.MaxDuration < 1 {
		cfg.MaxDuration = 1
	}
	kinds := windowKinds
	if len(cfg.AddrPool) > 0 {
		kinds = append(append([]Kind{}, windowKinds...), L1BitFlip, L2BitFlip)
	}
	var s Schedule
	for i := 0; i < cfg.NumFaults; i++ {
		f := Fault{
			Cycle: rng.Int63n(cfg.CycleSpan),
			Kind:  kinds[rng.Intn(len(kinds))],
		}
		switch f.Kind {
		case LinkDelay, LinkStall, LinkRefuse:
			f.Core = rng.Intn(cfg.Cores)
			f.Channel = rng.Intn(5)
			f.Duration = 1 + rng.Int63n(cfg.MaxDuration)
			if f.Kind == LinkDelay {
				f.Extra = 1 + rng.Int63n(max(cfg.MaxExtra, 1))
			}
		case L1Nack:
			f.Core = rng.Intn(cfg.Cores)
			f.Duration = 1 + rng.Int63n(cfg.MaxDuration)
		case L1MSHRSqueeze, FSHRSqueeze:
			f.Core = rng.Intn(cfg.Cores)
			f.Duration = 1 + rng.Int63n(cfg.MaxDuration)
			f.Quota = rng.Intn(cfg.MaxQuota + 1)
		case L2MSHRSqueeze, L2ListBufferSqueeze:
			f.Duration = 1 + rng.Int63n(cfg.MaxDuration)
			f.Quota = rng.Intn(cfg.MaxQuota + 1)
		case L1BitFlip, L2BitFlip:
			f.Core = rng.Intn(cfg.Cores)
			f.Addr = cfg.AddrPool[rng.Intn(len(cfg.AddrPool))]
			f.Bit = uint64(rng.Intn(64 * 8))
		}
		s.Faults = append(s.Faults, f)
	}
	s.Normalize()
	return s
}
