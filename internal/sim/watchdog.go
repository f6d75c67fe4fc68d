package sim

import (
	"encoding/json"
	"fmt"
	"runtime/debug"

	"skipit/internal/boom"
	"skipit/internal/core"
	"skipit/internal/l1"
	"skipit/internal/l2"
	"skipit/internal/tilelink"
	"skipit/internal/trace"
)

// HangReport is the structured diagnosis emitted when the forward-progress
// watchdog trips or a panic escapes a simulator component: a snapshot of
// every unit's transactional state, JSON-serializable for repro artifacts.
type HangReport struct {
	Cycle  int64  `json:"cycle"`
	Reason string `json:"reason"` // "no-progress" | "panic"
	// Window is the number of cycles without progress (no-progress trips).
	Window int64 `json:"window,omitempty"`
	// Panic and Stack carry the recovered panic value and its stack trace.
	Panic string `json:"panic,omitempty"`
	Stack string `json:"stack,omitempty"`

	Cores []boom.CoreDebug       `json:"cores"`
	L1s   []l1.DCacheDebug       `json:"l1s"`
	Flush []core.FlushDebug      `json:"flush"`
	L2    l2.CacheDebug          `json:"l2"`
	Links [][]tilelink.LinkDebug `json:"links"` // per client, channels A..E
	// MemOutstanding counts accepted-but-incomplete DRAM requests plus
	// undelivered responses.
	MemOutstanding int `json:"mem_outstanding"`

	// FlightRecorder is the dump of the per-component event rings, present
	// when the system had a flight recorder armed (EnableFlightRecorder):
	// the last N structured events each component saw before the hang.
	FlightRecorder []trace.RecDump `json:"flight_recorder,omitempty"`
}

// JSON renders the report, indented for human eyes.
func (r *HangReport) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// Every field is a plain value; marshalling cannot fail.
		panic(err)
	}
	return b
}

// Summary is the one-line version for error strings and logs.
func (r *HangReport) Summary() string {
	s := fmt.Sprintf("%s at cycle %d", r.Reason, r.Cycle)
	if r.Reason == "no-progress" {
		s += fmt.Sprintf(" (%d idle cycles)", r.Window)
	}
	if r.Panic != "" {
		s += ": " + r.Panic
	}
	return s
}

// HangError wraps a HangReport as an error, returned by StepGuarded.
type HangError struct {
	Report *HangReport
}

func (e *HangError) Error() string { return "sim: " + e.Report.Summary() }

// buildHangReport snapshots the whole SoC. A bare system leaves the core and
// L1 sections empty, so the report shape is the same for every harness.
func (s *System) buildHangReport(reason string) *HangReport {
	r := &HangReport{
		Cycle:          s.now,
		Reason:         reason,
		L2:             s.L2.Debug(),
		MemOutstanding: s.Mem.Outstanding(),
	}
	for _, c := range s.Cores {
		r.Cores = append(r.Cores, c.Debug())
	}
	for _, d := range s.L1s {
		r.L1s = append(r.L1s, d.Debug())
		r.Flush = append(r.Flush, d.FlushUnit().Debug())
	}
	for _, p := range s.ports {
		r.Links = append(r.Links, p.Debug())
	}
	r.FlightRecorder = s.recorder.Dump()
	return r
}

// ArmWatchdog enables the forward-progress watchdog: if no core retires an
// instruction and no TileLink message moves for limit cycles, StepGuarded
// returns a *HangError carrying a full HangReport. Zero disables. The limit
// must comfortably exceed the longest legal stall (DRAM latency plus queue
// drains, hundreds of cycles at the default configuration). Attached
// clients have no commit counters; link activity is their progress signal,
// which suffices because every client action either sends a message or is a
// bounded internal delay far below any sane limit.
func (s *System) ArmWatchdog(limit int64) {
	s.wdLimit = limit
	s.wdLastSig = s.progressSignature()
	s.wdLastChange = s.now
}

// progressSignature folds the per-core commit counters and per-link activity
// counters into one number that changes whenever anything retires or moves.
// Both counters are monotone, so equality means literal inactivity.
func (s *System) progressSignature() uint64 {
	var sig uint64
	for _, c := range s.Cores {
		sig += c.Committed()
	}
	for _, p := range s.ports {
		sig += p.Events()
	}
	return sig
}

// StepGuarded advances one cycle under the watchdog, converting both
// forward-progress stalls and panics escaping deep simulator paths into a
// structured *HangError. Any other error return is nil.
func (s *System) StepGuarded() (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			rep := s.buildHangReport("panic")
			rep.Panic = fmt.Sprint(rec)
			rep.Stack = string(debug.Stack())
			err = &HangError{Report: rep}
		}
	}()
	s.Step()
	if s.wdLimit <= 0 {
		return nil
	}
	if sig := s.progressSignature(); sig != s.wdLastSig {
		s.wdLastSig = sig
		s.wdLastChange = s.now
		return nil
	}
	if s.now-s.wdLastChange < s.wdLimit {
		return nil
	}
	s.ctrWatchdogTrips.Inc()
	rep := s.buildHangReport("no-progress")
	rep.Window = s.now - s.wdLastChange
	return &HangError{Report: rep}
}
