package sim

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"skipit/internal/isa"
)

func TestWatchdogQuietDuringNormalRun(t *testing.T) {
	s := New(DefaultConfig(2))
	s.ArmWatchdog(5_000)
	progs := []*isa.Program{
		isa.NewBuilder().Store(0x1000, 1).CboFlush(0x1000).Fence().Load(0x1000).Build(),
		isa.NewBuilder().Store(0x100000, 2).Fence().Build(),
	}
	for i, p := range progs {
		s.Cores[i].SetProgram(p)
	}
	for i := 0; i < 10_000; i++ {
		if err := s.StepGuarded(); err != nil {
			t.Fatalf("watchdog tripped on a healthy run: %v", err)
		}
		if s.Done() && s.Quiescent() {
			return
		}
	}
	t.Fatal("run did not finish")
}

func TestWatchdogTripsWithoutProgress(t *testing.T) {
	s := New(DefaultConfig(1))
	s.Cores[0].SetProgram(isa.NewBuilder().Build())
	// Let the (empty) program retire, then arm: from here nothing retires
	// and nothing moves, which is exactly the no-progress condition.
	for i := 0; i < 10; i++ {
		s.Step()
	}
	const limit = 50
	s.ArmWatchdog(limit)
	var hang *HangError
	for i := 0; i < 10*limit; i++ {
		if err := s.StepGuarded(); err != nil {
			if !errors.As(err, &hang) {
				t.Fatalf("want *HangError, got %T: %v", err, err)
			}
			break
		}
	}
	if hang == nil {
		t.Fatal("watchdog never tripped")
	}
	r := hang.Report
	if r.Reason != "no-progress" || r.Window < limit {
		t.Fatalf("bad report: reason=%q window=%d", r.Reason, r.Window)
	}
	if len(r.Cores) != 1 || len(r.L1s) != 1 || len(r.Flush) != 1 || len(r.Links) != 1 {
		t.Fatalf("report missing sections: %+v", r)
	}
	if len(r.Links[0]) != 5 {
		t.Fatalf("want 5 channel snapshots, got %d", len(r.Links[0]))
	}
	if got := s.Metrics().Counter("sim", "watchdog_trips").Value(); got != 1 {
		t.Fatalf("watchdog_trips = %d, want 1", got)
	}
	// The report must round-trip as JSON for repro artifacts.
	var back map[string]any
	if err := json.Unmarshal(r.JSON(), &back); err != nil {
		t.Fatalf("report JSON invalid: %v", err)
	}
	if !strings.Contains(hang.Error(), "no-progress") {
		t.Fatalf("error string %q lacks reason", hang.Error())
	}
}

// panicHook triggers a panic on the first send attempt, standing in for a
// bug deep inside a simulator component.
type panicHook struct{}

func (panicHook) SendFault(now int64) (int64, bool) { panic("injected test panic") }
func (panicHook) RecvStall(now int64) bool          { return false }

func TestStepGuardedRecoversPanics(t *testing.T) {
	s := New(DefaultConfig(1))
	s.Ports()[0].A.SetChaos(panicHook{})
	// A load miss must acquire through channel A, hitting the panic hook.
	s.Cores[0].SetProgram(isa.NewBuilder().Load(0x1000).Build())
	var hang *HangError
	for i := 0; i < 1_000; i++ {
		if err := s.StepGuarded(); err != nil {
			if !errors.As(err, &hang) {
				t.Fatalf("want *HangError, got %T: %v", err, err)
			}
			break
		}
	}
	if hang == nil {
		t.Fatal("panic never surfaced")
	}
	r := hang.Report
	if r.Reason != "panic" || !strings.Contains(r.Panic, "injected test panic") {
		t.Fatalf("bad panic report: reason=%q panic=%q", r.Reason, r.Panic)
	}
	if r.Stack == "" {
		t.Fatal("panic report lacks a stack trace")
	}
}
