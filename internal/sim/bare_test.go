package sim

import (
	"errors"
	"strings"
	"testing"

	"skipit/internal/tilelink"
)

// acquireClient is the smallest useful Client: from startAt on it
// acquires one line with Trunk permission, acknowledges the grant, and is
// then done. Clients on distinct lines never draw probes, so it needs no
// B-channel handling.
type acquireClient struct {
	port    *tilelink.ClientPort
	id      int
	addr    uint64
	startAt int64
	panicAt int64 // Tick panics at this cycle when positive

	sent, granted, acked bool
	grantedAt            int64
	grantData            uint64
}

func (c *acquireClient) Tick(now int64) {
	if c.panicAt > 0 && now == c.panicAt {
		panic("acquireClient: scripted fault")
	}
	if !c.sent && now >= c.startAt {
		c.sent = c.port.A.Send(now, tilelink.Msg{
			Op: tilelink.OpAcquireBlock, Addr: c.addr, Source: c.id, Grow: tilelink.GrowNtoT})
	}
	if m, ok := c.port.D.Recv(now); ok {
		if m.Op != tilelink.OpGrantData || m.Cap != tilelink.CapToT {
			panic("acquireClient: unexpected D message " + m.String())
		}
		c.granted, c.grantedAt = true, now
		for i := 0; i < 8; i++ {
			c.grantData |= uint64(m.Data[i]) << (8 * i)
		}
	}
	if c.granted && !c.acked {
		c.acked = c.port.E.Send(now, tilelink.Msg{Op: tilelink.OpGrantAck, Addr: c.addr, Source: c.id})
	}
}

func (c *acquireClient) NextEvent(now int64) int64 {
	switch {
	case !c.sent && c.startAt > now:
		return c.startAt
	case !c.sent, c.granted && !c.acked:
		return now + 1
	}
	return tilelink.NoEvent
}

func (c *acquireClient) Done() bool { return c.acked }

// newAcquireSystem builds a bare system with one acquireClient per address,
// each starting at startAt, with the line's first word preset in DRAM.
func newAcquireSystem(startAt int64, addrs ...uint64) (*System, []*acquireClient) {
	s := NewBare(DefaultConfig(len(addrs)))
	clients := make([]*acquireClient, len(addrs))
	cs := make([]Client, len(addrs))
	for i, addr := range addrs {
		s.Mem.PokeUint64(addr, 100+addr)
		clients[i] = &acquireClient{port: s.Ports()[i], id: i, addr: addr, startAt: startAt}
		cs[i] = clients[i]
	}
	s.Attach(cs...)
	return s, clients
}

// runClients steps (and, with the clock on, fast-forwards) until every
// client is done and the memory system has drained, and returns with the
// clock on the cycle after the step that drained it.
func runClients(t *testing.T, s *System) {
	t.Helper()
	const limit = 100_000
	for {
		if err := s.StepGuarded(); err != nil {
			t.Fatal(err)
		}
		if s.Done() && s.Quiescent() {
			return
		}
		if s.Now() >= limit {
			t.Fatal("bare system did not drain")
		}
		s.FastForward(limit)
	}
}

// TestBareServesAcquires: every client gets its line from DRAM with the
// preset value, the L2 counts the acquires, and the system drains.
func TestBareServesAcquires(t *testing.T) {
	s, clients := newAcquireSystem(0, 0x1000, 0x2040)
	runClients(t, s)
	for _, c := range clients {
		if !c.granted || c.grantData != 100+c.addr {
			t.Fatalf("client %d: granted=%v data=%d, want %d", c.id, c.granted, c.grantData, 100+c.addr)
		}
	}
	if got := s.Metrics().CounterValue("l2.acquires"); got != 2 {
		t.Fatalf("l2.acquires = %d, want 2", got)
	}
	if !s.Quiescent() {
		t.Fatal("system not quiescent after the run")
	}
}

// TestBareFastForwardEquivalence: skipping provably idle cycles changes
// nothing observable — grants land on the same cycles and the run ends on
// the same cycle — while the odometer shows the clock actually skipped.
func TestBareFastForwardEquivalence(t *testing.T) {
	run := func(ff bool) (*System, []*acquireClient) {
		s, clients := newAcquireSystem(400, 0x1000, 0x2040)
		s.SetFastForward(ff)
		runClients(t, s)
		return s, clients
	}
	fast, fastClients := run(true)
	slow, slowClients := run(false)
	if fast.Now() != slow.Now() {
		t.Fatalf("run ends at %d with fast-forward, %d without", fast.Now(), slow.Now())
	}
	for i := range fastClients {
		if a, b := fastClients[i].grantedAt, slowClients[i].grantedAt; a != b {
			t.Fatalf("client %d granted at %d with fast-forward, %d without", i, a, b)
		}
	}
	if got := slow.Metrics().CounterValue("sim.skipped_cycles"); got != 0 {
		t.Fatalf("clock off skipped %d cycles", got)
	}
	if got := fast.Metrics().CounterValue("sim.skipped_cycles"); got < 300 {
		t.Fatalf("clock on skipped %d cycles of a 400-cycle idle start", got)
	}
}

// TestBareWatchdogTripsAtSameCycleEitherClock: a bare system whose clients
// never send trips the watchdog with a no-progress report after exactly
// the armed window, and fast-forward clamps to the trip cycle rather than
// skipping past it.
func TestBareWatchdogTripsAtSameCycleEitherClock(t *testing.T) {
	trip := func(ff bool) *HangReport {
		s, _ := newAcquireSystem(1<<40, 0x1000, 0x2040) // never starts
		s.SetFastForward(ff)
		s.ArmWatchdog(50)
		for s.Now() < 10_000 {
			err := s.StepGuarded()
			var he *HangError
			if errors.As(err, &he) {
				if got := s.Metrics().CounterValue("sim.watchdog_trips"); got != 1 {
					t.Fatalf("watchdog_trips = %d, want 1", got)
				}
				return he.Report
			}
			if err != nil {
				t.Fatal(err)
			}
			s.FastForward(10_000)
		}
		t.Fatal("watchdog never tripped")
		return nil
	}
	fast, slow := trip(true), trip(false)
	for _, rep := range []*HangReport{fast, slow} {
		if rep.Reason != "no-progress" || rep.Window != 50 {
			t.Fatalf("report %+v, want a no-progress trip over a 50-cycle window", rep)
		}
		if len(rep.Links) != 2 {
			t.Fatalf("report lists %d ports, want 2", len(rep.Links))
		}
	}
	if fast.Cycle != slow.Cycle {
		t.Fatalf("trip at cycle %d with fast-forward, %d without", fast.Cycle, slow.Cycle)
	}
}

// TestBareStepGuardedRecoversPanic: a panicking client becomes a
// structured panic report instead of taking the process down.
func TestBareStepGuardedRecoversPanic(t *testing.T) {
	s, clients := newAcquireSystem(0, 0x1000)
	clients[0].panicAt = 3
	var err error
	for i := 0; i < 10 && err == nil; i++ {
		err = s.StepGuarded()
	}
	var he *HangError
	if !errors.As(err, &he) {
		t.Fatalf("StepGuarded returned %v, want a *HangError", err)
	}
	if rep := he.Report; rep.Reason != "panic" || rep.Cycle != 3 ||
		!strings.Contains(rep.Panic, "scripted fault") || rep.Stack == "" {
		t.Fatalf("panic report = %+v", rep)
	}
}

func TestBareWiringChecks(t *testing.T) {
	mustPanic := func(t *testing.T, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("did not panic")
			}
		}()
		fn()
	}
	t.Run("no clients", func(t *testing.T) {
		mustPanic(t, func() { NewBare(DefaultConfig(0)) })
	})
	t.Run("client count differs from ports", func(t *testing.T) {
		s := NewBare(DefaultConfig(2))
		mustPanic(t, func() { s.Attach(&acquireClient{port: s.Ports()[0]}) })
	})
	t.Run("ports already carry L1s", func(t *testing.T) {
		s := New(DefaultConfig(1))
		mustPanic(t, func() { s.Attach(&acquireClient{port: s.Ports()[0]}) })
	})
}
