package boom

import (
	"testing"

	"skipit/internal/isa"
	"skipit/internal/l1"
	"skipit/internal/l2"
	"skipit/internal/mem"
	"skipit/internal/tilelink"
)

// stack wires one core to a private L1, an L2 and memory — the minimal
// machine needed to observe the LSU rules without importing package sim.
type stack struct {
	core *Core
	dc   *l1.DCache
	l2c  *l2.Cache
	m    *mem.Memory
	now  int64
}

func newStack(t *testing.T) *stack {
	t.Helper()
	port := tilelink.NewClientPort("t", 16, 64, 1)
	dc := l1.New(l1.DefaultConfig(0), port)
	m := mem.New(mem.DefaultConfig())
	l2c := l2.New(l2.DefaultConfig(1), []*tilelink.ClientPort{port}, m)
	return &stack{core: New(DefaultConfig(), 0, dc), dc: dc, l2c: l2c, m: m}
}

// tick advances the whole stack one cycle, in sim.System.Step's order.
func (s *stack) tick() {
	s.m.Tick(s.now)
	s.l2c.Tick(s.now)
	s.dc.Tick(s.now)
	s.core.Tick(s.now)
	s.now++
}

func (s *stack) run(t *testing.T, p *isa.Program, limit int64) {
	t.Helper()
	s.core.SetProgram(p)
	for i := int64(0); i < limit; i++ {
		s.tick()
		if s.core.Done() {
			return
		}
	}
	t.Fatalf("program did not finish in %d cycles", limit)
}

func TestEmptyProgramIsDone(t *testing.T) {
	s := newStack(t)
	s.core.SetProgram(isa.NewBuilder().Build())
	if !s.core.Done() {
		t.Fatal("empty program not done")
	}
}

func TestInOrderCommit(t *testing.T) {
	s := newStack(t)
	p := isa.NewBuilder().
		Store(0x1000, 1). // cold miss: slow
		Nop().
		Nop().
		Build()
	s.run(t, p, 100_000)
	tm := s.core.Timings()
	for i := 1; i < len(tm); i++ {
		if tm[i].CommittedAt < tm[i-1].CommittedAt {
			t.Fatalf("instruction %d committed at %d before %d's %d",
				i, tm[i].CommittedAt, i-1, tm[i-1].CommittedAt)
		}
	}
	// The nops complete at dispatch but must commit after the store.
	if tm[1].CompletedAt >= tm[1].CommittedAt && tm[0].CommittedAt > tm[1].CompletedAt {
		// completed early, committed late: expected
	} else if tm[1].CommittedAt < tm[0].CommittedAt {
		t.Fatal("nop committed before the older store")
	}
}

func TestStoresFireInProgramOrder(t *testing.T) {
	s := newStack(t)
	p := isa.NewBuilder().
		Store(0x1000, 1).
		Store(0x2000, 2).
		Store(0x3000, 3).
		Build()
	s.run(t, p, 100_000)
	tm := s.core.Timings()
	if !(tm[0].IssuedAt < tm[1].IssuedAt && tm[1].IssuedAt < tm[2].IssuedAt) {
		t.Fatalf("stores issued out of order: %d %d %d",
			tm[0].IssuedAt, tm[1].IssuedAt, tm[2].IssuedAt)
	}
	// §3.2: a store fires only from the ROB head, i.e. after the previous
	// store completed.
	if tm[1].IssuedAt < tm[0].CompletedAt {
		t.Fatal("second store fired before the first completed")
	}
}

func TestLoadsCompleteOutOfOrder(t *testing.T) {
	s := newStack(t)
	// Warm the load's line so it can complete while the older store's
	// miss is still outstanding.
	warm := isa.NewBuilder().Load(0x5000).Fence().Build()
	s.run(t, warm, 100_000)
	p := isa.NewBuilder().
		Load(0x8000). // cold miss: busy for a memory round trip
		Load(0x5000). // warm: independent, should complete early
		Build()
	s.run(t, p, 100_000)
	tm := s.core.Timings()
	if tm[1].CompletedAt >= tm[0].CompletedAt {
		t.Fatalf("independent warm load (done %d) did not overtake the cold miss (done %d)",
			tm[1].CompletedAt, tm[0].CompletedAt)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	s := newStack(t)
	p := isa.NewBuilder().
		Store(0x1000, 321).
		Load(0x1000).
		Build()
	s.run(t, p, 100_000)
	tm := s.core.Timings()
	if tm[1].LoadValue != 321 {
		t.Fatalf("forwarded value %d, want 321", tm[1].LoadValue)
	}
	// Forwarding never touches the cache: IssuedAt stays -1.
	if tm[1].IssuedAt != -1 {
		t.Fatal("forwarded load was fired into the data cache")
	}
}

func TestForwardingPicksLatestOlderStore(t *testing.T) {
	s := newStack(t)
	p := isa.NewBuilder().
		Store(0x1000, 1).
		Store(0x1000, 2).
		Load(0x1000).
		Build()
	s.run(t, p, 100_000)
	if got := s.core.Timing(2).LoadValue; got != 2 {
		t.Fatalf("forwarded %d, want latest older store's 2", got)
	}
}

func TestFenceBlocksYoungerLoads(t *testing.T) {
	s := newStack(t)
	warm := isa.NewBuilder().Load(0x5000).Fence().Build()
	s.run(t, warm, 100_000)
	p := isa.NewBuilder().
		Store(0x8000, 1). // slow miss
		Fence().
		Load(0x5000). // warm, but must wait for the fence
		Build()
	s.run(t, p, 100_000)
	tm := s.core.Timings()
	if tm[2].CompletedAt <= tm[1].CompletedAt {
		t.Fatalf("load (done %d) overtook the fence (done %d)", tm[2].CompletedAt, tm[1].CompletedAt)
	}
}

func TestLoadWaitsForOlderSameLineCbo(t *testing.T) {
	// §5.3: LDQ requests dependent on a CBO.X proceed only once it is
	// buffered.
	s := newStack(t)
	p := isa.NewBuilder().
		Store(0x1000, 5).
		CboClean(0x1000).
		Load(0x1000).
		Build()
	s.run(t, p, 100_000)
	tm := s.core.Timings()
	if tm[2].CompletedAt <= tm[1].CompletedAt {
		t.Fatalf("dependent load (done %d) ran before the CBO was buffered (done %d)",
			tm[2].CompletedAt, tm[1].CompletedAt)
	}
	if tm[2].LoadValue != 5 {
		t.Fatalf("load after clean = %d, want 5", tm[2].LoadValue)
	}
}

func TestFenceWaitsForFlushCounter(t *testing.T) {
	s := newStack(t)
	p := isa.NewBuilder().
		Store(0x1000, 1).
		CboFlush(0x1000).
		Fence().
		Build()
	s.run(t, p, 100_000)
	tm := s.core.Timings()
	// The fence completes only after the writeback's RootReleaseAck,
	// i.e. far later than the CBO's own buffering.
	if tm[2].CompletedAt-tm[1].CompletedAt < 10 {
		t.Fatalf("fence (done %d) too close to CBO buffering (done %d)",
			tm[2].CompletedAt, tm[1].CompletedAt)
	}
	if got := s.m.PeekUint64(0x1000); got != 1 {
		t.Fatal("fence completed without durable data")
	}
}

func TestNackRetryEventuallySucceeds(t *testing.T) {
	// Hammer one line with CBO.X so retries occur (FSHR-busy nacks).
	s := newStack(t)
	b := isa.NewBuilder().Store(0x1000, 1)
	for i := 0; i < 20; i++ {
		b.CboClean(0x1000)
	}
	b.Fence()
	s.run(t, b.Build(), 500_000)
	totalNacks := 0
	for _, tm := range s.core.Timings() {
		totalNacks += tm.Nacks
	}
	if totalNacks == 0 {
		t.Log("no nacks observed (acceptable but unexpected); retry path unexercised")
	}
}

// TestWaitingLoadCountTracksROB holds the running count that gates issue's
// load walk against a recount of the ROB on every cycle, through dispatch,
// forwarding, fence blocking, firing and nack retries.
func TestWaitingLoadCountTracksROB(t *testing.T) {
	s := newStack(t)
	b := isa.NewBuilder().Store(0x1000, 1).Load(0x1000) // forwards
	for i := 0; i < 24; i++ {
		b.Load(0x10000 + uint64(i)*64) // more lines than MSHRs: nacks
	}
	b.Fence().Load(0x1000) // held behind the fence
	s.core.SetProgram(b.Build())
	for !s.core.Done() {
		if s.now > 100_000 {
			t.Fatal("program did not finish")
		}
		s.tick()
		if got, want := s.core.WaitingLoads(), s.core.CountWaitingLoads(); got != want {
			t.Fatalf("cycle %d: waiting-load count %d, ROB holds %d", s.now, got, want)
		}
	}
	nacks := 0
	for _, tm := range s.core.Timings() {
		nacks += tm.Nacks
	}
	if nacks == 0 {
		t.Fatal("no load was nacked: the retry path went unchecked")
	}
	if got := s.core.Timing(1).LoadValue; got != 1 {
		t.Fatalf("forwarded load = %d, want 1", got)
	}
}

func TestROBCapacityBoundsDispatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ROBEntries = 4
	port := tilelink.NewClientPort("t", 16, 64, 1)
	dc := l1.New(l1.DefaultConfig(0), port)
	m := mem.New(mem.DefaultConfig())
	l2c := l2.New(l2.DefaultConfig(1), []*tilelink.ClientPort{port}, m)
	core := New(cfg, 0, dc)

	b := isa.NewBuilder().Load(0x1000) // cold load: busy until data returns
	for i := 0; i < 10; i++ {
		b.Nop()
	}
	core.SetProgram(b.Build())
	var now int64
	for i := 0; i < 20; i++ {
		m.Tick(now)
		l2c.Tick(now)
		dc.Tick(now)
		core.Tick(now)
		now++
	}
	tm := core.Timings()
	dispatched := 0
	for _, x := range tm {
		if x.DispatchedAt >= 0 {
			dispatched++
		}
	}
	if dispatched > cfg.ROBEntries {
		t.Fatalf("%d instructions dispatched with a %d-entry ROB", dispatched, cfg.ROBEntries)
	}
	for now < 100_000 && !core.Done() {
		m.Tick(now)
		l2c.Tick(now)
		dc.Tick(now)
		core.Tick(now)
		now++
	}
	if !core.Done() {
		t.Fatal("program stuck")
	}
}

func TestTimingsRecordLifecycle(t *testing.T) {
	s := newStack(t)
	p := isa.NewBuilder().Store(0x1000, 1).Load(0x1000).Fence().Build()
	s.run(t, p, 100_000)
	for i, tm := range s.core.Timings() {
		if tm.DispatchedAt < 0 || tm.CompletedAt < 0 || tm.CommittedAt < 0 {
			t.Fatalf("instruction %d has incomplete lifecycle: %+v", i, tm)
		}
		if tm.CompletedAt > tm.CommittedAt {
			t.Fatalf("instruction %d committed (%d) before completing (%d)", i, tm.CommittedAt, tm.CompletedAt)
		}
		if tm.DispatchedAt > tm.CompletedAt {
			t.Fatalf("instruction %d completed (%d) before dispatch (%d)", i, tm.CompletedAt, tm.DispatchedAt)
		}
	}
}

func TestLDQCapacityBoundsDispatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LDQEntries = 2
	cfg.ROBEntries = 64
	port := tilelink.NewClientPort("t", 16, 64, 1)
	dc := l1.New(l1.DefaultConfig(0), port)
	m := mem.New(mem.DefaultConfig())
	l2c := l2.New(l2.DefaultConfig(1), []*tilelink.ClientPort{port}, m)
	core := New(cfg, 0, dc)

	b := isa.NewBuilder()
	for i := 0; i < 6; i++ {
		b.Load(uint64(i) * 0x10000) // six cold loads, all long-latency
	}
	core.SetProgram(b.Build())
	var now int64
	for i := 0; i < 10; i++ {
		m.Tick(now)
		l2c.Tick(now)
		dc.Tick(now)
		core.Tick(now)
		now++
	}
	dispatched := 0
	for _, tm := range core.Timings() {
		if tm.DispatchedAt >= 0 {
			dispatched++
		}
	}
	if dispatched > cfg.LDQEntries {
		t.Fatalf("%d loads dispatched with a %d-entry LDQ", dispatched, cfg.LDQEntries)
	}
	for now < 100_000 && !core.Done() {
		m.Tick(now)
		l2c.Tick(now)
		dc.Tick(now)
		core.Tick(now)
		now++
	}
	if !core.Done() {
		t.Fatal("program stuck")
	}
}

func TestSTQCapacityBoundsDispatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.STQEntries = 2
	port := tilelink.NewClientPort("t", 16, 64, 1)
	dc := l1.New(l1.DefaultConfig(0), port)
	m := mem.New(mem.DefaultConfig())
	l2c := l2.New(l2.DefaultConfig(1), []*tilelink.ClientPort{port}, m)
	core := New(cfg, 0, dc)

	b := isa.NewBuilder().Load(0x90000) // cold load blocks the ROB head
	for i := 0; i < 6; i++ {
		b.Store(uint64(i)*0x10000, 1)
	}
	core.SetProgram(b.Build())
	var now int64
	for i := 0; i < 10; i++ {
		m.Tick(now)
		l2c.Tick(now)
		dc.Tick(now)
		core.Tick(now)
		now++
	}
	stqDispatched := 0
	for i, tm := range core.Timings() {
		if i > 0 && tm.DispatchedAt >= 0 {
			stqDispatched++
		}
	}
	if stqDispatched > cfg.STQEntries {
		t.Fatalf("%d stores dispatched with a %d-entry STQ", stqDispatched, cfg.STQEntries)
	}
}
