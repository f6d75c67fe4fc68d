package tilelink

import (
	"reflect"
	"testing"
)

// TestLinkNextEvent: an empty link reports NoEvent; an in-flight head
// reports its arrival cycle; a head that is already receivable reports
// now+1; and a port folds its five channels to the earliest.
func TestLinkNextEvent(t *testing.T) {
	l := NewLink("t", 16, 64, 2)
	if got := l.NextEvent(0); got != NoEvent {
		t.Fatalf("empty link NextEvent = %d, want NoEvent", got)
	}
	l.Send(0, Msg{Op: OpGrantData, Addr: 0}) // 4 beats + 2 wire
	if got := l.NextEvent(0); got != 6 {
		t.Fatalf("in-flight NextEvent = %d, want 6", got)
	}
	if got := l.NextEvent(9); got != 10 {
		t.Fatalf("receivable head NextEvent = %d, want now+1 = 10", got)
	}
	if _, ok := l.Recv(9); !ok {
		t.Fatal("message not delivered")
	}
	if got := l.NextEvent(9); got != NoEvent {
		t.Fatalf("drained link NextEvent = %d, want NoEvent", got)
	}

	p := NewClientPort("l1", 16, 64, 1)
	if got := p.NextEvent(0); got != NoEvent {
		t.Fatalf("quiescent port NextEvent = %d, want NoEvent", got)
	}
	p.C.Send(0, Msg{Op: OpReleaseData, Addr: 0, Shrink: ShrinkTtoN}) // ready at 5
	p.E.Send(1, Msg{Op: OpGrantAck, Addr: 0})                        // ready at 3
	if got := p.NextEvent(1); got != 3 {
		t.Fatalf("port NextEvent = %d, want the earliest channel (3)", got)
	}
}

// TestLinkEventsCountSendsAndDeliveries: the watchdog's progress signal
// moves once per accepted send and once per delivery, never for a refused
// send or an empty Recv, and a port sums its channels.
func TestLinkEventsCountSendsAndDeliveries(t *testing.T) {
	p := NewClientPort("l1", 16, 64, 1)
	p.A.Send(0, Msg{Op: OpAcquireBlock, Addr: 0, Grow: GrowNtoB})
	if p.A.Send(0, Msg{Op: OpAcquireBlock, Addr: 64, Grow: GrowNtoB}) {
		t.Fatal("second send in an occupied cycle accepted")
	}
	if _, ok := p.A.Recv(0); ok {
		t.Fatal("message delivered in its send cycle")
	}
	if got := p.A.Events(); got != 1 {
		t.Fatalf("A events after one accepted send = %d, want 1", got)
	}
	if _, ok := p.A.Recv(10); !ok {
		t.Fatal("acquire not delivered")
	}
	p.D.Send(10, Msg{Op: OpGrant, Addr: 0, Cap: CapToB})
	if got := p.A.Events(); got != 2 {
		t.Fatalf("A events after send and delivery = %d, want 2", got)
	}
	if got := p.Events(); got != 3 {
		t.Fatalf("port events = %d, want 3", got)
	}
	p.Reset()
	if got := p.Events(); got != 3 {
		t.Fatalf("Reset rewound the progress counter to %d", got)
	}
}

// TestLinkResetDropsInFlight: messages in flight at a Reset are never
// delivered, however long the receiver waits.
func TestLinkResetDropsInFlight(t *testing.T) {
	l := NewLink("t", 16, 64, 3)
	l.Send(0, Msg{Op: OpGrant, Addr: 0})
	l.Reset()
	if got := l.NextEvent(0); got != NoEvent {
		t.Fatalf("NextEvent after Reset = %d, want NoEvent", got)
	}
	if m, ok := l.Recv(100); ok {
		t.Fatalf("dropped message delivered: %v", m)
	}
}

// scriptedChaos refuses sends at the listed cycles, adds a fixed jitter to
// every accepted send, and stalls delivery at the listed cycles.
type scriptedChaos struct {
	refuse, stall map[int64]bool
	jitter        int64
}

func (c *scriptedChaos) SendFault(now int64) (int64, bool) { return c.jitter, c.refuse[now] }
func (c *scriptedChaos) RecvStall(now int64) bool          { return c.stall[now] }

func TestLinkChaosHook(t *testing.T) {
	t.Run("refused send leaves no trace", func(t *testing.T) {
		l := NewLink("t", 16, 64, 0)
		l.SetChaos(&scriptedChaos{refuse: map[int64]bool{0: true}})
		if l.Send(0, Msg{Op: OpGrant, Addr: 0}) {
			t.Fatal("refused send accepted")
		}
		if l.Pending() != 0 || l.Events() != 0 || !l.CanSend(0) {
			t.Fatalf("refused send changed state: pending %d events %d", l.Pending(), l.Events())
		}
		if !l.Send(1, Msg{Op: OpGrant, Addr: 0}) {
			t.Fatal("retry after the refusal rejected")
		}
	})
	t.Run("jitter delays but never reorders", func(t *testing.T) {
		l := NewLink("t", 16, 64, 0)
		c := &scriptedChaos{jitter: 5}
		l.SetChaos(c)
		l.Send(0, Msg{Op: OpGrant, Addr: 0}) // ready at 1+5
		c.jitter = 0
		l.Send(1, Msg{Op: OpGrant, Addr: 64}) // ready at 2, behind the head
		if _, ok := l.Recv(5); ok {
			t.Fatal("jittered head delivered early")
		}
		for i, want := range []uint64{0, 64} {
			m, ok := l.Recv(6)
			if !ok || m.Addr != want {
				t.Fatalf("delivery %d = %v,%v, want addr %#x", i, m, ok, want)
			}
		}
	})
	t.Run("stall holds Recv and Peek alike", func(t *testing.T) {
		l := NewLink("t", 16, 64, 0)
		l.SetChaos(&scriptedChaos{stall: map[int64]bool{1: true}})
		l.Send(0, Msg{Op: OpGrant, Addr: 0})
		if _, ok := l.Peek(1); ok {
			t.Fatal("Peek saw the head during a stall")
		}
		if _, ok := l.Recv(1); ok {
			t.Fatal("Recv delivered during a stall")
		}
		if got := l.NextEvent(1); got != 2 {
			t.Fatalf("stalled receivable head NextEvent = %d, want now+1 = 2", got)
		}
		if _, ok := l.Recv(2); !ok {
			t.Fatal("head not delivered once the stall ended")
		}
	})
	t.Run("nil hook disarms", func(t *testing.T) {
		l := NewLink("t", 16, 64, 0)
		l.SetChaos(&scriptedChaos{refuse: map[int64]bool{0: true}})
		l.SetChaos(nil)
		if !l.Send(0, Msg{Op: OpGrant, Addr: 0}) {
			t.Fatal("send refused after the hook was removed")
		}
	})
}

// TestLinkDebugSnapshot: hang reports list each channel's occupancy and its
// in-flight messages in delivery order, channels in A..E order.
func TestLinkDebugSnapshot(t *testing.T) {
	p := NewClientPort("l1", 16, 64, 1)
	p.C.Send(0, Msg{Op: OpReleaseData, Addr: 0x40, Shrink: ShrinkTtoN})
	p.C.Send(4, Msg{Op: OpProbeAck, Addr: 0x80, Shrink: ShrinkBtoN})
	d := p.Debug()
	var names []string
	for _, ld := range d {
		names = append(names, ld.Name)
	}
	if want := []string{"l1.A", "l1.B", "l1.C", "l1.D", "l1.E"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("channels %v, want %v", names, want)
	}
	want := LinkDebug{Name: "l1.C", BusyUntil: 5, Pending: []MsgDebug{
		{Op: "ReleaseData", Addr: 0x40, ReadyAt: 5},
		{Op: "ProbeAck", Addr: 0x80, ReadyAt: 6},
	}}
	if !reflect.DeepEqual(d[2], want) {
		t.Fatalf("C channel debug = %+v, want %+v", d[2], want)
	}
	if d[0].Pending != nil || d[0].BusyUntil != 0 {
		t.Fatalf("idle A channel debug = %+v", d[0])
	}
}
