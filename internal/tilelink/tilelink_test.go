package tilelink

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPermPredicates(t *testing.T) {
	cases := []struct {
		p           Perm
		read, write bool
	}{
		{PermNone, false, false},
		{PermBranch, true, false},
		{PermTrunk, true, true},
	}
	for _, c := range cases {
		if got := c.p.CanRead(); got != c.read {
			t.Errorf("%v.CanRead() = %v, want %v", c.p, got, c.read)
		}
		if got := c.p.CanWrite(); got != c.write {
			t.Errorf("%v.CanWrite() = %v, want %v", c.p, got, c.write)
		}
	}
}

func TestGrowEndpoints(t *testing.T) {
	cases := []struct {
		g        Grow
		from, to Perm
	}{
		{GrowNtoB, PermNone, PermBranch},
		{GrowNtoT, PermNone, PermTrunk},
		{GrowBtoT, PermBranch, PermTrunk},
	}
	for _, c := range cases {
		if c.g.From() != c.from || c.g.To() != c.to {
			t.Errorf("%v: got %v->%v, want %v->%v", c.g, c.g.From(), c.g.To(), c.from, c.to)
		}
	}
}

func TestShrinkForRoundTrip(t *testing.T) {
	perms := []Perm{PermNone, PermBranch, PermTrunk}
	for _, from := range perms {
		for _, to := range perms {
			if to > from {
				continue // upgrades are illegal on channel C
			}
			s := ShrinkFor(from, to)
			if s.From() != from || s.To() != to {
				t.Errorf("ShrinkFor(%v,%v) = %v with endpoints %v->%v", from, to, s, s.From(), s.To())
			}
		}
	}
}

func TestShrinkForPanicsOnUpgrade(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ShrinkFor(None, Trunk) did not panic")
		}
	}()
	ShrinkFor(PermNone, PermTrunk)
}

func TestOpcodeChannels(t *testing.T) {
	cases := map[Opcode]Channel{
		OpAcquireBlock:     ChannelA,
		OpAcquirePerm:      ChannelA,
		OpProbe:            ChannelB,
		OpProbeAck:         ChannelC,
		OpProbeAckData:     ChannelC,
		OpRelease:          ChannelC,
		OpReleaseData:      ChannelC,
		OpRootReleaseFlush: ChannelC,
		OpRootReleaseClean: ChannelC,
		OpGrant:            ChannelD,
		OpGrantData:        ChannelD,
		OpGrantDataDirty:   ChannelD,
		OpReleaseAck:       ChannelD,
		OpRootReleaseAck:   ChannelD,
		OpGrantAck:         ChannelE,
	}
	for op, want := range cases {
		if got := op.Chan(); got != want {
			t.Errorf("%v.Chan() = %v, want %v", op, got, want)
		}
	}
}

func TestWireEncoding(t *testing.T) {
	// §5.1: the new messages reuse existing opcodes with new parameters so
	// the opcode bitvector does not grow.
	cases := []struct {
		op    Opcode
		enc   Opcode
		param string
	}{
		{OpRootReleaseFlush, OpProbeAck, "FLUSH"},
		{OpRootReleaseClean, OpProbeAck, "CLEAN"},
		{OpRootReleaseAck, OpReleaseAck, "ROOT"},
		{OpGrant, OpGrant, ""},
		{OpProbe, OpProbe, ""},
	}
	for _, c := range cases {
		enc, param := c.op.WireEncoding()
		if enc != c.enc || param != c.param {
			t.Errorf("%v.WireEncoding() = (%v,%q), want (%v,%q)", c.op, enc, param, c.enc, c.param)
		}
	}
}

func TestMsgValidate(t *testing.T) {
	var line Line
	line[5] = 1
	good := Msg{Op: OpGrantData, Addr: 0x1000, Data: line, Cap: CapToT}
	if err := good.Validate(64); err != nil {
		t.Errorf("valid message rejected: %v", err)
	}
	if err := (Msg{Op: OpGrantData, Addr: 0x1000}).Validate(64); err != nil {
		t.Errorf("all-zero line rejected: %v", err)
	}
	if err := (Msg{Op: OpGrant, Addr: 0x1000, Data: line}).Validate(64); err == nil {
		t.Error("payload on data-less opcode accepted")
	}
	if err := (Msg{Op: OpGrant, Addr: 0x1004}).Validate(64); err == nil {
		t.Error("unaligned address accepted")
	}
}

func TestLinkBeatOccupancy(t *testing.T) {
	l := NewLink("t", 16, 64, 0)
	data := Msg{Op: OpGrantData, Addr: 0}
	if !l.Send(0, data) {
		t.Fatal("send rejected on idle link")
	}
	// A 64 B message on a 16 B bus occupies 4 beats: cycles 0..3.
	for now := int64(1); now <= 3; now++ {
		if l.CanSend(now) {
			t.Errorf("link free at cycle %d during 4-beat transfer", now)
		}
	}
	if !l.CanSend(4) {
		t.Error("link still busy after transfer completed")
	}
	if _, ok := l.Recv(3); ok {
		t.Error("data message delivered before final beat")
	}
	if m, ok := l.Recv(4); !ok || m.Op != OpGrantData {
		t.Errorf("Recv(4) = %v,%v; want GrantData,true", m, ok)
	}
}

func TestLinkDataLessSingleBeat(t *testing.T) {
	l := NewLink("t", 16, 64, 0)
	if !l.Send(10, Msg{Op: OpGrant, Addr: 64}) {
		t.Fatal("send rejected")
	}
	if l.CanSend(10) {
		t.Error("link free during its single busy cycle")
	}
	if !l.CanSend(11) {
		t.Error("link busy after single-beat message")
	}
	if _, ok := l.Recv(10); ok {
		t.Error("message delivered in its send cycle")
	}
	if _, ok := l.Recv(11); !ok {
		t.Error("message not delivered after one beat")
	}
}

func TestLinkLatencyAddsAfterBeats(t *testing.T) {
	l := NewLink("t", 16, 64, 5)
	l.Send(0, Msg{Op: OpProbeAckData, Addr: 0, Shrink: ShrinkTtoN})
	if _, ok := l.Recv(8); ok {
		t.Error("delivered before beats+latency")
	}
	if _, ok := l.Recv(9); !ok {
		t.Error("not delivered at beats+latency")
	}
}

func TestLinkFIFOOrder(t *testing.T) {
	l := NewLink("t", 16, 64, 0)
	now := int64(0)
	for i := 0; i < 10; i++ {
		m := Msg{Op: OpGrant, Addr: uint64(i) * 64}
		for !l.Send(now, m) {
			now++
		}
		now++
	}
	now += 100
	for i := 0; i < 10; i++ {
		m, ok := l.Recv(now)
		if !ok {
			t.Fatalf("message %d missing", i)
		}
		if m.Addr != uint64(i)*64 {
			t.Fatalf("message %d out of order: addr %#x", i, m.Addr)
		}
	}
}

func TestLinkPeekDoesNotConsume(t *testing.T) {
	l := NewLink("t", 16, 64, 0)
	l.Send(0, Msg{Op: OpGrant, Addr: 0})
	if _, ok := l.Peek(1); !ok {
		t.Fatal("peek missed delivered message")
	}
	if _, ok := l.Recv(1); !ok {
		t.Fatal("recv after peek missed message")
	}
	if _, ok := l.Recv(1); ok {
		t.Fatal("message delivered twice")
	}
}

// TestLinkPeekPointerSurvivesRecv: Peek hands out the head message in
// place. The next Recv returns that same message, and its fields survive the
// Recv — here the one that empties the link — until the link's next Send.
func TestLinkPeekPointerSurvivesRecv(t *testing.T) {
	l := NewLink("t", 16, 64, 0)
	var line Line
	line[0], line[63] = 0xAB, 0xCD
	sent := Msg{Op: OpGrantData, Addr: 0x40, Cap: CapToT, Txn: 7, Data: line}
	l.Send(0, sent)
	p, ok := l.Peek(4)
	if !ok {
		t.Fatal("peek missed delivered message")
	}
	r, ok := l.Recv(4)
	if !ok || r != p {
		t.Fatalf("Recv = %p,%v, want the peeked message %p", r, ok, p)
	}
	if *p != sent {
		t.Fatalf("peeked message after Recv = %v, want %v", *p, sent)
	}
	if l.Pending() != 0 {
		t.Fatalf("Pending() = %d after draining the link", l.Pending())
	}
}

// TestLinkQueueCapacityBounded: a long send/receive stream that never drains
// the link keeps the queue's capacity bounded by its peak depth. Recv only
// advances the head, so Send must reuse the delivered slots in front of it
// rather than grow the backing array.
func TestLinkQueueCapacityBounded(t *testing.T) {
	l := NewLink("t", 16, 64, 3)
	peak, sent, early := 0, 0, 0
	for now := int64(0); sent < 10_000; now++ {
		if l.Send(now, Msg{Op: OpGrant, Addr: uint64(sent) * 64}) {
			sent++
		}
		if n := l.Pending(); n > peak {
			peak = n
		}
		if m, ok := l.Recv(now); ok && m.Addr != uint64(sent-l.Pending()-1)*64 {
			t.Fatalf("cycle %d: delivered %#x out of order", now, m.Addr)
		}
		if now > 4 && l.Pending() == 0 {
			t.Fatalf("cycle %d: link drained; the stream must keep it busy", now)
		}
		if sent == 100 {
			early = cap(l.q)
		}
	}
	if c := cap(l.q); c > early || c > 2*peak {
		t.Fatalf("queue capacity %d after 10,000 messages (%d after 100, peak depth %d)", c, early, peak)
	}
}

func TestLinkReset(t *testing.T) {
	l := NewLink("t", 16, 64, 0)
	l.Send(0, Msg{Op: OpGrant, Addr: 0})
	l.Reset()
	if l.Pending() != 0 {
		t.Error("pending messages after reset")
	}
	if !l.CanSend(0) {
		t.Error("link busy after reset")
	}
}

func TestClientPortQuiescence(t *testing.T) {
	p := NewClientPort("l1", 16, 64, 1)
	if p.Pending() != 0 {
		t.Fatal("fresh port not quiescent")
	}
	p.A.Send(0, Msg{Op: OpAcquireBlock, Addr: 0, Grow: GrowNtoT})
	p.D.Send(0, Msg{Op: OpGrant, Addr: 0, Cap: CapToT})
	if p.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", p.Pending())
	}
	p.Reset()
	if p.Pending() != 0 {
		t.Fatal("port not quiescent after reset")
	}
}

// Property: on any random schedule of sends, every message is delivered
// exactly once, in order, and never before send+beats cycles have elapsed.
func TestLinkDeliveryProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		l := NewLink("q", 16, 64, rng.Intn(4))
		type sent struct {
			addr   uint64
			sentAt int64
			beats  int64
		}
		var log []sent
		var got []Msg
		now := int64(0)
		toSend := int(n%32) + 1
		for len(got) < toSend {
			if len(log) < toSend && rng.Intn(2) == 0 {
				var m Msg
				if rng.Intn(2) == 0 {
					m = Msg{Op: OpReleaseData, Addr: uint64(len(log)) * 64,
						Shrink: ShrinkTtoN}
				} else {
					m = Msg{Op: OpRelease, Addr: uint64(len(log)) * 64, Shrink: ShrinkBtoN}
				}
				if l.Send(now, m) {
					log = append(log, sent{m.Addr, now, l.Beats(m)})
				}
			}
			if m, ok := l.Recv(now); ok {
				i := len(got)
				got = append(got, *m)
				if i >= len(log) || log[i].addr != m.Addr {
					return false // out of order or phantom
				}
				if now < log[i].sentAt+log[i].beats+int64(l.Latency) {
					return false // delivered too early
				}
			}
			now++
			if now > 10_000 {
				return false // lost messages
			}
		}
		return l.Pending() == 0 || len(log) > len(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
