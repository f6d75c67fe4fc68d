package tilelink

import (
	"fmt"
	"math"
)

// NoEvent is the NextEvent sentinel meaning "no self-generated future event":
// the component cannot change state until some other component acts on it. It
// is far enough from MaxInt64 that callers can add small offsets without
// overflow.
const NoEvent int64 = math.MaxInt64 / 2

// Chaos is the fault-injection hook a link consults when armed. All methods
// must be pure functions of their arguments and the injector's schedule state
// for the current cycle, so that Peek and Recv agree within a cycle and a
// replayed schedule perturbs the link bit-identically. A nil hook (the
// default) costs one pointer compare per Send/Recv.
type Chaos interface {
	// SendFault is consulted before a send is accepted at cycle now. A
	// refuse return models acceptance backpressure (the channel holds
	// ready low; the sender retries as for ordinary occupancy); extra adds
	// wire-latency jitter to this message's delivery. Jitter delays
	// delivery but can never reorder: messages still drain strictly in
	// send order.
	SendFault(now int64) (extra int64, refuse bool)
	// RecvStall reports whether delivery of the head message must stall at
	// cycle now (beat stall on the receive side).
	RecvStall(now int64) bool
}

// Link is one unidirectional TileLink channel between two agents. It models
// occupancy in beats: a message with a data payload occupies the channel for
// lineBytes/beatBytes consecutive cycles (4 cycles for a 64 B line on the
// SonicBOOM's 16 B system bus, §3.3/Fig. 3), a data-less message for one
// cycle, and delivery additionally incurs a fixed wire latency.
//
// Links are driven by the simulation clock: producers call Send with the
// current cycle, consumers call Recv with the current cycle. A message sent
// at cycle t is never receivable before t+1, which keeps the component tick
// order of the system loop free of zero-cycle combinational paths.
type Link struct {
	Name      string
	BeatBytes uint64
	LineBytes uint64
	Latency   int // wire cycles added after the final beat

	busyUntil int64 // last cycle at which the channel is occupied
	q         []inflight
	chaos     Chaos  // nil unless a fault schedule is armed
	events    uint64 // successful Send+Recv count (watchdog progress signal)
}

type inflight struct {
	msg     Msg
	readyAt int64 // first cycle at which Recv may return the message
}

// NewLink returns a link with the given occupancy parameters. latency is the
// number of cycles between the last beat leaving the sender and the message
// becoming receivable.
func NewLink(name string, beatBytes, lineBytes uint64, latency int) *Link {
	if beatBytes == 0 || lineBytes%beatBytes != 0 {
		panic(fmt.Sprintf("tilelink: link %s: line %d not a multiple of beat %d", name, lineBytes, beatBytes))
	}
	return &Link{Name: name, BeatBytes: beatBytes, LineBytes: lineBytes, Latency: latency}
}

// Beats returns the number of beats the message occupies on this link.
//
//skipit:hotpath
func (l *Link) Beats(m Msg) int64 {
	if m.Op.HasData() {
		return int64(l.LineBytes / l.BeatBytes)
	}
	return 1
}

// CanSend reports whether the channel can accept the first beat of a new
// message at cycle now.
//
//skipit:hotpath
func (l *Link) CanSend(now int64) bool { return l.busyUntil <= now }

// Send enqueues a message at cycle now. It reports false without side
// effects when the channel is occupied; the caller must retry on a later
// cycle, as hardware would hold valid high until ready.
//
//skipit:hotpath
func (l *Link) Send(now int64, m Msg) bool {
	if !l.CanSend(now) {
		return false
	}
	if err := m.Validate(l.LineBytes); err != nil { //skipit:ignore hotalloc Validate builds errors only for illegal messages; the legal-trace path is allocation-free
		panic(err)
	}
	var extra int64
	if l.chaos != nil {
		var refuse bool
		extra, refuse = l.chaos.SendFault(now)
		if refuse {
			return false
		}
	}
	beats := l.Beats(m)
	l.busyUntil = now + beats
	l.q = append(l.q, inflight{msg: m, readyAt: now + beats + int64(l.Latency) + extra}) //skipit:ignore hotalloc queue growth is amortized, capacity is bounded by channel occupancy
	l.events++
	return true
}

// Recv returns the oldest message that has fully arrived by cycle now, or
// ok=false. Messages are delivered strictly in send order.
//
//skipit:hotpath
func (l *Link) Recv(now int64) (Msg, bool) {
	if len(l.q) == 0 || l.q[0].readyAt > now {
		return Msg{}, false
	}
	if l.chaos != nil && l.chaos.RecvStall(now) {
		return Msg{}, false
	}
	m := l.q[0].msg
	// Shift rather than re-slice so the backing array does not grow
	// without bound over long simulations.
	copy(l.q, l.q[1:])
	l.q = l.q[:len(l.q)-1]
	l.events++
	return m, true
}

// Peek is Recv without consuming the message. It consults the same chaos
// stall predicate as Recv so that a Peek-then-Recv sequence within one cycle
// sees consistent answers.
//
//skipit:hotpath
func (l *Link) Peek(now int64) (Msg, bool) {
	if len(l.q) == 0 || l.q[0].readyAt > now {
		return Msg{}, false
	}
	if l.chaos != nil && l.chaos.RecvStall(now) {
		return Msg{}, false
	}
	return l.q[0].msg, true
}

// NextEvent returns the earliest cycle after now at which this channel can
// change observable state on its own: the arrival cycle of the oldest
// undelivered message. Delivery is strictly in send order, so the head
// message gates everything behind it. A head that is already receivable (for
// example held back by a chaos RecvStall window) reports now+1 — the
// conservative answer that forbids skipping while a consumer could act.
// Channel occupancy (busyUntil) is deliberately not an event: a sender
// blocked on it is itself active and reports now+1 from its own NextEvent.
//
//skipit:hotpath
func (l *Link) NextEvent(now int64) int64 {
	if len(l.q) == 0 {
		return NoEvent
	}
	if r := l.q[0].readyAt; r > now {
		return r
	}
	return now + 1
}

// SetChaos installs (or, with nil, removes) the fault-injection hook.
func (l *Link) SetChaos(c Chaos) { l.chaos = c }

// Events returns the cumulative count of successful sends and deliveries on
// this link. The watchdog uses it as a cheap forward-progress signal: a
// changing count means messages are still moving.
func (l *Link) Events() uint64 { return l.events }

// Pending returns the number of in-flight messages (sent, not yet received).
func (l *Link) Pending() int { return len(l.q) }

// Reset drops all in-flight messages, e.g. when simulating a crash that
// destroys volatile state.
func (l *Link) Reset() {
	l.q = l.q[:0]
	l.busyUntil = 0
}

// ClientPort bundles the five channels of one client<->manager link, from the
// client's perspective: A, C, E are outbound; B, D are inbound.
type ClientPort struct {
	A, C, E *Link // client -> manager
	B, D    *Link // manager -> client
}

// NewClientPort builds a five-channel link bundle. All channels share beat
// and line geometry; only C and D can carry data in our protocol subset, but
// uniform geometry keeps the model simple and matches the shared system bus.
func NewClientPort(name string, beatBytes, lineBytes uint64, latency int) *ClientPort {
	mk := func(ch string) *Link {
		return NewLink(name+"."+ch, beatBytes, lineBytes, latency)
	}
	return &ClientPort{A: mk("A"), B: mk("B"), C: mk("C"), D: mk("D"), E: mk("E")}
}

// Pending returns the total number of in-flight messages across all five
// channels; zero means the link bundle is quiescent.
func (p *ClientPort) Pending() int {
	return p.A.Pending() + p.B.Pending() + p.C.Pending() + p.D.Pending() + p.E.Pending()
}

// Reset drops in-flight messages on all five channels.
func (p *ClientPort) Reset() {
	p.A.Reset()
	p.B.Reset()
	p.C.Reset()
	p.D.Reset()
	p.E.Reset()
}

// NextEvent returns the earliest cycle after now at which any of the five
// channels can deliver a message; NoEvent when the bundle is quiescent.
//
//skipit:hotpath
func (p *ClientPort) NextEvent(now int64) int64 {
	next := p.A.NextEvent(now)
	if t := p.B.NextEvent(now); t < next {
		next = t
	}
	if t := p.C.NextEvent(now); t < next {
		next = t
	}
	if t := p.D.NextEvent(now); t < next {
		next = t
	}
	if t := p.E.NextEvent(now); t < next {
		next = t
	}
	return next
}

// Events sums the activity counters of all five channels.
func (p *ClientPort) Events() uint64 {
	return p.A.Events() + p.B.Events() + p.C.Events() + p.D.Events() + p.E.Events()
}

// MsgDebug is the JSON-friendly view of one in-flight message.
type MsgDebug struct {
	Op      string `json:"op"`
	Addr    uint64 `json:"addr"`
	ReadyAt int64  `json:"ready_at"`
}

// LinkDebug is the JSON-friendly snapshot of one channel's queue, embedded in
// hang reports.
type LinkDebug struct {
	Name      string     `json:"name"`
	BusyUntil int64      `json:"busy_until"`
	Pending   []MsgDebug `json:"pending,omitempty"`
}

// Debug snapshots the channel's in-flight queue for diagnostics.
func (l *Link) Debug() LinkDebug {
	d := LinkDebug{Name: l.Name, BusyUntil: l.busyUntil}
	for _, f := range l.q {
		d.Pending = append(d.Pending, MsgDebug{Op: f.msg.Op.String(), Addr: f.msg.Addr, ReadyAt: f.readyAt})
	}
	return d
}

// Debug snapshots all five channels of the bundle.
func (p *ClientPort) Debug() []LinkDebug {
	return []LinkDebug{p.A.Debug(), p.B.Debug(), p.C.Debug(), p.D.Debug(), p.E.Debug()}
}
