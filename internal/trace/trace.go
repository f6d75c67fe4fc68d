// Package trace is the simulator's one event stream. Each component holds a
// *Rec handle and records each fact once, as a fixed-size all-integer
// RecEvent (a code, a cause, a txn id, a line address and a code-specific
// arg). The system's Recorder keeps the last N events per component in
// rings when a flight recorder is armed, and streams every event to one
// attached Sink when a trace is asked for: Text writes one line per event,
// ChromeTracer a Chrome trace_event document. A component without a handle
// records nothing and pays one inlined nil check per would-be event, so
// benchmarks run unobserved at full speed.
package trace

import (
	"fmt"
	"io"
)

// Sink receives every event as it is recorded, with the name of the
// component that recorded it ("l1[0]", "flush[1]", "l2", "mem").
type Sink interface {
	Record(component string, e RecEvent)
}

// Text is a Sink that writes one line per event as it is recorded.
type Text struct {
	w   io.Writer
	buf []byte // reused line buffer
}

// NewText returns a sink that streams its lines to w.
func NewText(w io.Writer) *Text { return &Text{w: w} }

// Record writes e as one line: the cycle, the component, the code and the
// line address, then whichever of the txn id, the cause and the named arg
// it carries.
func (t *Text) Record(component string, e RecEvent) {
	b := fmt.Appendf(t.buf[:0], "%8d  %-8s %-16s %#10x", e.Cycle, component, e.Code, e.Addr)
	if e.Txn != 0 {
		b = fmt.Appendf(b, "  txn=%d", e.Txn)
	}
	if e.Cause != CauseNone {
		b = append(append(b, ' '), e.Cause.String()...)
	}
	if name := e.Code.argName(); name != "" {
		b = fmt.Appendf(b, " %s=%d", name, e.Arg)
	}
	t.buf = append(b, '\n')
	_, _ = t.w.Write(t.buf) // a lost trace line cannot change the simulated run
}

// TxnSeq hands out deterministic coherence-transaction ids. Exactly one
// sequence exists per simulated system (sim.New creates it and injects it
// into every component config; standalone component constructors fall back
// to a private one), so ids are globally unique within a run and assignment
// order follows the deterministic Tick order. Ids start at 1; 0 means "no
// transaction". Ids are assigned unconditionally — whether or not the event
// stream is observed — so observing can never change simulation behavior,
// and ids are identical across fast-forward on/off.
type TxnSeq struct {
	next uint64
}

// Next returns the next transaction id. Nil-safe: a nil sequence returns 0.
//
//skipit:hotpath
func (s *TxnSeq) Next() uint64 {
	if s == nil {
		return 0
	}
	s.next++
	return s.next
}
