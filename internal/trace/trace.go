// Package trace is the simulator's event-tracing facility: components emit
// typed events (flush-unit state transitions, cache misses, probes, grants,
// commits) to a Tracer, and tools render them as a timeline. Tracing is
// opt-in and nil-safe: a nil Tracer costs one branch per would-be event, so
// benchmarks run untraced at full speed.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// Event is one timestamped simulator occurrence.
type Event struct {
	Cycle  int64
	Source string // component instance, e.g. "l1[0]", "flush[1]", "l2"
	Kind   string // event class, e.g. "cbo-offer", "fshr", "probe", "grant"
	Addr   uint64 // line address; meaningful only when HasAddr is set
	// HasAddr distinguishes an event about line 0 — a perfectly valid
	// address — from an event with no address at all.
	HasAddr bool
	// Txn is the coherence-transaction id the event belongs to; 0 means the
	// event is not part of any transaction. Renderers that understand
	// causality (ChromeTracer) stitch same-Txn events into one span.
	Txn    uint64
	Detail string // free-form specifics
}

func (e Event) String() string {
	if e.HasAddr {
		return fmt.Sprintf("%8d  %-8s %-12s %#10x  %s", e.Cycle, e.Source, e.Kind, e.Addr, e.Detail)
	}
	return fmt.Sprintf("%8d  %-8s %-12s %10s  %s", e.Cycle, e.Source, e.Kind, "", e.Detail)
}

// Tracer receives events. Implementations must tolerate concurrent Emit
// calls only if they are shared across goroutines; the cycle simulator is
// single-goroutine, but the Ring is safe either way.
type Tracer interface {
	Emit(Event)
}

// Ring is a bounded in-memory tracer keeping the most recent events.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	count int
	total uint64
}

// NewRing returns a tracer retaining the last n events.
func NewRing(n int) *Ring {
	if n <= 0 {
		panic("trace: ring size must be positive")
	}
	return &Ring{buf: make([]Event, n)}
}

// Emit records an event, evicting the oldest when full.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
	r.total++
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Total returns the number of events ever emitted (including evicted ones).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Filter returns the retained events whose Kind or Source contains the
// given substring.
func (r *Ring) Filter(substr string) []Event {
	var out []Event
	for _, e := range r.Events() {
		if strings.Contains(e.Kind, substr) || strings.Contains(e.Source, substr) {
			out = append(out, e)
		}
	}
	return out
}

// ForAddr returns the retained events for one line address — the life story
// of a cache line. Events without an address never match, even for line 0.
func (r *Ring) ForAddr(addr uint64) []Event {
	line := addr &^ 63
	var out []Event
	for _, e := range r.Events() {
		if e.HasAddr && e.Addr&^63 == line {
			out = append(out, e)
		}
	}
	return out
}

// Dump writes the retained events to w, oldest first.
func (r *Ring) Dump(w io.Writer) error {
	for _, e := range r.Events() {
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}

// Writer streams every event to an io.Writer as it is emitted.
type Writer struct {
	mu sync.Mutex
	W  io.Writer
}

// NewWriter returns a streaming tracer.
func NewWriter(w io.Writer) *Writer { return &Writer{W: w} }

// Emit writes the event immediately.
func (t *Writer) Emit(e Event) {
	t.mu.Lock()
	fmt.Fprintln(t.W, e)
	t.mu.Unlock()
}

// Multi fans events out to several tracers.
type Multi []Tracer

// Emit forwards to every tracer.
func (m Multi) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

// Emit is the nil-safe helper components call for events about a cache
// line: a nil tracer is a no-op.
func Emit(t Tracer, cycle int64, source, kind string, addr uint64, detail string) {
	if t == nil {
		return
	}
	t.Emit(Event{Cycle: cycle, Source: source, Kind: kind, Addr: addr, HasAddr: true, Detail: detail})
}

// EmitGlobal is Emit for events that concern no particular address (drains,
// mode switches, barrier completions).
func EmitGlobal(t Tracer, cycle int64, source, kind, detail string) {
	if t == nil {
		return
	}
	t.Emit(Event{Cycle: cycle, Source: source, Kind: kind, Detail: detail})
}

// EmitTxn is Emit for events that belong to a coherence transaction: the
// txn id lets renderers reconstruct the causal chain (miss → Acquire →
// Grant → GrantAck; Release → ReleaseAck; CBO → FSHR → RootRelease → ack)
// across components. txn 0 degrades to a plain addressed event.
func EmitTxn(t Tracer, cycle int64, source, kind string, txn, addr uint64, detail string) {
	if t == nil {
		return
	}
	t.Emit(Event{Cycle: cycle, Source: source, Kind: kind, Addr: addr, HasAddr: true, Txn: txn, Detail: detail})
}

// TxnSeq hands out deterministic coherence-transaction ids. Exactly one
// sequence exists per simulated system (sim.New creates it and injects it
// into every component config; standalone component constructors fall back
// to a private one), so ids are globally unique within a run and assignment
// order follows the deterministic Tick order. Ids start at 1; 0 means "no
// transaction". Ids are assigned unconditionally — whether or not tracing
// or recording is enabled — so enabling observability can never change
// simulation behavior, and ids are identical across fast-forward on/off.
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
