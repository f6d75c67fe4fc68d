package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// ChromeTracer renders simulator events in the Chrome trace_event JSON
// format, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. One
// simulated cycle maps to one microsecond of trace time, so the timeline
// ruler reads directly in cycles.
//
// Each component instance (Event.Source) becomes a named thread. The flush
// unit's fshr-alloc/fshr-ack events become asynchronous begin/end pairs
// keyed by line address, so every in-flight flush renders as a span whose
// length is its latency; all other events render as thread-scoped instants.
//
// Events are buffered in memory; Close writes the whole document. The
// tracer is safe for concurrent use: skipit-sim's signal handler Closes it
// while the simulation goroutine may still Emit.
type ChromeTracer struct {
	mu     sync.Mutex
	w      io.Writer
	events []chromeEvent
	tids   map[string]int
	order  []string          // sources in first-seen order, for stable thread ids
	open   map[uint64]string // open txn spans: id -> span name, for matching "e" records
}

// chromeEvent is one trace_event record. Field names follow the format
// specification; empty optional fields are omitted.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// NewChromeTracer returns a tracer that writes its document to w on Close.
func NewChromeTracer(w io.Writer) *ChromeTracer {
	return &ChromeTracer{w: w, tids: make(map[string]int), open: make(map[uint64]string)}
}

// txnSpanNames maps the event kind that opens a transaction to the span's
// display name. Any other txn-bearing kind that arrives first (partial
// chains at trace start) opens the span under its own kind name.
var txnSpanNames = map[string]string{
	"load-miss":   "acquire",
	"store-miss":  "acquire",
	"acquire":     "acquire",
	"evict":       "writeback",
	"release":     "writeback",
	"cbo-enqueue": "flush",
	"fshr-alloc":  "flush",
}

// txnEndKinds are the kinds that close a transaction span: the final
// message of each causal chain (E-channel GrantAck, D-channel ReleaseAck /
// RootReleaseAck observed by the flush unit).
var txnEndKinds = map[string]bool{
	"grant-ack":   true,
	"release-ack": true,
	"fshr-ack":    true,
}

// Emit buffers one event.
func (t *ChromeTracer) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tid, ok := t.tids[e.Source]
	if !ok {
		tid = len(t.order)
		t.tids[e.Source] = tid
		t.order = append(t.order, e.Source)
	}
	ce := chromeEvent{Name: e.Kind, TS: e.Cycle, TID: tid}
	if e.Detail != "" {
		ce.Args = map[string]any{"detail": e.Detail}
	}
	if e.HasAddr {
		if ce.Args == nil {
			ce.Args = map[string]any{}
		}
		ce.Args["addr"] = fmt.Sprintf("%#x", e.Addr)
	}
	switch {
	case e.Txn != 0:
		// Transaction-bearing events render as one async span per txn id:
		// the first event opens it, the chain's final ack closes it, and
		// everything in between nests inside as async instants. Perfetto
		// then shows each miss→Acquire→Grant→GrantAck chain, writeback, and
		// CBO→FSHR→RootRelease→ack flush as a single causal span.
		ce.ID = fmt.Sprintf("txn%d", e.Txn)
		ce.Cat = "txn"
		if ce.Args == nil {
			ce.Args = map[string]any{}
		}
		ce.Args["txn"] = e.Txn
		name, isOpen := t.open[e.Txn]
		switch {
		case !isOpen:
			name = txnSpanNames[e.Kind]
			if name == "" {
				name = e.Kind
			}
			t.open[e.Txn] = name
			ce.Phase = "b"
			ce.Name = name
			ce.Args["begin"] = e.Kind
		case txnEndKinds[e.Kind]:
			delete(t.open, e.Txn)
			ce.Phase = "e"
			ce.Name = name
			ce.Args["end"] = e.Kind
		default:
			ce.Phase = "n"
			ce.Name = e.Kind
		}
	case e.Kind == "fshr-alloc":
		ce.Phase = "b"
		ce.Cat = "flush"
		ce.Name = "flush"
		ce.ID = fmt.Sprintf("%#x", e.Addr)
	case e.Kind == "fshr-ack":
		ce.Phase = "e"
		ce.Cat = "flush"
		ce.Name = "flush"
		ce.ID = fmt.Sprintf("%#x", e.Addr)
	default:
		ce.Phase = "i"
		ce.Scope = "t"
	}
	t.events = append(t.events, ce)
}

// Close writes the buffered document, thread-name metadata first so viewers
// label rows by component. Events emitted after Close are never written.
func (t *ChromeTracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := chromeDoc{DisplayTimeUnit: "ms"}
	for tid, src := range t.order {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			TID:   tid,
			Args:  map[string]any{"name": src},
		})
	}
	doc.TraceEvents = append(doc.TraceEvents, t.events...)
	if err := json.NewEncoder(t.w).Encode(doc); err != nil {
		return err
	}
	if c, ok := t.w.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
