package trace

import (
	"bufio"
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
// Records stream to the writer as they are emitted, through a buffer: the
// document opens at the first record, a component's thread_name metadata
// precedes its first event, and Close writes the closing bracket. Memory
// stays bounded however long the run. The tracer is safe for concurrent
// use: skipit-sim's signal handler Closes it while the simulation goroutine
// may still Emit.
type ChromeTracer struct {
	mu     sync.Mutex
	w      io.Writer
	bw     *bufio.Writer // buffers w; it keeps the first write error and drops what follows
	enc    *json.Encoder // encodes records into bw
	opened bool          // the document's opening is written
	closed bool
	tids   map[string]int    // thread id per source, numbered in first-seen order
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

// The document as written: chromeDocOpen, the records separated by commas,
// then chromeDocClose.
const (
	chromeDocOpen  = `{"displayTimeUnit":"ms","traceEvents":[` + "\n"
	chromeDocClose = "]}\n"
)

// NewChromeTracer returns a tracer that streams its document to w.
func NewChromeTracer(w io.Writer) *ChromeTracer {
	bw := bufio.NewWriter(w)
	return &ChromeTracer{w: w, bw: bw, enc: json.NewEncoder(bw),
		tids: make(map[string]int), open: make(map[uint64]string)}
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

// Emit writes one event, after its source's thread_name record if the
// source is new. Events emitted after Close are dropped.
func (t *ChromeTracer) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return
	}
	tid, ok := t.tids[e.Source]
	if !ok {
		tid = len(t.tids)
		t.tids[e.Source] = tid
		t.record(chromeEvent{Name: "thread_name", Phase: "M", TID: tid,
			Args: map[string]any{"name": e.Source}})
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
	t.record(ce)
}

// record writes one record, opening the document before the first. Write
// errors are not checked here: bw keeps the first one, and Close returns it.
func (t *ChromeTracer) record(ce chromeEvent) {
	if t.opened {
		t.bw.WriteByte(',')
	} else {
		t.bw.WriteString(chromeDocOpen)
		t.opened = true
	}
	t.enc.Encode(ce)
}

// Close ends the document, flushes it, and closes the writer if it is an
// io.Closer. It returns the first error of any of these; a second Close does
// nothing.
func (t *ChromeTracer) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	if !t.opened {
		t.bw.WriteString(chromeDocOpen)
	}
	t.bw.WriteString(chromeDocClose)
	err := t.bw.Flush()
	if c, ok := t.w.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
