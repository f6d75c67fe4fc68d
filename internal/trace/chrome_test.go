package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// chromeDoc is the document a ChromeTracer writes.
type chromeDoc struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

func decodeChrome(t *testing.T, raw string) chromeDoc {
	t.Helper()
	var doc chromeDoc
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatalf("invalid trace_event JSON: %v\n%s", err, raw)
	}
	return doc
}

// ev is a test event with the fields the renderer reads first.
func ev(cycle int64, code RecCode, txn, addr uint64) RecEvent {
	return RecEvent{Cycle: cycle, Code: code, Txn: txn, Addr: addr}
}

// TestChromeTracerFlushSpan: a CBO's transaction renders as one "flush"
// span from its cbo-enqueue to its fshr-ack, with the L2's events nested
// inside, and an event without a txn renders as a thread-scoped instant.
func TestChromeTracerFlushSpan(t *testing.T) {
	var sb strings.Builder
	ct := NewChromeTracer(&sb)
	ct.Record("flush[0]", ev(100, RecCboEnqueue, 3, 0x1000))
	ct.Record("l2", ev(120, RecRootReleaseAck, 3, 0x1000))
	ct.Record("flush[0]", ev(130, RecSkipAudit, 0, 0x2000))
	ct.Record("flush[0]", ev(250, RecFSHRAck, 3, 0x1000))
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	doc := decodeChrome(t, sb.String())

	var begins, ends, nested, instants, meta int
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "b":
			begins++
			if e.ID != "txn3" || e.TS != 100 || e.Name != "flush" {
				t.Errorf("bad begin event %+v", e)
			}
		case "e":
			ends++
			if e.ID != "txn3" || e.TS != 250 || e.Name != "flush" {
				t.Errorf("bad end event %+v", e)
			}
		case "n":
			nested++
		case "i":
			instants++
			if e.Scope != "t" {
				t.Errorf("instant missing thread scope: %+v", e)
			}
		case "M":
			meta++
		}
	}
	if begins != 1 || ends != 1 || nested != 1 || instants != 1 {
		t.Fatalf("begins=%d ends=%d nested=%d instants=%d, want 1/1/1/1", begins, ends, nested, instants)
	}
	if meta != 2 {
		t.Fatalf("thread_name metadata = %d, want 2 (flush[0] and l2)", meta)
	}
}

func TestChromeTracerThreadsAreStable(t *testing.T) {
	var sb strings.Builder
	ct := NewChromeTracer(&sb)
	ct.Record("l2", ev(1, RecGrant, 0, 0x40))
	ct.Record("l1[0]", ev(2, RecLoadMiss, 0, 0x40))
	ct.Record("l2", ev(3, RecGrant, 0, 0x80))
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	doc := decodeChrome(t, sb.String())

	names := map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Phase == "M" {
			names[e.TID] = e.Args["name"].(string)
		}
	}
	if names[0] != "l2" || names[1] != "l1[0]" {
		t.Fatalf("thread names = %v, want first-seen order l2, l1[0]", names)
	}
	for _, e := range doc.TraceEvents {
		if e.Phase == "i" && e.Name == "grant" && names[e.TID] != "l2" {
			t.Fatalf("grant event on thread %q, want l2", names[e.TID])
		}
	}
}

// TestChromeTracerCarriesAddrCauseAndArg: every record carries its line
// address; a cause and a code's arg appear by name, and only when the
// event has them.
func TestChromeTracerCarriesAddrCauseAndArg(t *testing.T) {
	var sb strings.Builder
	ct := NewChromeTracer(&sb)
	ct.Record("l2", RecEvent{Cycle: 5, Code: RecSkipAudit, Cause: CauseCleanLine, Addr: 0x2000})
	ct.Record("mem", ev(6, RecMemWrite, 0, 0))
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	for _, e := range decodeChrome(t, sb.String()).TraceEvents {
		if e.Phase == "i" {
			got = append(got, e.Args)
		}
	}
	want := []map[string]any{
		{"addr": "0x2000", "cause": "clean-line", "issued": float64(0)},
		{"addr": "0x0"},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("instant args = %v, want %v", got, want)
	}
}

// txnPhases returns, per span id, the phase and name of every non-metadata
// event, in document order.
func txnPhases(doc chromeDoc) map[string][]string {
	spans := map[string][]string{}
	for _, e := range doc.TraceEvents {
		if e.Phase != "M" {
			spans[e.ID] = append(spans[e.ID], e.Phase+" "+e.Name)
		}
	}
	return spans
}

// TestChromeTracerTxnSpans: a transaction renders as one async span keyed by
// its txn id. The opening kind names the span, the events in between nest
// inside it as async instants, and the chain's final ack closes it under the
// same name.
func TestChromeTracerTxnSpans(t *testing.T) {
	var sb strings.Builder
	ct := NewChromeTracer(&sb)
	ct.Record("l1[0]", ev(10, RecLoadMiss, 1, 0x1000))
	ct.Record("l1[0]", ev(12, RecAcquire, 1, 0x1000))
	ct.Record("l2", ev(30, RecGrant, 1, 0x1000))
	ct.Record("l1[0]", ev(31, RecGrantAck, 1, 0x1000))
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	doc := decodeChrome(t, sb.String())

	want := []string{"b acquire", "n acquire", "n grant", "e acquire"}
	if got := txnPhases(doc)["txn1"]; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("txn1 span = %q, want %q", got, want)
	}
	for _, e := range doc.TraceEvents {
		if e.Phase == "M" {
			continue
		}
		if e.Cat != "txn" || e.Args["txn"] != float64(1) || e.Args["addr"] != "0x1000" {
			t.Errorf("event %+v lacks its txn category, id or address", e)
		}
		switch e.Phase {
		case "b":
			if e.TS != 10 || e.Args["begin"] != "load-miss" {
				t.Errorf("begin event %+v, want cycle 10 opened by load-miss", e)
			}
		case "e":
			if e.TS != 31 || e.Args["end"] != "grant-ack" {
				t.Errorf("end event %+v, want cycle 31 closed by grant-ack", e)
			}
		}
	}
}

// TestChromeTracerTxnSpanOpensUnderFirstKind: a trace that starts inside a
// transaction opens its span under the first code it sees, interleaved
// transactions keep their own spans, and a txn id seen again after its span
// closed opens a new one.
func TestChromeTracerTxnSpanOpensUnderFirstKind(t *testing.T) {
	var sb strings.Builder
	ct := NewChromeTracer(&sb)
	ct.Record("l1[0]", ev(1, RecGrant, 7, 0x40))
	ct.Record("l1[1]", ev(2, RecEvict, 8, 0x80))
	ct.Record("l1[0]", ev(3, RecGrantAck, 7, 0x40))
	ct.Record("l1[1]", ev(4, RecReleaseAck, 8, 0x80))
	ct.Record("flush[0]", ev(5, RecCboEnqueue, 7, 0x40))
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	spans := txnPhases(decodeChrome(t, sb.String()))
	for id, want := range map[string][]string{
		"txn7": {"b grant", "e grant", "b flush"},
		"txn8": {"b writeback", "e writeback"},
	} {
		if got := spans[id]; strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s span = %q, want %q", id, got, want)
		}
	}
}

var errSink = errors.New("sink failed")

// failingSink fails every write, and its Close reports closeErr.
type failingSink struct {
	writeErr, closeErr error
	written            strings.Builder
	closes             int
}

func (f *failingSink) Write(p []byte) (int, error) {
	if f.writeErr != nil {
		return 0, f.writeErr
	}
	return f.written.Write(p)
}

func (f *failingSink) Close() error {
	f.closes++
	return f.closeErr
}

// TestChromeTracerCloseReportsWriteErrors: a trace that could not be written
// is an error of Close, not a silently truncated file.
func TestChromeTracerCloseReportsWriteErrors(t *testing.T) {
	sink := &failingSink{writeErr: errSink}
	ct := NewChromeTracer(sink)
	ct.Record("l2", ev(1, RecGrant, 0, 0x40))
	if err := ct.Close(); !errors.Is(err, errSink) {
		t.Fatalf("Close() = %v, want %v", err, errSink)
	}
}

// TestChromeTracerCloseClosesWriter: Close writes the whole document, then
// closes a writer that is an io.Closer once and reports its error.
func TestChromeTracerCloseClosesWriter(t *testing.T) {
	sink := &failingSink{closeErr: errSink}
	ct := NewChromeTracer(sink)
	ct.Record("l2", ev(1, RecGrant, 0, 0x40))
	if err := ct.Close(); !errors.Is(err, errSink) {
		t.Fatalf("Close() = %v, want the writer's close error %v", err, errSink)
	}
	if sink.closes != 1 {
		t.Fatalf("writer closed %d times, want 1", sink.closes)
	}
	if got := txnPhases(decodeChrome(t, sink.written.String()))[""]; len(got) != 1 {
		t.Fatalf("document holds instants %q, want the one grant", got)
	}
}

// TestChromeTracerStreamsEvents: records reach the writer as they are
// recorded, not at Close, so a long trace's memory stays bounded. Before Close
// the writer holds all but the last buffer's worth of 10,000 events; after
// it, the document decodes to every event, in order, each on its source's
// thread.
func TestChromeTracerStreamsEvents(t *testing.T) {
	const events, sources = 10_000, 5
	var w bytes.Buffer
	ct := NewChromeTracer(&w)
	for i := range events {
		ct.Record(fmt.Sprintf("l1[%d]", i%sources), ev(int64(i), RecGrant, 0, uint64(i)*64))
	}
	before := w.Len()
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	if after := w.Len(); before < after*95/100 {
		t.Fatalf("writer held %d of the document's %d bytes before Close, want at least 95%%", before, after)
	}
	doc := decodeChrome(t, w.String())
	if got, want := len(doc.TraceEvents), events+sources; got != want {
		t.Fatalf("document holds %d records, want %d events and %d thread names", got, events, sources)
	}
	names := map[int]string{}
	i := 0
	for _, e := range doc.TraceEvents {
		if e.Phase == "M" {
			names[e.TID] = e.Args["name"].(string)
			continue
		}
		if e.Name != "grant" || e.TS != int64(i) || e.Args["addr"] != fmt.Sprintf("%#x", i*64) {
			t.Fatalf("event %d = %+v, want grant at cycle %d on line %#x", i, e, i, i*64)
		}
		if src := fmt.Sprintf("l1[%d]", i%sources); names[e.TID] != src {
			t.Fatalf("event %d on thread %q, want %q named before it", i, names[e.TID], src)
		}
		i++
	}
}

// TestChromeTracerEmptyTrace: a trace with no events still closes to a
// valid, empty document.
func TestChromeTracerEmptyTrace(t *testing.T) {
	var sb strings.Builder
	if err := NewChromeTracer(&sb).Close(); err != nil {
		t.Fatal(err)
	}
	if doc := decodeChrome(t, sb.String()); len(doc.TraceEvents) != 0 || doc.DisplayTimeUnit != "ms" {
		t.Fatalf("empty trace decodes to %+v", doc)
	}
}

// TestChromeTracerDropsEventsAfterClose: Close ends the document; an event
// recorded afterwards is not written, and a second Close writes nothing.
func TestChromeTracerDropsEventsAfterClose(t *testing.T) {
	var sb strings.Builder
	ct := NewChromeTracer(&sb)
	ct.Record("l2", ev(1, RecGrant, 0, 0x40))
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	closed := sb.String()
	ct.Record("l1[0]", ev(2, RecGrant, 0, 0x80))
	if err := ct.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if sb.String() != closed {
		t.Fatalf("writes after Close: document grew from %q to %q", closed, sb.String())
	}
	if doc := decodeChrome(t, closed); len(doc.TraceEvents) != 2 {
		t.Fatalf("document holds %d records, want the grant and its thread name", len(doc.TraceEvents))
	}
}
