package trace

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func decodeChrome(t *testing.T, raw string) chromeDoc {
	t.Helper()
	var doc chromeDoc
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatalf("invalid trace_event JSON: %v\n%s", err, raw)
	}
	return doc
}

func TestChromeTracerAsyncFlushSpans(t *testing.T) {
	var sb strings.Builder
	ct := NewChromeTracer(&sb)
	Emit(ct, 100, "flush[0]", "fshr-alloc", 0x1000, "flush")
	Emit(ct, 100, "l1[0]", "cbo-enqueue", 0x1000, "")
	Emit(ct, 250, "flush[0]", "fshr-ack", 0x1000, "")
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	doc := decodeChrome(t, sb.String())

	var begins, ends, instants, meta int
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "b":
			begins++
			if e.ID == "" || e.TS != 100 {
				t.Errorf("bad begin event %+v", e)
			}
		case "e":
			ends++
			if e.TS != 250 {
				t.Errorf("bad end event %+v", e)
			}
		case "i":
			instants++
			if e.Scope != "t" {
				t.Errorf("instant missing thread scope: %+v", e)
			}
		case "M":
			meta++
		}
	}
	if begins != 1 || ends != 1 || instants != 1 {
		t.Fatalf("begins=%d ends=%d instants=%d, want 1/1/1", begins, ends, instants)
	}
	if meta != 2 {
		t.Fatalf("thread_name metadata = %d, want 2 (flush[0] and l1[0])", meta)
	}
}

func TestChromeTracerThreadsAreStable(t *testing.T) {
	var sb strings.Builder
	ct := NewChromeTracer(&sb)
	Emit(ct, 1, "l2", "grant", 0x40, "")
	Emit(ct, 2, "l1[0]", "load-miss", 0x40, "")
	Emit(ct, 3, "l2", "grant", 0x80, "")
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

func TestChromeTracerCarriesAddrAndDetail(t *testing.T) {
	var sb strings.Builder
	ct := NewChromeTracer(&sb)
	Emit(ct, 5, "l2", "trivial-skip", 0x2000, "clean line")
	EmitGlobal(ct, 6, "l2", "drain", "done")
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	doc := decodeChrome(t, sb.String())
	var withAddr, without int
	for _, e := range doc.TraceEvents {
		if e.Phase != "i" {
			continue
		}
		if _, ok := e.Args["addr"]; ok {
			withAddr++
			if e.Args["detail"] != "clean line" {
				t.Errorf("detail lost: %+v", e)
			}
		} else {
			without++
		}
	}
	if withAddr != 1 || without != 1 {
		t.Fatalf("withAddr=%d without=%d, want 1/1", withAddr, without)
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
// inside it as instants, and the chain's final ack closes it under the same
// name.
func TestChromeTracerTxnSpans(t *testing.T) {
	var sb strings.Builder
	ct := NewChromeTracer(&sb)
	EmitTxn(ct, 10, "l1[0]", "load-miss", 1, 0x1000, "")
	EmitTxn(ct, 12, "l2", "acquire", 1, 0x1000, "")
	EmitTxn(ct, 30, "l1[0]", "grant", 1, 0x1000, "")
	EmitTxn(ct, 31, "l2", "grant-ack", 1, 0x1000, "")
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
// transaction opens its span under the first kind it sees, interleaved
// transactions keep their own spans, and a txn id seen again after its span
// closed opens a new one.
func TestChromeTracerTxnSpanOpensUnderFirstKind(t *testing.T) {
	var sb strings.Builder
	ct := NewChromeTracer(&sb)
	EmitTxn(ct, 1, "l1[0]", "grant", 7, 0x40, "")
	EmitTxn(ct, 2, "l1[1]", "evict", 8, 0x80, "")
	EmitTxn(ct, 3, "l2", "grant-ack", 7, 0x40, "")
	EmitTxn(ct, 4, "l1[1]", "release-ack", 8, 0x80, "")
	EmitTxn(ct, 5, "flush[0]", "cbo-enqueue", 7, 0x40, "")
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
	Emit(ct, 1, "l2", "grant", 0x40, "")
	if err := ct.Close(); !errors.Is(err, errSink) {
		t.Fatalf("Close() = %v, want %v", err, errSink)
	}
}

// TestChromeTracerCloseClosesWriter: Close writes the whole document, then
// closes a writer that is an io.Closer once and reports its error.
func TestChromeTracerCloseClosesWriter(t *testing.T) {
	sink := &failingSink{closeErr: errSink}
	ct := NewChromeTracer(sink)
	Emit(ct, 1, "l2", "grant", 0x40, "")
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
