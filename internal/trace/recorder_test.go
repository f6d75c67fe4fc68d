package trace

import (
	"fmt"
	"strings"
	"testing"
)

// TestRecRetainsLastDepthEvents: a ring keeps the newest depth events,
// oldest first, while the total still counts every event ever recorded.
func TestRecRetainsLastDepthEvents(t *testing.T) {
	rc := NewRecorder(4)
	r := rc.Component("l1[0]")
	for i := 0; i < 10; i++ {
		r.Record(int64(i), RecAcquire, CauseNone, uint64(i+1), uint64(i)*64, 0)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if want := int64(6 + i); e.Cycle != want || e.Txn != uint64(want+1) {
			t.Fatalf("event %d = %+v, want cycle %d (oldest first)", i, e, want)
		}
	}
	if d := rc.Dump(); d[0].Total != 10 {
		t.Fatalf("dump total %d, want 10", d[0].Total)
	}
}

// TestRecPartialRing: before the ring wraps, Events returns exactly what
// was recorded, in order.
func TestRecPartialRing(t *testing.T) {
	r := NewRecorder(8).Component("mem")
	r.Record(3, RecMemRead, CauseNone, 0, 0x40, 64)
	r.Record(9, RecMemWrite, CauseNone, 0, 0x80, 64)
	evs := r.Events()
	if len(evs) != 2 || evs[0].Code != RecMemRead || evs[1].Code != RecMemWrite {
		t.Fatalf("events = %+v", evs)
	}
}

// TestRecorderNilSafe: a nil recorder hands out nil rings, and a nil ring
// records, lists and dumps nothing, so components can record
// unconditionally when the recorder is off.
func TestRecorderNilSafe(t *testing.T) {
	var rc *Recorder
	r := rc.Component("l2")
	if r != nil {
		t.Fatal("nil recorder returned a live ring")
	}
	r.Record(1, RecGrant, CauseNone, 1, 0x40, 0)
	if evs := r.Events(); evs != nil {
		t.Fatalf("nil ring returned events %+v", evs)
	}
	if d := rc.Dump(); d != nil {
		t.Fatalf("nil recorder dumped %+v", d)
	}
}

// TestRecorderComponentIsIdempotent: asking twice for a component returns
// the same ring, and the component appears once in dumps.
func TestRecorderComponentIsIdempotent(t *testing.T) {
	rc := NewRecorder(2)
	a, b := rc.Component("flush[1]"), rc.Component("flush[1]")
	if a != b {
		t.Fatal("second Component call built a fresh ring")
	}
	a.Record(1, RecFSHRAlloc, CauseNone, 7, 0x40, 0)
	if d := rc.Dump(); len(d) != 1 || len(d[0].Events) != 1 {
		t.Fatalf("dump = %+v, want one component with one event", d)
	}
}

// TestRecorderDumpRendering: dumps list components in registration order
// (not name order) and spell out codes, causes and addresses so they read
// without the source.
func TestRecorderDumpRendering(t *testing.T) {
	rc := NewRecorder(4)
	l2 := rc.Component("l2")
	flush := rc.Component("flush[0]")
	flush.Record(12, RecSkipAudit, CauseSkipBit, 0, 0x1040, 0)
	l2.Record(20, RecRootRelease, CauseDirtyLine, 5, 0x2000, 1)

	d := rc.Dump()
	if len(d) != 2 || d[0].Component != "l2" || d[1].Component != "flush[0]" {
		t.Fatalf("dump order = %+v, want registration order [l2 flush[0]]", d)
	}
	got := d[1].Events[0]
	want := RecDumpEvent{Cycle: 12, Code: "skip-audit", Cause: "skip-bit-set", Addr: "0x1040"}
	if got != want {
		t.Fatalf("flush event rendered %+v, want %+v", got, want)
	}
	got = d[0].Events[0]
	want = RecDumpEvent{Cycle: 20, Code: "root-release", Cause: "dirty-line", Txn: 5, Addr: "0x2000", Arg: 1}
	if got != want {
		t.Fatalf("l2 event rendered %+v, want %+v", got, want)
	}
}

func TestNewRecorderRejectsNonPositiveDepth(t *testing.T) {
	for _, depth := range []int{0, -1} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewRecorder(%d) did not panic", depth)
				}
			}()
			NewRecorder(depth)
		})
	}
}

// TestRecEnumNames: every defined code and cause has its own name (dumps
// would be ambiguous otherwise), and out-of-range values still render.
func TestRecEnumNames(t *testing.T) {
	t.Run("codes", func(t *testing.T) {
		seen := map[string]RecCode{}
		for c := RecNone; c <= RecSkipAudit; c++ {
			name := c.String()
			if name == "" || strings.HasPrefix(name, "code(") {
				t.Fatalf("code %d has no name", c)
			}
			if prev, dup := seen[name]; dup {
				t.Fatalf("codes %d and %d share the name %q", prev, c, name)
			}
			seen[name] = c
		}
		if got := RecCode(200).String(); got != "code(200)" {
			t.Fatalf("out-of-range code renders %q", got)
		}
	})
	t.Run("causes", func(t *testing.T) {
		if CauseNone.String() != "" {
			t.Fatalf("CauseNone renders %q, want empty (omitted from dumps)", CauseNone.String())
		}
		seen := map[string]RecCause{}
		for c := CauseSkipBit; c <= CauseDataSurrendered; c++ {
			name := c.String()
			if name == "" || strings.HasPrefix(name, "cause(") {
				t.Fatalf("cause %d has no name", c)
			}
			if prev, dup := seen[name]; dup {
				t.Fatalf("causes %d and %d share the name %q", prev, c, name)
			}
			seen[name] = c
		}
		if got := RecCause(99).String(); got != "cause(99)" {
			t.Fatalf("out-of-range cause renders %q", got)
		}
	})
}

// TestTxnSeqNumbering: ids start at 1 and count up by one, 0 stays free to
// mean "no transaction", and a nil sequence hands out 0.
func TestTxnSeqNumbering(t *testing.T) {
	var s TxnSeq
	for want := uint64(1); want <= 5; want++ {
		if got := s.Next(); got != want {
			t.Fatalf("Next() = %d, want %d", got, want)
		}
	}
	var nilSeq *TxnSeq
	if got := nilSeq.Next(); got != 0 {
		t.Fatalf("nil sequence returned %d", got)
	}
}

// TestEmitTxnCarriesTxnAndAddr: transaction events keep their id and line
// address so renderers can rebuild the causal chain; a nil tracer is a
// no-op.
func TestEmitTxnCarriesTxnAndAddr(t *testing.T) {
	r := NewRing(4)
	EmitTxn(r, 30, "l2", "grant", 9, 0x1000, "toT")
	EmitTxn(nil, 31, "l2", "grant", 9, 0x1000, "")
	evs := r.Events()
	if len(evs) != 1 {
		t.Fatalf("%d events, want 1", len(evs))
	}
	e := evs[0]
	if e.Txn != 9 || e.Addr != 0x1000 || !e.HasAddr || e.Kind != "grant" || e.Detail != "toT" {
		t.Fatalf("event = %+v", e)
	}
}
