package trace

import (
	"fmt"
	"strings"
	"testing"
)

// keeping returns a recorder that keeps rings of depth events.
func keeping(depth int) *Recorder {
	rc := &Recorder{}
	rc.Keep(depth)
	return rc
}

// TestRecRetainsLastDepthEvents: a ring keeps the newest depth events,
// oldest first, while the total still counts every event ever recorded.
func TestRecRetainsLastDepthEvents(t *testing.T) {
	rc := keeping(4)
	r := rc.Component("l1[0]")
	for i := 0; i < 10; i++ {
		r.Record(int64(i), RecAcquire, CauseNone, uint64(i+1), uint64(i)*64, 0)
	}
	d := rc.Dump()[0]
	if len(d.Events) != 4 || d.Total != 10 {
		t.Fatalf("retained %d of %d events, want 4 of 10", len(d.Events), d.Total)
	}
	for i, e := range d.Events {
		if want := int64(6 + i); e.Cycle != want || e.Txn != uint64(want+1) {
			t.Fatalf("event %d = %+v, want cycle %d (oldest first)", i, e, want)
		}
	}
}

// TestRecPartialRing: until the ring wraps, up to and including the event
// that fills it exactly, the ring holds exactly what was recorded, in order.
func TestRecPartialRing(t *testing.T) {
	for _, n := range []int{2, 8} {
		rc := keeping(8)
		r := rc.Component("mem")
		for i := range n {
			r.Record(int64(i), RecMemRead+RecCode(i%2), CauseNone, 0, uint64(i)*64, 0)
		}
		evs := rc.Dump()[0].Events
		if len(evs) != n {
			t.Fatalf("%d recorded: ring holds %d", n, len(evs))
		}
		for i, e := range evs {
			if want := []string{"mem-read", "mem-write"}[i%2]; e.Cycle != int64(i) || e.Code != want {
				t.Fatalf("%d recorded: event %d = %+v, want %s at cycle %d", n, i, e, want, i)
			}
		}
	}
}

// TestRecorderNilSafe: a nil recorder hands out nil handles, and a nil
// handle records nothing, so components record unconditionally when the
// stream is not observed.
func TestRecorderNilSafe(t *testing.T) {
	var rc *Recorder
	r := rc.Component("l2")
	if r != nil {
		t.Fatal("nil recorder returned a live handle")
	}
	r.Record(1, RecGrant, CauseNone, 1, 0x40, 0)
	if d := rc.Dump(); d != nil {
		t.Fatalf("nil recorder dumped %+v", d)
	}
}

// TestRecorderComponentIsIdempotent: asking twice for a component returns
// the same handle, and the component appears once in dumps.
func TestRecorderComponentIsIdempotent(t *testing.T) {
	rc := keeping(2)
	a, b := rc.Component("flush[1]"), rc.Component("flush[1]")
	if a != b {
		t.Fatal("second Component call built a fresh handle")
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
	rc := keeping(4)
	l2 := rc.Component("l2")
	flush := rc.Component("flush[0]")
	flush.Record(12, RecSkipAudit, CauseSkipBit, 0, 0x1040, 0)
	l2.Record(20, RecRootRelease, CauseFlush, 5, 0x2000, 1)

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
	want = RecDumpEvent{Cycle: 20, Code: "root-release", Cause: "flush", Txn: 5, Addr: "0x2000", Arg: 1}
	if got != want {
		t.Fatalf("l2 event rendered %+v, want %+v", got, want)
	}
}

// collect is a sink that keeps what it receives.
type collect []string

func (c *collect) Record(component string, e RecEvent) {
	*c = append(*c, fmt.Sprintf("%s %v %d", component, e.Code, e.Cycle))
}

// TestRecorderStreamsToSink: the attached sink receives every event, named
// by its component and in recording order, whether the component was
// registered before or after the sink was attached. Streaming keeps no
// rings, so the dump stays empty until Keep arms them, and rings armed later
// reach components registered earlier.
func TestRecorderStreamsToSink(t *testing.T) {
	rc := &Recorder{}
	l2 := rc.Component("l2")
	var got collect
	rc.Stream(&got)
	mem := rc.Component("mem")
	l2.Record(1, RecGrant, CauseNone, 1, 0x40, 0)
	mem.Record(2, RecMemRead, CauseNone, 1, 0x40, 0)
	if want := "l2 grant 1,mem mem-read 2"; strings.Join(got, ",") != want {
		t.Fatalf("sink received %q, want %q", got, want)
	}
	if d := rc.Dump(); d != nil {
		t.Fatalf("a recorder that keeps no rings dumped %+v", d)
	}
	rc.Keep(2)
	l2.Record(3, RecGrantAck, CauseNone, 1, 0x40, 0)
	if d := rc.Dump(); len(d) != 2 || len(d[0].Events) != 1 || len(d[1].Events) != 0 || len(got) != 3 {
		t.Fatalf("after Keep: dump %+v, sink %q; want one l2 event kept and streamed", d, got)
	}
	rc.Stream(nil)
	mem.Record(4, RecMemWrite, CauseNone, 0, 0x80, 0)
	if len(got) != 3 {
		t.Fatalf("a detached sink still received %q", got[3:])
	}
}

// TestKeepRearmsFreshRings: Keep gives every registered component a fresh
// ring of the new depth, dropping what the old one held and restarting its
// total, and components registered afterwards get rings of that depth too.
func TestKeepRearmsFreshRings(t *testing.T) {
	rc := keeping(2)
	l2 := rc.Component("l2")
	for i := range 3 {
		l2.Record(int64(i), RecGrant, CauseNone, 1, 0x40, 0)
	}
	rc.Keep(4)
	if d := rc.Dump(); len(d) != 1 || d[0].Total != 0 || len(d[0].Events) != 0 {
		t.Fatalf("after re-arming: dump %+v, want one empty l2 ring", d)
	}
	mem := rc.Component("mem")
	for i := range 5 {
		l2.Record(int64(10+i), RecGrant, CauseNone, 1, 0x40, 0)
		mem.Record(int64(10+i), RecMemRead, CauseNone, 1, 0x40, 0)
	}
	for _, d := range rc.Dump() {
		if d.Total != 5 || len(d.Events) != 4 || d.Events[0].Cycle != 11 || d.Events[3].Cycle != 14 {
			t.Fatalf("%s ring = %+v, want the last 4 of 5 events (cycles 11-14)", d.Component, d)
		}
	}
}

// TestDumpWhileRecording: a dump taken from another goroutine while a
// component records, as skipit-sim's signal handler does, sees the ring
// whole: never more events than it holds, oldest first and consecutive up
// to the total, and totals that only grow. Under -race it also shows that
// the ring's lock covers every access.
func TestDumpWhileRecording(t *testing.T) {
	const depth, n = 8, 20_000
	rc := keeping(depth)
	r := rc.Component("l1[0]")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range n {
			r.Record(int64(i), RecAcquire, CauseNone, uint64(i+1), 0x40, 0)
		}
	}()
	var last uint64
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		d := rc.Dump()[0]
		if d.Total < last || len(d.Events) > depth || uint64(len(d.Events)) > d.Total {
			t.Fatalf("dump of %d events, total %d (previous total %d)", len(d.Events), d.Total, last)
		}
		for i, e := range d.Events {
			if want := int64(d.Total) - int64(len(d.Events)) + int64(i); e.Cycle != want {
				t.Fatalf("total %d: event %d is cycle %d, want %d", d.Total, i, e.Cycle, want)
			}
		}
		last = d.Total
	}
	if last != n {
		t.Fatalf("final total %d, want %d", last, n)
	}
}

func TestKeepRejectsNonPositiveDepth(t *testing.T) {
	for _, depth := range []int{0, -1} {
		t.Run(fmt.Sprintf("depth=%d", depth), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Keep(%d) did not panic", depth)
				}
			}()
			(&Recorder{}).Keep(depth)
		})
	}
}

// TestRecEnumNames: every defined code and cause has its own name (dumps
// and traces would be ambiguous otherwise), and out-of-range values still
// render.
func TestRecEnumNames(t *testing.T) {
	t.Run("codes", func(t *testing.T) {
		seen := map[string]RecCode{}
		for c := RecNone; int(c) < len(recCodeNames); c++ {
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
		for c := CauseSkipBit; int(c) < len(recCauseNames); c++ {
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
