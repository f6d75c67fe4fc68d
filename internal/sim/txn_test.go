package sim

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"

	"skipit/internal/isa"
	"skipit/internal/l1"
	"skipit/internal/l2"
	"skipit/internal/trace"
)

// txnWorkload drives every transaction kind through the hierarchy: store and
// load misses (Acquire chains), conflict evictions (Release writebacks and
// the L2's victim probes), CBO flush lifecycles (FSHR RootReleases), and
// redundant CBOs (skip-audit drops).
func txnWorkload(core int) *isa.Program {
	base := 0x1000 + uint64(core)<<20
	b := isa.NewBuilder()
	b.StoreRegion(base, 2048, 64, 0xAB)
	b.Fence()
	b.CboRegion(base, 2048, 64, true)
	b.CboRegion(base, 2048, 64, true) // redundant: Skip It drops these
	b.Fence()
	b.LoadRegion(base, 2048, 64)
	b.StoreRegion(base+0x40000, 4096, 64, 0xCD)
	b.CboRegion(base+0x40000, 4096, 64, false)
	// Nine lines 4 KiB apart share one set of the default L1 (64 sets of 8
	// ways), so the L1 must evict. Nine lines 64 KiB apart share one set of
	// the L2 (1,024 sets of 8 ways) too, the same set on every core, so the
	// L2 must evict and probe the L1s.
	for k := uint64(0); k < 9; k++ {
		b.Store(base+0x48040+k<<12, k)
		b.Store(base+0x48000+k<<16, k)
	}
	b.Fence()
	return b.Build()
}

// txnPrograms is txnWorkload on each of cores cores.
func txnPrograms(cores int) []*isa.Program {
	progs := make([]*isa.Program, cores)
	for i := range progs {
		progs[i] = txnWorkload(i)
	}
	return progs
}

// logged is one streamed event with the component that recorded it.
type logged struct {
	component string
	trace.RecEvent
}

// eventLog is a sink that keeps every event it is handed.
type eventLog []logged

func (l *eventLog) Record(component string, e trace.RecEvent) {
	*l = append(*l, logged{component, e})
}

// streamRun runs progs on s with an eventLog attached and returns the log.
func streamRun(t *testing.T, s *System, progs []*isa.Program) eventLog {
	t.Helper()
	var log eventLog
	s.TraceTo(&log)
	if _, err := s.Run(progs, 5_000_000); err != nil {
		t.Fatal(err)
	}
	return log
}

// txnTrace runs the workload with the given fast-forward setting and returns
// the full event stream plus the flight-recorder dump.
func txnTrace(t *testing.T, cores int, ff bool) (eventLog, []trace.RecDump) {
	t.Helper()
	s := New(DefaultConfig(cores))
	s.SetFastForward(ff)
	s.EnableFlightRecorder(128)
	return streamRun(t, s, txnPrograms(cores)), s.FlightRecorder().Dump()
}

// TestTxnIDsDeterministicAcrossFastForward pins the transaction-id layer's
// core promise: ids are assigned unconditionally on the simulation's own
// event order, so the complete event stream — every event's cycle,
// component, code, cause, address, arg and txn id — and the flight-recorder
// rings are identical with the next-event clock on or off. (Run under -race
// in CI, which also proves id assignment involves no unsynchronized
// sharing.)
func TestTxnIDsDeterministicAcrossFastForward(t *testing.T) {
	for _, cores := range []int{1, 2} {
		evFF, recFF := txnTrace(t, cores, true)
		evSlow, recSlow := txnTrace(t, cores, false)
		if len(evFF) == 0 {
			t.Fatalf("cores=%d: no trace events", cores)
		}
		if !reflect.DeepEqual(evFF, evSlow) {
			for i := range evFF {
				if i >= len(evSlow) || evFF[i] != evSlow[i] {
					t.Fatalf("cores=%d: event %d diverges: ff=%+v slow=%+v", cores, i, evFF[i], evSlow[i])
				}
			}
			t.Fatalf("cores=%d: event streams diverge in length: %d vs %d", cores, len(evFF), len(evSlow))
		}
		if !reflect.DeepEqual(recFF, recSlow) {
			t.Fatalf("cores=%d: flight-recorder dumps diverge", cores)
		}
	}
}

// TestTxnSpansComplete checks causal-chain integrity on a miss-heavy
// workload: every grant-ack, release-ack, and fshr-ack closes a txn that a
// miss, evict, or cbo-enqueue opened, and skip-audit records carry a cause.
// The stream and the recorder rings are one: the rings' last events are the
// stream's last events of each component.
func TestTxnSpansComplete(t *testing.T) {
	events, dumps := txnTrace(t, 2, true)
	opened := map[uint64]bool{}
	audits := 0
	for _, e := range events {
		switch e.Code {
		case trace.RecLoadMiss, trace.RecStoreMiss, trace.RecEvict, trace.RecCboEnqueue:
			if e.Txn == 0 {
				t.Fatalf("%v event without txn id: %+v", e.Code, e)
			}
			opened[e.Txn] = true
		case trace.RecGrantAck, trace.RecReleaseAck, trace.RecFSHRAck:
			if !opened[e.Txn] {
				t.Fatalf("%v closes txn %d that nothing opened", e.Code, e.Txn)
			}
		case trace.RecSkipAudit:
			audits++
			if e.Cause == trace.CauseNone {
				t.Fatalf("skip-audit without cause in %s: %+v", e.component, e)
			}
		}
	}
	if audits == 0 {
		t.Fatal("workload produced no skip-audit records")
	}
	for _, d := range dumps {
		var last []trace.RecEvent
		for _, e := range events {
			if e.component == d.Component {
				last = append(last, e.RecEvent)
			}
		}
		if uint64(len(last)) != d.Total {
			t.Fatalf("%s: stream holds %d events, ring counted %d", d.Component, len(last), d.Total)
		}
		last = last[len(last)-len(d.Events):]
		for i, e := range d.Events {
			if e.Cycle != last[i].Cycle || e.Code != last[i].Code.String() || e.Txn != last[i].Txn {
				t.Fatalf("%s: ring event %d = %+v, stream has %+v", d.Component, i, e, last[i])
			}
		}
	}
}

// TestObservingChangesNothing: a system that nobody observes makes no
// recorder, so its components hold no handle; observing the 2-core
// txnWorkload through a sink and the flight recorder changes neither the
// cycle it ends on nor any counter, gauge or histogram.
func TestObservingChangesNothing(t *testing.T) {
	plain := New(DefaultConfig(2))
	if _, err := plain.Run(txnPrograms(2), 5_000_000); err != nil {
		t.Fatal(err)
	}
	if rc := plain.FlightRecorder(); rc != nil {
		t.Fatalf("an unobserved system made a recorder: %+v", rc.Dump())
	}
	watched := New(DefaultConfig(2))
	watched.EnableFlightRecorder(16)
	if events := streamRun(t, watched, txnPrograms(2)); len(events) == 0 {
		t.Fatal("the observed run streamed no events")
	}
	a, b := plain.Snapshot(), watched.Snapshot()
	if a.Cycle != b.Cycle || !reflect.DeepEqual(a.Counters, b.Counters) ||
		!reflect.DeepEqual(a.Gauges, b.Gauges) || !reflect.DeepEqual(a.Histograms, b.Histograms) {
		t.Fatalf("observing changed the run: ended at cycle %d unobserved, %d observed", a.Cycle, b.Cycle)
	}
}

// TestEveryCodeHasAProducingRun: each event code is recorded by some run,
// so no code is named that no component records. The runs: the 2-core
// txnWorkload for the protocol codes, ECC flips on a clean line in the L1
// and the L2 for the ECC codes, and two CBO.CLEANs queued to one line
// behind a flush unit's one FSHR for cbo-coalesce.
func TestEveryCodeHasAProducingRun(t *testing.T) {
	produced := map[trace.RecCode]bool{}
	for _, run := range []struct {
		name string
		log  func(t *testing.T) eventLog
	}{
		{"txnWorkload", func(t *testing.T) eventLog {
			return streamRun(t, New(DefaultConfig(2)), txnPrograms(2))
		}},
		{"ecc", func(t *testing.T) eventLog {
			s := New(DefaultConfig(1))
			clean := isa.NewBuilder().Store(0x1000, 77).CboClean(0x1000).Fence().Build()
			if _, err := s.Run([]*isa.Program{clean}, 10_000); err != nil {
				t.Fatal(err)
			}
			if s.L1s[0].InjectBitFlip(0x1000, 13) != l1.FlipApplied || s.L2.InjectBitFlip(0x1000, 13) != l2.FlipApplied {
				t.Fatal("flips on a clean line were not applied")
			}
			return streamRun(t, s, []*isa.Program{isa.NewBuilder().Load(0x1000).Fence().Build()})
		}},
		{"coalesce", func(t *testing.T) eventLog {
			cfg := DefaultConfig(1)
			cfg.L1.Flush.NumFSHRs = 1
			b := isa.NewBuilder().StoreRegion(0, 192, 64, 1).Fence().CboRegion(0, 192, 64, true)
			return streamRun(t, New(cfg), []*isa.Program{b.CboClean(128).Fence().Build()})
		}},
	} {
		t.Run(run.name, func(t *testing.T) {
			for _, e := range run.log(t) {
				produced[e.Code] = true
			}
		})
	}
	for c := trace.RecNone + 1; !strings.HasPrefix(c.String(), "code("); c++ {
		if !produced[c] {
			t.Errorf("no run records %v", c)
		}
	}
}

// TestChromeTraceOfTxnWorkload renders the 2-core txnWorkload through the
// Chrome sink: it writes one valid document, every span that opens ("b")
// closes exactly once ("e") under the same id, and every skip-audit record
// names its cause.
func TestChromeTraceOfTxnWorkload(t *testing.T) {
	var w bytes.Buffer
	ct := trace.NewChromeTracer(&w)
	s := New(DefaultConfig(2))
	s.TraceTo(ct)
	if _, err := s.Run(txnPrograms(2), 5_000_000); err != nil {
		t.Fatal(err)
	}
	if err := ct.Close(); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&w)
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			ID    string         `json:"id"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		t.Fatalf("trace holds more than one document (next: %v)", err)
	}
	begins, ends, audits := map[string]int{}, map[string]int{}, 0
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "b":
			begins[e.ID]++
		case "e":
			ends[e.ID]++
		}
		if e.Name == "skip-audit" {
			audits++
			if cause, _ := e.Args["cause"].(string); cause == "" {
				t.Fatalf("skip-audit record without its cause: %+v", e)
			}
		}
	}
	if len(begins) == 0 || audits == 0 {
		t.Fatalf("trace holds %d spans and %d skip-audit records, want both nonzero", len(begins), audits)
	}
	for id, n := range begins {
		if n != 1 || ends[id] != 1 {
			t.Errorf("span %s opens %d times and closes %d times, want once each", id, n, ends[id])
		}
	}
	for id, n := range ends {
		if begins[id] == 0 {
			t.Errorf("span %s closes %d times without opening", id, n)
		}
	}
}
