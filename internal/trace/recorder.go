package trace

import (
	"fmt"
	"slices"
	"sync"
)

// RecCode classifies an event. Codes are small integers so a RecEvent is a
// fixed-size all-integer struct the hot path can record without allocating
// or boxing.
type RecCode uint8

const (
	RecNone RecCode = iota
	RecLoadMiss
	RecStoreMiss
	RecAcquire
	RecGrant
	RecGrantAck
	RecRelease
	RecReleaseAck
	RecEvict
	RecProbe
	RecProbeAck
	RecCboEnqueue
	// RecCboCoalesce: a CBO merged into a queued request of the same kind
	// for the same line (§5.3); its txn is the queued request's.
	RecCboCoalesce
	RecFSHRAlloc
	RecFSHRAck
	RecRootRelease
	RecRootReleaseAck
	RecMemRead
	RecMemWrite
	// RecECCScrub: an L1 access found a poisoned clean line and invalidated
	// it for a refetch.
	RecECCScrub
	// RecECCRestore: an L2 grant found a poisoned clean frame and restored
	// it from DRAM.
	RecECCRestore
	// RecSkipAudit is the skip-audit channel: one event per writeback
	// skip/issue decision, with the reason in Cause. Arg is 1 when a
	// writeback was issued and 0 when it was skipped/suppressed.
	RecSkipAudit
)

var recCodeNames = [...]string{
	RecNone:           "none",
	RecLoadMiss:       "load-miss",
	RecStoreMiss:      "store-miss",
	RecAcquire:        "acquire",
	RecGrant:          "grant",
	RecGrantAck:       "grant-ack",
	RecRelease:        "release",
	RecReleaseAck:     "release-ack",
	RecEvict:          "evict",
	RecProbe:          "probe",
	RecProbeAck:       "probe-ack",
	RecCboEnqueue:     "cbo-enqueue",
	RecCboCoalesce:    "cbo-coalesce",
	RecFSHRAlloc:      "fshr-alloc",
	RecFSHRAck:        "fshr-ack",
	RecRootRelease:    "root-release",
	RecRootReleaseAck: "root-release-ack",
	RecMemRead:        "mem-read",
	RecMemWrite:       "mem-write",
	RecECCScrub:       "ecc-scrub",
	RecECCRestore:     "ecc-restore",
	RecSkipAudit:      "skip-audit",
}

// recArgNames names each code's Arg for the renderers; a code without a
// name carries no arg. Every component that records a code gives its Arg
// the one meaning named here.
var recArgNames = [...]string{
	RecGrant:          "client",
	RecRelease:        "dirty",
	RecProbe:          "client",
	RecCboEnqueue:     "depth",
	RecFSHRAlloc:      "fshr",
	RecFSHRAck:        "latency",
	RecRootRelease:    "client",
	RecRootReleaseAck: "client",
	RecSkipAudit:      "issued",
}

func (c RecCode) String() string {
	if int(c) < len(recCodeNames) {
		return recCodeNames[c]
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

func (c RecCode) argName() string {
	if int(c) < len(recArgNames) {
		return recArgNames[c]
	}
	return ""
}

// RecCause explains a skip-audit decision, or qualifies another code: the
// CBO kind of a flush transaction's events, the growth of an acquire.
// CauseNone means the event needs no qualifier.
type RecCause uint8

const (
	CauseNone RecCause = iota
	// CauseSkipBit: CBO dropped at the flush-unit queue head — line clean
	// with the skip bit set (§6.1).
	CauseSkipBit
	// CauseCleanLine: RootRelease writeback trivially skipped — line clean
	// in the LLC (§5.5).
	CauseCleanLine
	// CauseDirtyLine: line dirty, writeback data actually issued.
	CauseDirtyLine
	// CauseGrantDataDirty: L2 granted a dirty line, so the L1 left the skip
	// bit unset (§6).
	CauseGrantDataDirty
	// CauseFlushForced: data-less RootRelease issued anyway because the CBO
	// was a flush (invalidate) — nothing to write, but the LLC must act.
	CauseFlushForced
	// CauseMissNoCopy: RootRelease arrived for a line the LLC no longer
	// holds; nothing to write back.
	CauseMissNoCopy
	// CauseDataSurrendered: probe surrendered dirty data, clearing the skip
	// bit on the demoted copy.
	CauseDataSurrendered
	// CauseRootReleaseRace: RootRelease data arrived for a line the LLC
	// evicted while it was in flight; the carried data is written through
	// to DRAM.
	CauseRootReleaseRace
	// CauseClean and CauseFlush name the CBO kind of a flush transaction's
	// events (CboKind).
	CauseClean
	CauseFlush
	// CauseNtoB, CauseNtoT and CauseBtoT name an acquire's permission growth.
	CauseNtoB
	CauseNtoT
	CauseBtoT
)

var recCauseNames = [...]string{
	CauseNone:            "",
	CauseSkipBit:         "skip-bit-set",
	CauseCleanLine:       "clean-line",
	CauseDirtyLine:       "dirty-line",
	CauseGrantDataDirty:  "grant-data-dirty",
	CauseFlushForced:     "flush-forced",
	CauseMissNoCopy:      "miss-no-copy",
	CauseDataSurrendered: "data-surrendered",
	CauseRootReleaseRace: "root-release-race",
	CauseClean:           "clean",
	CauseFlush:           "flush",
	CauseNtoB:            "NtoB",
	CauseNtoT:            "NtoT",
	CauseBtoT:            "BtoT",
}

func (c RecCause) String() string {
	if int(c) < len(recCauseNames) {
		return recCauseNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// CboKind is the cause naming a CBO's kind: CauseClean for CBO.CLEAN,
// CauseFlush for CBO.FLUSH.
func CboKind(clean bool) RecCause {
	if clean {
		return CauseClean
	}
	return CauseFlush
}

// RecEvent is one event: fixed size, all integers, no pointers, so
// recording is a struct store into a preallocated slot.
type RecEvent struct {
	Cycle int64
	Code  RecCode
	Cause RecCause
	Txn   uint64
	Addr  uint64
	// Arg is a code-specific scalar, named per code (recArgNames): the
	// issued flag of a skip-audit, the client of a grant, a queue depth, …
	Arg uint64
}

// Rec is one component's handle on the event stream. Record keeps the
// event in the component's ring while the recorder keeps rings, and hands
// it to the recorder's sink while one is attached. The mutex guards the
// ring for skipit-sim's signal handler, which dumps the rings from its own
// goroutine while the run may still record; the simulator itself is
// single-goroutine, so the lock is always uncontended on the hot path.
type Rec struct {
	name  string
	sink  Sink
	mu    sync.Mutex
	buf   []RecEvent // nil while the recorder keeps no rings
	next  int
	count int
	total uint64
}

// Record records one event. Nil-safe and inlined: a component without a
// handle records nothing and pays one branch.
//
//skipit:hotpath
func (r *Rec) Record(cycle int64, code RecCode, cause RecCause, txn, addr, arg uint64) {
	if r != nil {
		r.record(RecEvent{Cycle: cycle, Code: code, Cause: cause, Txn: txn, Addr: addr, Arg: arg})
	}
}

// record stores e in the ring, evicting the oldest when full, and streams
// it to the sink.
func (r *Rec) record(e RecEvent) {
	if r.buf != nil {
		r.mu.Lock()
		r.buf[r.next] = e
		r.next = (r.next + 1) % len(r.buf)
		if r.count < len(r.buf) {
			r.count++
		}
		r.total++
		r.mu.Unlock()
	}
	if r.sink != nil {
		r.sink.Record(r.name, e)
	}
}

// Recorder is a system's one event stream: it hands each component its
// handle, keeps the per-component rings once Keep arms them, and streams
// every event to the sink Stream attaches. The zero Recorder keeps no rings
// and has no sink. Components are registered up front (sim wiring time);
// the hot path only ever touches its own handle.
type Recorder struct {
	mu    sync.Mutex
	depth int    // ring depth; 0 keeps no rings
	sink  Sink   // nil streams nowhere
	recs  []*Rec // registration order, for stable dumps
}

// Component returns (creating on first use) the handle for one component
// instance. Nil-safe: a nil recorder returns a nil handle, which records
// nothing.
func (rc *Recorder) Component(name string) *Rec {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for _, r := range rc.recs {
		if r.name == name {
			return r
		}
	}
	r := &Rec{name: name, sink: rc.sink}
	if rc.depth > 0 {
		r.buf = make([]RecEvent, rc.depth)
	}
	rc.recs = append(rc.recs, r)
	return r
}

// Keep arms a fresh ring of the last depth events for every component, so
// Dump has something to show. Call it before the run steps.
func (rc *Recorder) Keep(depth int) {
	if depth <= 0 {
		panic("trace: recorder depth must be positive")
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.depth = depth
	for _, r := range rc.recs {
		r.mu.Lock()
		r.buf, r.next, r.count, r.total = make([]RecEvent, depth), 0, 0, 0
		r.mu.Unlock()
	}
}

// Stream attaches the sink that receives every event from now on (nil
// detaches it). Call it before the run steps.
func (rc *Recorder) Stream(s Sink) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.sink = s
	for _, r := range rc.recs {
		r.sink = s
	}
}

// RecDumpEvent is the JSON-friendly rendering of one RecEvent, with enums
// spelled out so dumps read without the source.
type RecDumpEvent struct {
	Cycle int64  `json:"cycle"`
	Code  string `json:"code"`
	Cause string `json:"cause,omitempty"`
	Txn   uint64 `json:"txn,omitempty"`
	Addr  string `json:"addr"`
	Arg   uint64 `json:"arg,omitempty"`
}

// RecDump is one component's flight-recorder contents.
type RecDump struct {
	Component string         `json:"component"`
	Total     uint64         `json:"total_events"`
	Events    []RecDumpEvent `json:"events"`
}

// Dump snapshots every ring, components in registration order, events
// oldest first. Nil-safe: a nil recorder, or one that keeps no rings,
// dumps nothing.
func (rc *Recorder) Dump() []RecDump {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	recs, keeping := slices.Clone(rc.recs), rc.depth > 0
	rc.mu.Unlock()
	if !keeping {
		return nil
	}
	out := make([]RecDump, 0, len(recs))
	for _, r := range recs {
		r.mu.Lock()
		d := RecDump{Component: r.name, Total: r.total, Events: make([]RecDumpEvent, 0, r.count)}
		for i := range r.count {
			e := r.buf[(r.next-r.count+i+len(r.buf))%len(r.buf)]
			d.Events = append(d.Events, RecDumpEvent{
				Cycle: e.Cycle,
				Code:  e.Code.String(),
				Cause: e.Cause.String(),
				Txn:   e.Txn,
				Addr:  fmt.Sprintf("%#x", e.Addr),
				Arg:   e.Arg,
			})
		}
		r.mu.Unlock()
		out = append(out, d)
	}
	return out
}
