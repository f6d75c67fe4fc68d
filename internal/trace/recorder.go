package trace

import (
	"fmt"
	"sync"
)

// RecCode classifies a flight-recorder event. Codes are small integers so a
// RecEvent is a fixed-size all-integer struct the hot path can record
// without allocating or boxing.
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
	RecCboOffer
	RecCboEnqueue
	RecFSHRAlloc
	RecFSHRAck
	RecRootRelease
	RecRootReleaseAck
	RecMemRead
	RecMemWrite
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
	RecCboOffer:       "cbo-offer",
	RecCboEnqueue:     "cbo-enqueue",
	RecFSHRAlloc:      "fshr-alloc",
	RecFSHRAck:        "fshr-ack",
	RecRootRelease:    "root-release",
	RecRootReleaseAck: "root-release-ack",
	RecMemRead:        "mem-read",
	RecMemWrite:       "mem-write",
	RecSkipAudit:      "skip-audit",
}

func (c RecCode) String() string {
	if int(c) < len(recCodeNames) {
		return recCodeNames[c]
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

// RecCause explains a skip-audit decision (and qualifies a few other
// codes). CauseNone means the event needs no qualifier.
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
}

func (c RecCause) String() string {
	if int(c) < len(recCauseNames) {
		return recCauseNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// RecEvent is one flight-recorder entry: fixed size, all integers, no
// pointers, so recording is a struct store into a preallocated slot.
type RecEvent struct {
	Cycle int64
	Code  RecCode
	Cause RecCause
	Txn   uint64
	Addr  uint64
	// Arg is a code-specific scalar (issued flag for RecSkipAudit, payload
	// size for mem traffic, queue depth, …).
	Arg uint64
}

// Rec is one component's flight-recorder ring: a fixed-size buffer of the
// last N events, preallocated at construction so the recording path never
// allocates. The mutex exists only for skipit-sim's signal handler, which
// dumps the rings from its own goroutine while the run may still record; the
// simulator itself is single-goroutine, so the lock is always uncontended on
// the hot path.
type Rec struct {
	mu    sync.Mutex
	name  string
	buf   []RecEvent
	next  int
	count int
	total uint64
}

// Record stores one event, evicting the oldest when full. Nil-safe: a nil
// ring is a no-op, so components record unconditionally and pay one branch
// when the recorder is disabled.
//
//skipit:hotpath
func (r *Rec) Record(cycle int64, code RecCode, cause RecCause, txn, addr, arg uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = RecEvent{Cycle: cycle, Code: code, Cause: cause, Txn: txn, Addr: addr, Arg: arg}
	r.next = (r.next + 1) % len(r.buf)
	if r.count < len(r.buf) {
		r.count++
	}
	r.total++
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Rec) Events() []RecEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]RecEvent, 0, r.count)
	start := r.next - r.count
	if start < 0 {
		start += len(r.buf)
	}
	for i := 0; i < r.count; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out
}

// Recorder owns one Rec per component. Components are registered up front
// (sim wiring time); the hot path only ever touches its own preassigned
// *Rec, so the map is never consulted per event.
type Recorder struct {
	mu    sync.Mutex
	depth int
	names []string // registration order, for stable dumps
	rings map[string]*Rec
}

// NewRecorder returns a recorder whose per-component rings retain the last
// depth events each.
func NewRecorder(depth int) *Recorder {
	if depth <= 0 {
		panic("trace: recorder depth must be positive")
	}
	return &Recorder{depth: depth, rings: make(map[string]*Rec)}
}

// Component returns (creating on first use) the ring for one component
// instance. Nil-safe: a nil recorder returns a nil ring, which records
// nothing.
func (rc *Recorder) Component(name string) *Rec {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	r, ok := rc.rings[name]
	if !ok {
		r = &Rec{name: name, buf: make([]RecEvent, rc.depth)}
		rc.rings[name] = r
		rc.names = append(rc.names, name)
	}
	return r
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
// oldest first. Nil-safe: a nil recorder dumps nothing.
func (rc *Recorder) Dump() []RecDump {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	names := append([]string(nil), rc.names...)
	rc.mu.Unlock()
	out := make([]RecDump, 0, len(names))
	for _, name := range names {
		r := rc.Component(name)
		r.mu.Lock()
		total := r.total
		r.mu.Unlock()
		evs := r.Events()
		d := RecDump{Component: name, Total: total, Events: make([]RecDumpEvent, 0, len(evs))}
		for _, e := range evs {
			d.Events = append(d.Events, RecDumpEvent{
				Cycle: e.Cycle,
				Code:  e.Code.String(),
				Cause: e.Cause.String(),
				Txn:   e.Txn,
				Addr:  fmt.Sprintf("%#x", e.Addr),
				Arg:   e.Arg,
			})
		}
		out = append(out, d)
	}
	return out
}
