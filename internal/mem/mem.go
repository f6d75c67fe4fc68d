// Package mem models main memory for the simulated SoC: a fixed-latency,
// bandwidth-limited DRAM controller in the style of FASED's default model,
// fronting a byte store that doubles as the persistence domain (NVMM).
//
// Everything held in this package survives a simulated crash; everything in
// caches and links does not. A write is durable once the controller has
// acknowledged it — the same point at which the paper's L2 receives the
// ReleaseAck from memory and forwards a RootReleaseAck to the requesting core
// (§5.5). Writes that were accepted but not yet acknowledged at crash time
// may or may not survive, which crash tests exercise both ways.
package mem

import (
	"fmt"

	"skipit/internal/metrics"
	"skipit/internal/tilelink"
	"skipit/internal/trace"
)

// Config sets the controller's timing and geometry.
type Config struct {
	LineBytes      uint64
	ReadLatency    int // cycles from acceptance to data response
	WriteLatency   int // cycles from acceptance to acknowledgement
	AcceptInterval int // minimum cycles between accepted requests (bandwidth)
	MaxOutstanding int // controller queue depth
	// Metrics is the registry the controller registers its counters with,
	// under the instance name "mem". Nil gets a private registry.
	Metrics *metrics.Registry
}

// DefaultConfig mirrors the calibration in DESIGN.md §3: ~60-cycle read
// latency, posted writes acknowledged from the controller's ADR-protected
// write queue after a short acceptance delay, and one 64 B transfer accepted
// per cycle, which bounds flush throughput the way FASED's DRAM model bounds
// the paper's.
func DefaultConfig() Config {
	return Config{
		LineBytes:      64,
		ReadLatency:    60,
		WriteLatency:   8,
		AcceptInterval: 1,
		MaxOutstanding: 32,
	}
}

// Kind distinguishes line reads from line writes.
type Kind uint8

const (
	Read Kind = iota
	Write
)

func (k Kind) String() string {
	if k == Read {
		return "Read"
	}
	return "Write"
}

// Request is a full-line memory operation. Tag is echoed in the response so
// the L2 can match completions to its MSHRs.
type Request struct {
	Kind Kind
	Addr uint64
	Data tilelink.Line // zero for reads
	Tag  int
	// Txn is the coherence-transaction id that caused this memory
	// operation, echoed for observability only; 0 means unattributed.
	Txn uint64
}

// Response completes a Request. Data is the line contents for reads and zero
// for write acknowledgements.
type Response struct {
	Kind Kind
	Addr uint64
	Data tilelink.Line
	Tag  int
}

type pending struct {
	req     Request
	readyAt int64
}

// Stats is the controller's counter set, read back as one struct for the
// benchmark harness. The counters live in the metrics registry (under
// "mem.*"); Stats() materializes this view from them.
type Stats struct {
	Reads        uint64
	Writes       uint64
	StalledSends uint64
}

// memCounters holds the controller's registry-backed instruments.
type memCounters struct {
	reads, writes, stalledSends *metrics.Counter
	inflightDepth               *metrics.Gauge
}

func newMemCounters(reg *metrics.Registry, name string) memCounters {
	return memCounters{
		reads:         reg.Counter(name, "reads"),
		writes:        reg.Counter(name, "writes"),
		stalledSends:  reg.Counter(name, "stalled_sends"),
		inflightDepth: reg.Gauge(name, "inflight_depth"),
	}
}

// Memory is the DRAM controller plus backing store. The zero value is not
// usable; construct with New.
type Memory struct {
	cfg        Config
	data       map[uint64]*tilelink.Line // durable contents, line granular
	inflight   []pending
	done       []Response
	nextAccept int64
	ctr        memCounters
	rec        *trace.Rec
}

// SetRecorder attaches the memory's event stream handle; read/write
// retirements are recorded into it. Nil (the default) records nothing.
func (m *Memory) SetRecorder(r *trace.Rec) { m.rec = r }

// New returns an empty memory with the given configuration.
func New(cfg Config) *Memory {
	if cfg.LineBytes != tilelink.LineBytes {
		panic(fmt.Sprintf("mem: line size %d, want %d", cfg.LineBytes, tilelink.LineBytes))
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 1
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Memory{cfg: cfg, data: make(map[uint64]*tilelink.Line), ctr: newMemCounters(reg, "mem")}
}

// Config returns the controller configuration.
func (m *Memory) Config() Config { return m.cfg }

// CanAccept reports whether a request submitted at cycle now would be
// accepted.
func (m *Memory) CanAccept(now int64) bool {
	return now >= m.nextAccept && len(m.inflight) < m.cfg.MaxOutstanding
}

// Submit offers a request to the controller at cycle now. It reports false
// when bandwidth or queue limits reject the request; the caller retries.
func (m *Memory) Submit(now int64, req Request) bool {
	if !m.CanAccept(now) {
		m.ctr.stalledSends.Inc()
		return false
	}
	if req.Addr%m.cfg.LineBytes != 0 {
		panic(fmt.Sprintf("mem: unaligned %v to %#x", req.Kind, req.Addr))
	}
	var lat int
	switch req.Kind {
	case Read:
		lat = m.cfg.ReadLatency
		if req.Data != (tilelink.Line{}) {
			panic("mem: read with payload")
		}
		m.ctr.reads.Inc()
	case Write:
		lat = m.cfg.WriteLatency
		m.ctr.writes.Inc()
	}
	m.inflight = append(m.inflight, pending{req: req, readyAt: now + int64(lat)}) //skipit:ignore hotalloc inflight depth is bounded by AcceptInterval backpressure; append reuses its backing after warmup
	m.nextAccept = now + int64(m.cfg.AcceptInterval)
	m.ctr.inflightDepth.Set(int64(len(m.inflight)))
	return true
}

// Tick retires requests whose latency has elapsed at cycle now, applying
// writes to the durable store and queueing responses.
func (m *Memory) Tick(now int64) {
	// Requests that stay are compacted in place by index, skipping the
	// self-copy: a write carries a whole line.
	kept := 0
	for i := range m.inflight {
		p := &m.inflight[i]
		if p.readyAt > now {
			if kept != i {
				m.inflight[kept] = *p
			}
			kept++
			continue
		}
		switch p.req.Kind {
		case Read:
			m.rec.Record(now, trace.RecMemRead, trace.CauseNone, p.req.Txn, p.req.Addr, 0)
			m.done = append(m.done, Response{Kind: Read, Addr: p.req.Addr, Data: *m.line(p.req.Addr), Tag: p.req.Tag})
		case Write:
			*m.line(p.req.Addr) = p.req.Data
			m.rec.Record(now, trace.RecMemWrite, trace.CauseNone, p.req.Txn, p.req.Addr, 0)
			m.done = append(m.done, Response{Kind: Write, Addr: p.req.Addr, Tag: p.req.Tag})
		}
	}
	m.inflight = m.inflight[:kept]
	m.ctr.inflightDepth.Set(int64(len(m.inflight)))
}

// PollResponse returns the oldest completed response, if any.
func (m *Memory) PollResponse() (Response, bool) {
	if len(m.done) == 0 {
		return Response{}, false
	}
	r := m.done[0]
	copy(m.done, m.done[1:])
	m.done = m.done[:len(m.done)-1]
	return r, true
}

// Outstanding returns the number of accepted-but-incomplete requests plus
// undelivered responses; zero means the controller is quiescent.
func (m *Memory) Outstanding() int { return len(m.inflight) + len(m.done) }

// NextEvent returns the earliest cycle after now at which the controller can
// change state on its own: the completion cycle of the soonest in-flight
// request, or now+1 while completed responses sit unpolled (the L2 collects
// them on its next tick). The acceptance window (nextAccept) is not an event:
// a client blocked on it reports now+1 itself.
//
//skipit:hotpath
func (m *Memory) NextEvent(now int64) int64 {
	if len(m.done) > 0 {
		return now + 1
	}
	next := tilelink.NoEvent
	for i := range m.inflight {
		r := m.inflight[i].readyAt
		if r <= now {
			return now + 1
		}
		if r < next {
			next = r
		}
	}
	return next
}

// Stats returns the traffic counters as one struct, read back from the
// metrics registry (thin view; see package metrics).
func (m *Memory) Stats() Stats {
	return Stats{
		Reads:        m.ctr.reads.Value(),
		Writes:       m.ctr.writes.Value(),
		StalledSends: m.ctr.stalledSends.Value(),
	}
}

func (m *Memory) line(addr uint64) *tilelink.Line {
	l, ok := m.data[addr]
	if !ok {
		l = new(tilelink.Line) //skipit:ignore hotalloc sparse backing store materializes a line on first touch; a resident working set is allocation-free
		m.data[addr] = l
	}
	return l
}

// --- Persistence-domain (NVMM) inspection and crash injection ---

// PeekLine returns the durable contents of the line containing addr.
// Unwritten memory reads as zero.
func (m *Memory) PeekLine(addr uint64) tilelink.Line {
	return *m.line(addr &^ (m.cfg.LineBytes - 1))
}

// PeekUint64 returns the durable 8-byte little-endian value at addr, which
// must be 8-byte aligned.
func (m *Memory) PeekUint64(addr uint64) uint64 {
	if addr%8 != 0 {
		panic("mem: unaligned PeekUint64")
	}
	line := m.line(addr &^ (m.cfg.LineBytes - 1))
	off := addr & (m.cfg.LineBytes - 1)
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(line[off+i]) << (8 * i)
	}
	return v
}

// PokeUint64 writes an 8-byte value directly into the durable store,
// bypassing timing. It is intended for test and benchmark initialization.
func (m *Memory) PokeUint64(addr uint64, v uint64) {
	if addr%8 != 0 {
		panic("mem: unaligned PokeUint64")
	}
	line := m.line(addr &^ (m.cfg.LineBytes - 1))
	off := addr & (m.cfg.LineBytes - 1)
	for i := uint64(0); i < 8; i++ {
		line[off+i] = byte(v >> (8 * i))
	}
}

// PokeLine writes a full line directly into the durable store, bypassing
// timing. Intended for initialization.
func (m *Memory) PokeLine(addr uint64, data tilelink.Line) {
	if addr%m.cfg.LineBytes != 0 {
		panic("mem: unaligned PokeLine")
	}
	*m.line(addr) = data
}

// Crash simulates power loss at the memory controller. In-flight writes that
// were accepted but not yet acknowledged either all drain (drainInflight
// true: the controller's write queue sits inside the ADR persistence domain)
// or are all lost (false). Acknowledged writes always survive; queued
// responses and in-flight reads are always discarded.
func (m *Memory) Crash(drainInflight bool) {
	if drainInflight {
		for _, p := range m.inflight {
			if p.req.Kind == Write {
				*m.line(p.req.Addr) = p.req.Data
			}
		}
	}
	m.inflight = m.inflight[:0]
	m.done = m.done[:0]
	m.nextAccept = 0
}
