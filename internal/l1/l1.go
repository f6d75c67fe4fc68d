// Package l1 models the SonicBOOM non-blocking L1 data cache (§3.3): a
// set-associative write-back cache with metadata and data SRAM arrays, miss
// status holding registers with replay queues, a writeback unit, a probe
// unit — and, per the paper's Fig. 8, the flush unit of package core wired
// in with its probe_invalidate / probe_rdy / flush_rdy / wb_rdy signals.
//
// The LSU talks to the cache through Submit/PollResponses; the L2 talks to
// it through the five-channel TileLink port.
package l1

import (
	"fmt"

	"skipit/internal/core"
	"skipit/internal/metrics"
	"skipit/internal/tilelink"
	"skipit/internal/trace"
)

// ReqKind classifies an LSU request into the data cache.
type ReqKind uint8

const (
	Load ReqKind = iota
	Store
	CboClean
	CboFlush
	// CflushDL1 is SiFive's vendor L1-only eviction (§2.6): the line is
	// released to the L2 through the writeback unit, bypassing the flush
	// unit entirely — and therefore never reaching main memory.
	CflushDL1
	// AmoAdd and AmoSwap are A-extension read-modify-writes: they need
	// Trunk permission like stores and return the old word value.
	AmoAdd
	AmoSwap
)

func (k ReqKind) String() string {
	return [...]string{"Load", "Store", "CboClean", "CboFlush", "CflushDL1", "AmoAdd", "AmoSwap"}[k]
}

// IsAmo reports whether the request is an atomic read-modify-write.
func (k ReqKind) IsAmo() bool { return k == AmoAdd || k == AmoSwap }

// Req is one LSU request. Load and Store operate on the 8-byte word at Addr
// (8-byte aligned); CboClean and CboFlush operate on the line containing
// Addr. ID is echoed in the response.
type Req struct {
	ID   int
	Kind ReqKind
	Addr uint64
	Data uint64 // store payload
}

// Resp completes a Req. Nack means the cache could not accept the request
// (full flush queue, no MSHR, conflict) and the LSU must retry (§3.3, §5.2).
type Resp struct {
	ID   int
	Nack bool
	Data uint64 // load result
}

// Config sets the cache geometry and structural limits.
type Config struct {
	Sets       int
	Ways       int
	LineBytes  uint64
	HitLatency int // cycles from processing to load-hit response
	CboLatency int // cycles from processing to CBO.X accept/drop response
	NumMSHRs   int
	RPQDepth   int // replay queue entries per MSHR
	InputWidth int // requests accepted per cycle (the LSU fires 2, §3.2)
	InputDepth int // request pipeline buffer
	Source     int // TileLink source ID / client index
	Flush      core.Config
	// Metrics is the registry the cache registers its counters with, under
	// the instance name "l1[Source]"; the embedded flush unit inherits it
	// as "flush[Source]". Nil gets a private registry.
	Metrics *metrics.Registry
	// Txns hands out coherence-transaction ids; sim.New injects the SoC-wide
	// sequence and the embedded flush unit inherits it. Nil gets a private
	// sequence (standalone unit tests). Excluded from fingerprints: ids are
	// observational and never change simulated behavior.
	Txns *trace.TxnSeq `json:"-"`
}

// DefaultConfig returns the SonicBOOM L1: 32 KiB, 8-way, 64 B lines
// (64 sets), with the paper's flush unit configuration.
func DefaultConfig(source int) Config {
	f := core.DefaultConfig()
	f.Source = source
	return Config{
		Sets:       64,
		Ways:       8,
		LineBytes:  64,
		HitLatency: 3,
		CboLatency: 10,
		NumMSHRs:   4,
		RPQDepth:   8,
		InputWidth: 2,
		InputDepth: 4,
		Source:     source,
		Flush:      f,
	}
}

// wayMeta is one metadata array entry: tag, coherence state, dirty bit
// (§3.3) and the Skip It bit (§6.1). The one-byte fields share the last
// word, so an entry is 24 bytes.
type wayMeta struct {
	tag      uint64
	lastUsed int64
	valid    bool
	perm     tilelink.Perm
	dirty    bool
	skip     bool
}

// rowsPerSlab is the number of data rows in one slab: 64 lines make 4 KiB,
// one way of the default 64 sets.
const rowsPerSlab = 64

// LineInfo is a read-only metadata snapshot for tests and invariant checks.
type LineInfo struct {
	Valid bool
	Addr  uint64
	Perm  tilelink.Perm
	Dirty bool
	Skip  bool
}

// Stats is the data cache's counter set, read back as one struct. The
// counters live in the metrics registry (under "l1[N].*"); Stats()
// materializes this view from them.
type Stats struct {
	Loads        uint64
	Stores       uint64
	LoadHits     uint64
	StoreHits    uint64
	LoadMisses   uint64
	StoreMisses  uint64
	Nacks        uint64
	FSHRForwards uint64 // loads served from an FSHR data buffer (§5.3)
	ProbesServed uint64
	Writebacks   uint64 // WBU releases (evictions)

	// Nack attribution: every Nacks increment is also counted under
	// exactly one cause below.
	NackMSHRFull       uint64 // no free MSHR, or replay queue full
	NackMSHRBusy       uint64 // line has an in-flight miss or pending release
	NackFlushConflict  uint64 // §5.3 flush-unit conflict rules
	NackProbeTransient uint64 // line mid-probe-downgrade
	NackChaos          uint64 // forced by an armed fault schedule
}

// l1Counters holds the cache's registry-backed instruments.
type l1Counters struct {
	loads, stores              *metrics.Counter
	loadHits, storeHits        *metrics.Counter
	loadMisses, storeMisses    *metrics.Counter
	nacks, fshrForwards        *metrics.Counter
	probesServed, writebacks   *metrics.Counter
	nackMSHRFull, nackMSHRBusy *metrics.Counter
	nackFlushConflict          *metrics.Counter
	nackProbeTransient         *metrics.Counter
	nackChaos                  *metrics.Counter

	// ECC-model counters, registered under the SoC-wide "chaos" instance
	// (shared with the L2 and the sim-level registration; the registry's
	// get-or-create semantics make them one instrument).
	eccFlips, eccDirtyUnrec *metrics.Counter
	refetchRecoveries       *metrics.Counter
}

func newL1Counters(reg *metrics.Registry, name string) l1Counters {
	return l1Counters{
		loads:              reg.Counter(name, "loads"),
		stores:             reg.Counter(name, "stores"),
		loadHits:           reg.Counter(name, "load_hits"),
		storeHits:          reg.Counter(name, "store_hits"),
		loadMisses:         reg.Counter(name, "load_misses"),
		storeMisses:        reg.Counter(name, "store_misses"),
		nacks:              reg.Counter(name, "nacks"),
		fshrForwards:       reg.Counter(name, "fshr_forwards"),
		probesServed:       reg.Counter(name, "probes_served"),
		writebacks:         reg.Counter(name, "writebacks"),
		nackMSHRFull:       reg.Counter(name, "nack_mshr_full"),
		nackMSHRBusy:       reg.Counter(name, "nack_mshr_busy"),
		nackFlushConflict:  reg.Counter(name, "nack_flush_conflict"),
		nackProbeTransient: reg.Counter(name, "nack_probe_transient"),
		nackChaos:          reg.Counter(name, "nack_chaos"),
		eccFlips:           reg.Counter("chaos", "ecc_flips"),
		eccDirtyUnrec:      reg.Counter("chaos", "ecc_dirty_unrecoverable"),
		refetchRecoveries:  reg.Counter("chaos", "refetch_recoveries"),
	}
}

type pendingReq struct {
	req     Req
	readyAt int64
}

type timedResp struct {
	resp    Resp
	readyAt int64
}

// DCache is the L1 data cache.
type DCache struct {
	cfg  Config
	meta [][]wayMeta
	// slabs holds the data array, rowsPerSlab rows per slab. A slab is made
	// by the first row call that needs it, so a job pays only for the ways
	// it fills; see row.
	slabs [][]tilelink.Line
	port  *tilelink.ClientPort

	flush *core.FlushUnit
	mshrs []mshr
	// activeMSHRs counts the MSHRs not in mFree: allocMSHR adds one and the
	// GrantAck's release takes it back. While it is 0 no walk over the
	// MSHRs runs; sim.CheckInvariants holds it against the states.
	activeMSHRs int
	wb          wbUnit
	probe       probeUnit

	inQ   []pendingReq
	respQ []timedResp

	// respScratch backs PollResponses' return slice across cycles so the
	// steady-state loop does not allocate.
	respScratch []Resp

	rec  *trace.Rec // event stream handle; nil records nothing
	name string

	acceptedThisCycle int
	lastAcceptCycle   int64

	ctr l1Counters

	chaos Chaos // nil unless a fault schedule is armed
	// poisoned marks clean lines carrying an injected ECC flip, keyed by
	// line address; nil until the first injection.
	poisoned map[uint64]struct{}
}

// New builds a data cache over the given TileLink port (client side).
func New(cfg Config, port *tilelink.ClientPort) *DCache {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic("l1: bad geometry")
	}
	if cfg.LineBytes != tilelink.LineBytes {
		panic(fmt.Sprintf("l1: line size %d, want %d", cfg.LineBytes, tilelink.LineBytes))
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	if cfg.Txns == nil {
		cfg.Txns = &trace.TxnSeq{}
	}
	d := &DCache{cfg: cfg, port: port, name: fmt.Sprintf("l1[%d]", cfg.Source)}
	d.ctr = newL1Counters(reg, d.name)
	// The metadata sets are capacity-capped windows into one flat array,
	// and the data array is slabs made on first use: a handful of
	// allocations per cache, not one per line.
	meta := make([]wayMeta, cfg.Sets*cfg.Ways)
	d.slabs = make([][]tilelink.Line, (len(meta)+rowsPerSlab-1)/rowsPerSlab)
	d.meta = make([][]wayMeta, cfg.Sets)
	for s := 0; s < cfg.Sets; s++ {
		lo, hi := s*cfg.Ways, (s+1)*cfg.Ways
		d.meta[s] = meta[lo:hi:hi]
	}
	d.mshrs = make([]mshr, cfg.NumMSHRs)
	fcfg := cfg.Flush
	fcfg.LineBytes = cfg.LineBytes
	fcfg.Source = cfg.Source
	fcfg.Metrics = reg
	fcfg.Txns = cfg.Txns
	d.flush = core.NewFlushUnit(fcfg, (*flushPorts)(d))
	return d
}

// Config returns the cache configuration.
func (d *DCache) Config() Config { return d.cfg }

// Stats returns the activity counters as one struct, read back from the
// metrics registry (thin view; see package metrics).
func (d *DCache) Stats() Stats {
	return Stats{
		Loads:              d.ctr.loads.Value(),
		Stores:             d.ctr.stores.Value(),
		LoadHits:           d.ctr.loadHits.Value(),
		StoreHits:          d.ctr.storeHits.Value(),
		LoadMisses:         d.ctr.loadMisses.Value(),
		StoreMisses:        d.ctr.storeMisses.Value(),
		Nacks:              d.ctr.nacks.Value(),
		FSHRForwards:       d.ctr.fshrForwards.Value(),
		ProbesServed:       d.ctr.probesServed.Value(),
		Writebacks:         d.ctr.writebacks.Value(),
		NackMSHRFull:       d.ctr.nackMSHRFull.Value(),
		NackMSHRBusy:       d.ctr.nackMSHRBusy.Value(),
		NackFlushConflict:  d.ctr.nackFlushConflict.Value(),
		NackProbeTransient: d.ctr.nackProbeTransient.Value(),
		NackChaos:          d.ctr.nackChaos.Value(),
	}
}

// FlushUnit exposes the embedded flush unit (for stats and fences).
func (d *DCache) FlushUnit() *core.FlushUnit { return d.flush }

// SetRecorder attaches the cache's event stream handle (nil records
// nothing). The embedded flush unit has its own handle; wire it via
// FlushUnit().SetRecorder.
func (d *DCache) SetRecorder(r *trace.Rec) { d.rec = r }

// Flushing mirrors the §5.3 fence gate: true while CBO.X requests are
// pending anywhere in the flush unit.
func (d *DCache) Flushing() bool { return d.flush.Flushing() }

func (d *DCache) lineAddr(addr uint64) uint64 { return addr &^ (d.cfg.LineBytes - 1) }

func (d *DCache) index(addr uint64) int {
	return int((addr / d.cfg.LineBytes) % uint64(d.cfg.Sets))
}

func (d *DCache) tagOf(addr uint64) uint64 {
	return addr / d.cfg.LineBytes / uint64(d.cfg.Sets)
}

func (d *DCache) addrOf(set int, tag uint64) uint64 {
	return (tag*uint64(d.cfg.Sets) + uint64(set)) * d.cfg.LineBytes
}

// findWay returns the way holding addr, honoring the valid bit when
// mustBeValid is set. The flush unit's fill_buffer state reads the data
// array after meta_write invalidated the line, so it looks up by tag alone;
// the §5.4.2 victim-selection interlock guarantees the way is not reused in
// that window.
func (d *DCache) findWay(addr uint64, mustBeValid bool) int {
	set := d.index(addr)
	tag := d.tagOf(addr)
	for w := range d.meta[set] {
		m := &d.meta[set][w]
		if m.tag == tag && (m.valid || !mustBeValid) {
			return w
		}
	}
	return -1
}

// lookup returns the metadata of addr's line, or nil on miss.
func (d *DCache) lookup(addr uint64) *wayMeta {
	set := d.index(addr)
	tag := d.tagOf(addr)
	for w := range d.meta[set] {
		m := &d.meta[set][w]
		if m.valid && m.tag == tag {
			return m
		}
	}
	return nil
}

// LineState snapshots addr's line for tests and invariant checks.
func (d *DCache) LineState(addr uint64) LineInfo {
	m := d.lookup(d.lineAddr(addr))
	if m == nil {
		return LineInfo{}
	}
	return LineInfo{Valid: true, Addr: d.lineAddr(addr), Perm: m.perm, Dirty: m.dirty, Skip: m.skip}
}

// Lines returns a snapshot of every valid line, for the system-wide
// invariant checker.
func (d *DCache) Lines() []LineInfo {
	var out []LineInfo
	for s := range d.meta {
		for w := range d.meta[s] {
			m := &d.meta[s][w]
			if m.valid {
				out = append(out, LineInfo{
					Valid: true,
					Addr:  d.addrOf(s, m.tag),
					Perm:  m.perm,
					Dirty: m.dirty,
					Skip:  m.skip,
				})
			}
		}
	}
	return out
}

// Busy reports whether any internal machinery is mid-flight; the system
// drain loop uses it together with link and L2 quiescence.
func (d *DCache) Busy() bool {
	if len(d.inQ) > 0 || len(d.respQ) > 0 || d.flush.Flushing() {
		return true
	}
	return !d.wb.idle() || d.probe.busy() || d.activeMSHRs != 0
}

// ActiveMSHRs returns the running count of MSHRs holding a miss.
func (d *DCache) ActiveMSHRs() int { return d.activeMSHRs }

// CountActiveMSHRs recounts the MSHRs holding a miss from their states, for
// the invariant checker to hold ActiveMSHRs against.
func (d *DCache) CountActiveMSHRs() int {
	n := 0
	for i := range d.mshrs {
		if d.mshrs[i].state != mFree {
			n++
		}
	}
	return n
}

// NextEvent returns the earliest cycle after now at which the cache can
// change state without an incoming message: pipelined requests and timed
// responses mature at their readyAt, the probe/writeback units and most MSHR
// states act every cycle, and the flush unit reports its own horizon. MSHRs
// waiting on a grant (and the WBU waiting on its ReleaseAck) generate no
// event of their own — the D-channel link reports the delivery cycle.
//
//skipit:hotpath
func (d *DCache) NextEvent(now int64) int64 {
	next := tilelink.NoEvent
	for i := range d.inQ {
		if r := d.inQ[i].readyAt; r <= now {
			return now + 1
		} else if r < next {
			next = r
		}
	}
	for i := range d.respQ {
		if r := d.respQ[i].readyAt; r <= now {
			return now + 1
		} else if r < next {
			next = r
		}
	}
	if d.probe.busy() {
		return now + 1
	}
	if d.wb.state == wbSendRelease {
		return now + 1
	}
	if t := d.flush.NextEvent(now); t < next {
		next = t
	}
	if d.activeMSHRs == 0 {
		return next
	}
	for i := range d.mshrs {
		switch d.mshrs[i].state {
		case mFree, mWaitGrant:
			// idle, or waiting on TL-D
		default:
			return now + 1
		}
	}
	return next
}

// Reset drops all volatile state (simulated crash), data slabs included:
// every row reads as zeros afterwards.
func (d *DCache) Reset() {
	for s := range d.meta {
		for w := range d.meta[s] {
			d.meta[s][w] = wayMeta{}
		}
	}
	clear(d.slabs)
	for i := range d.mshrs {
		d.mshrs[i] = mshr{}
	}
	d.activeMSHRs = 0
	d.wb = wbUnit{}
	d.probe = probeUnit{}
	d.inQ = d.inQ[:0]
	d.respQ = d.respQ[:0]
	d.poisoned = nil
	d.flush.Reset()
}

// row returns the data array row of (set, way), making its slab on first
// use; a row never written reads as zeros. Rows are numbered way-major
// (way*Sets + set): the cache fills the first invalid way, so a job's lines
// land in way 0 of consecutive sets and share slabs.
func (d *DCache) row(set, way int) *tilelink.Line {
	r := way*d.cfg.Sets + set
	slab := d.slabs[r/rowsPerSlab]
	if slab == nil {
		slab = make([]tilelink.Line, rowsPerSlab) //skipit:ignore hotalloc the data array materializes a slab on first touch; a cache makes at most Sets*Ways/rowsPerSlab of them and none once its working set is resident
		d.slabs[r/rowsPerSlab] = slab
	}
	return &slab[r%rowsPerSlab]
}

func (d *DCache) readWord(set, way int, addr uint64) uint64 {
	off := addr & (d.cfg.LineBytes - 1)
	if off%8 != 0 {
		panic(fmt.Sprintf("l1: unaligned word access %#x", addr))
	}
	line := d.row(set, way)
	var v uint64
	for i := uint64(0); i < 8; i++ {
		v |= uint64(line[off+i]) << (8 * i)
	}
	return v
}

func (d *DCache) writeWord(set, way int, addr uint64, v uint64) {
	off := addr & (d.cfg.LineBytes - 1)
	if off%8 != 0 {
		panic(fmt.Sprintf("l1: unaligned word access %#x", addr))
	}
	line := d.row(set, way)
	for i := uint64(0); i < 8; i++ {
		line[off+i] = byte(v >> (8 * i))
	}
}

// --- core.CachePorts implementation (the Fig. 8 wiring) ---

// flushPorts adapts DCache to the flush unit's port interface without
// exporting the mutators on DCache itself.
type flushPorts DCache

func (p *flushPorts) d() *DCache { return (*DCache)(p) }

func (p *flushPorts) MetaInvalidate(addr uint64) {
	if m := p.d().lookup(addr); m != nil {
		m.valid = false
		m.dirty = false
		m.skip = false
		p.d().clearPoison(p.d().lineAddr(addr))
	}
}

func (p *flushPorts) MetaClearDirty(addr uint64) {
	if m := p.d().lookup(addr); m != nil {
		m.dirty = false
	}
}

func (p *flushPorts) MetaLineState(addr uint64) core.LineMeta {
	m := p.d().lookup(addr)
	if m == nil {
		return core.LineMeta{}
	}
	return core.LineMeta{Hit: true, Dirty: m.dirty, Perm: m.perm, Skip: m.skip}
}

func (p *flushPorts) MetaSetSkip(addr uint64, v bool) {
	if m := p.d().lookup(addr); m != nil {
		m.skip = v
	}
}

func (p *flushPorts) DataRead(addr uint64) tilelink.Line {
	d := p.d()
	way := d.findWay(addr, false)
	if way < 0 {
		panic(fmt.Sprintf("l1: FSHR data read for unknown line %#x", addr))
	}
	return *d.row(d.index(addr), way)
}

func (p *flushPorts) SendRootRelease(now int64, m tilelink.Msg) bool {
	return p.d().port.C.Send(now, m)
}
