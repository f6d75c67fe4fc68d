package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"skipit/internal/tilelink"
)

// fakePorts is a minimal in-memory data cache for exercising the flush unit
// in isolation.
type fakePorts struct {
	lines   map[uint64]*fakeLine
	dataArr map[uint64]tilelink.Line // survives metadata invalidation, like SRAM
	// sent collects RootRelease messages; acceptEvery models TL-C
	// occupancy by rejecting sends except when now%acceptEvery == 0
	// (acceptEvery <= 1 accepts always).
	sent        []tilelink.Msg
	acceptEvery int64

	metaInvalidates int
	metaClears      int
}

type fakeLine struct {
	dirty bool
	skip  bool
}

func newFakePorts() *fakePorts {
	return &fakePorts{
		lines:       map[uint64]*fakeLine{},
		dataArr:     map[uint64]tilelink.Line{},
		acceptEvery: 1,
	}
}

func (p *fakePorts) addLine(addr uint64, dirty, skip bool) {
	var data tilelink.Line
	for i := range data {
		data[i] = byte(addr>>6) + byte(i)
	}
	p.dataArr[addr] = data
	p.lines[addr] = &fakeLine{dirty: dirty, skip: skip}
}

func (p *fakePorts) meta(addr uint64) LineMeta {
	l, ok := p.lines[addr]
	if !ok {
		return LineMeta{}
	}
	return LineMeta{Hit: true, Dirty: l.dirty, Perm: tilelink.PermTrunk, Skip: l.skip}
}

func (p *fakePorts) MetaInvalidate(addr uint64) {
	p.metaInvalidates++
	delete(p.lines, addr)
}

func (p *fakePorts) MetaClearDirty(addr uint64) {
	p.metaClears++
	if l, ok := p.lines[addr]; ok {
		l.dirty = false
	}
}

func (p *fakePorts) MetaLineState(addr uint64) LineMeta { return p.meta(addr) }

func (p *fakePorts) MetaSetSkip(addr uint64, v bool) {
	if l, ok := p.lines[addr]; ok {
		l.skip = v
	}
}

func (p *fakePorts) DataRead(addr uint64) tilelink.Line { return p.dataArr[addr] }

func (p *fakePorts) SendRootRelease(now int64, m tilelink.Msg) bool {
	if p.acceptEvery > 1 && now%p.acceptEvery != 0 {
		return false
	}
	p.sent = append(p.sent, m)
	return true
}

func newUnit(t *testing.T, mut func(*Config)) (*FlushUnit, *fakePorts) {
	t.Helper()
	p := newFakePorts()
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	return NewFlushUnit(cfg, p), p
}

// run drives the unit until quiescent, acking every RootRelease the cycle
// after it is observed. Returns the number of cycles consumed.
func run(t *testing.T, u *FlushUnit, p *fakePorts, limit int64) int64 {
	t.Helper()
	acked := 0
	for now := int64(0); now < limit; now++ {
		u.Tick(now, true, true)
		for acked < len(p.sent) {
			u.OnRootReleaseAck(now, p.sent[acked].Addr)
			acked++
		}
		if !u.Flushing() {
			return now
		}
	}
	t.Fatalf("flush unit did not drain within %d cycles (counter=%d)", limit, u.PendingCount())
	return limit
}

func TestFlushDirtyLineFullPath(t *testing.T) {
	u, p := newUnit(t, nil)
	p.addLine(0x1000, true, false)

	if got := u.Offer(0, 0x1000, false, p.meta(0x1000)); got != OfferAccepted {
		t.Fatalf("Offer = %v, want Accepted", got)
	}
	if !u.Flushing() {
		t.Fatal("flush counter not raised on enqueue")
	}
	run(t, u, p, 100)

	if len(p.sent) != 1 {
		t.Fatalf("sent %d RootReleases, want 1", len(p.sent))
	}
	m := p.sent[0]
	if m.Op != tilelink.OpRootReleaseFlushData {
		t.Errorf("op = %v, want RootReleaseFlushData", m.Op)
	}
	if m.Data[0] != byte(0x1000>>6) {
		t.Error("RootRelease carried wrong data")
	}
	if _, present := p.lines[0x1000]; present {
		t.Error("CBO.FLUSH did not invalidate the line")
	}
	if u.Flushing() {
		t.Error("flush counter nonzero after ack")
	}
}

func TestCleanDirtyLineKeepsLineAndClearsDirty(t *testing.T) {
	u, p := newUnit(t, nil)
	p.addLine(0x2000, true, false)
	u.Offer(0, 0x2000, true, p.meta(0x2000))
	run(t, u, p, 100)

	if len(p.sent) != 1 || p.sent[0].Op != tilelink.OpRootReleaseCleanData {
		t.Fatalf("sent = %v, want one RootReleaseCleanData", p.sent)
	}
	l, present := p.lines[0x2000]
	if !present {
		t.Fatal("CBO.CLEAN invalidated the line")
	}
	if l.dirty {
		t.Error("CBO.CLEAN left dirty bit set")
	}
	if !l.skip {
		t.Error("completed CBO.CLEAN did not set the skip bit")
	}
}

func TestFlushCleanLineSendsDatalessRelease(t *testing.T) {
	u, p := newUnit(t, nil)
	p.addLine(0x3000, false, false)
	u.Offer(0, 0x3000, false, p.meta(0x3000))
	run(t, u, p, 100)

	if len(p.sent) != 1 || p.sent[0].Op != tilelink.OpRootReleaseFlush {
		t.Fatalf("sent = %v, want one data-less RootReleaseFlush", p.sent)
	}
	if _, present := p.lines[0x3000]; present {
		t.Error("flush of clean line did not invalidate metadata")
	}
	if p.metaInvalidates != 1 {
		t.Errorf("metaInvalidates = %d, want 1", p.metaInvalidates)
	}
}

func TestCleanOfCleanLineLeavesMetadataUntouched(t *testing.T) {
	u, p := newUnit(t, func(c *Config) { c.SkipIt = false })
	p.addLine(0x4000, false, false)
	u.Offer(0, 0x4000, true, p.meta(0x4000))
	run(t, u, p, 100)

	if p.metaInvalidates != 0 || p.metaClears != 0 {
		t.Error("CBO.CLEAN of clean line touched metadata")
	}
	if len(p.sent) != 1 || p.sent[0].Op != tilelink.OpRootReleaseClean {
		t.Fatalf("sent = %v, want one data-less RootReleaseClean", p.sent)
	}
}

func TestMissStillSendsRootRelease(t *testing.T) {
	// §5.2: on a miss the RootRelease is sent regardless, because the line
	// may need to be written back from other cores or from L2.
	u, p := newUnit(t, nil)
	if got := u.Offer(0, 0x5000, false, LineMeta{}); got != OfferAccepted {
		t.Fatalf("Offer on miss = %v, want Accepted", got)
	}
	run(t, u, p, 100)
	if len(p.sent) != 1 || p.sent[0].Op != tilelink.OpRootReleaseFlush {
		t.Fatalf("sent = %v, want one data-less RootReleaseFlush", p.sent)
	}
}

func TestSkipItDropsPersistedLine(t *testing.T) {
	u, p := newUnit(t, nil)
	p.addLine(0x6000, false, true)
	if got := u.Offer(0, 0x6000, false, p.meta(0x6000)); got != OfferDropped {
		t.Fatalf("Offer = %v, want Dropped", got)
	}
	if u.Flushing() {
		t.Error("dropped request raised the flush counter")
	}
	if u.Stats().SkipDropped != 1 {
		t.Error("SkipDropped not counted")
	}
}

func TestSkipItDisabledDoesNotDrop(t *testing.T) {
	u, p := newUnit(t, func(c *Config) { c.SkipIt = false })
	p.addLine(0x6000, false, true)
	if got := u.Offer(0, 0x6000, false, p.meta(0x6000)); got != OfferAccepted {
		t.Fatalf("Offer = %v, want Accepted with SkipIt off", got)
	}
}

func TestSkipBitIgnoredWhenDirty(t *testing.T) {
	// §6.2: the skip bit is only valid when the dirty bit is unset.
	u, p := newUnit(t, nil)
	p.addLine(0x7000, true, true)
	if got := u.Offer(0, 0x7000, false, p.meta(0x7000)); got != OfferAccepted {
		t.Fatalf("Offer = %v, want Accepted for dirty line", got)
	}
}

func TestCoalescingSameKindSameLine(t *testing.T) {
	u, p := newUnit(t, func(c *Config) { c.SkipIt = false })
	p.addLine(0x8000, true, false)
	if u.Offer(0, 0x8000, true, p.meta(0x8000)) != OfferAccepted {
		t.Fatal("first offer rejected")
	}
	if got := u.Offer(0, 0x8000, true, p.meta(0x8000)); got != OfferDropped {
		t.Fatalf("second same-kind offer = %v, want Dropped (coalesced)", got)
	}
	if u.PendingCount() != 1 {
		t.Fatalf("counter = %d after coalesce, want 1", u.PendingCount())
	}
}

func TestNoCoalesceAcrossKinds(t *testing.T) {
	// §5.3: a CBO.CLEAN may coalesce with a pending CBO.CLEAN but not with
	// a pending CBO.FLUSH.
	u, p := newUnit(t, func(c *Config) { c.SkipIt = false })
	p.addLine(0x8000, true, false)
	u.Offer(0, 0x8000, false, p.meta(0x8000))
	if got := u.Offer(0, 0x8000, true, p.meta(0x8000)); got == OfferDropped {
		t.Fatal("CBO.CLEAN coalesced with pending CBO.FLUSH")
	}
}

func TestNoCoalesceAcrossLines(t *testing.T) {
	u, p := newUnit(t, func(c *Config) { c.SkipIt = false })
	p.addLine(0x8000, true, false)
	p.addLine(0x9000, true, false)
	u.Offer(0, 0x8000, true, p.meta(0x8000))
	if got := u.Offer(0, 0x9000, true, p.meta(0x9000)); got != OfferAccepted {
		t.Fatalf("different-line offer = %v, want Accepted", got)
	}
	if u.PendingCount() != 2 {
		t.Fatalf("counter = %d, want 2", u.PendingCount())
	}
}

func TestQueueFullNacks(t *testing.T) {
	u, p := newUnit(t, func(c *Config) {
		c.QueueDepth = 2
		c.Coalescing = false
		c.SkipIt = false
	})
	for i := uint64(0); i < 2; i++ {
		addr := 0x1000 + i*64
		p.addLine(addr, true, false)
		if u.Offer(0, addr, false, p.meta(addr)) != OfferAccepted {
			t.Fatalf("offer %d rejected below capacity", i)
		}
	}
	p.addLine(0x8000, true, false)
	if got := u.Offer(0, 0x8000, false, p.meta(0x8000)); got != OfferNack {
		t.Fatalf("over-capacity offer = %v, want Nack", got)
	}
	if u.Stats().NackQueueFull != 1 {
		t.Error("NackQueueFull not counted")
	}
}

func TestFSHRStateSequenceDirtyFlush(t *testing.T) {
	u, p := newUnit(t, nil)
	p.addLine(0x1000, true, false)
	u.Offer(0, 0x1000, false, p.meta(0x1000))

	// Cycle 0: dequeue + meta_write (shared allocation cycle).
	u.Tick(0, true, true)
	if got := u.FSHRStates()[0]; got != FSHRFillBuffer {
		t.Fatalf("after cycle 0: %v, want fill_buffer", got)
	}
	// Cycle 1: fill_buffer completes in one cycle (wide data array).
	u.Tick(1, true, true)
	if got := u.FSHRStates()[0]; got != FSHRRootReleaseData {
		t.Fatalf("after cycle 1: %v, want root_release_data", got)
	}
	// Cycle 2: send accepted -> waiting for ack.
	u.Tick(2, true, true)
	if got := u.FSHRStates()[0]; got != FSHRRootReleaseAck {
		t.Fatalf("after cycle 2: %v, want root_release_ack", got)
	}
	u.OnRootReleaseAck(3, 0x1000)
	if got := u.FSHRStates()[0]; got != FSHRInvalid {
		t.Fatalf("after ack: %v, want invalid", got)
	}
}

func TestNarrowDataArrayTakesLonger(t *testing.T) {
	wide, pw := newUnit(t, nil)
	narrow, pn := newUnit(t, func(c *Config) { c.WideDataArray = false })
	pw.addLine(0x1000, true, false)
	pn.addLine(0x1000, true, false)
	wide.Offer(0, 0x1000, false, pw.meta(0x1000))
	narrow.Offer(0, 0x1000, false, pn.meta(0x1000))
	cw := run(t, wide, pw, 200)
	cn := run(t, narrow, pn, 200)
	if cn <= cw {
		t.Fatalf("narrow array (%d cycles) not slower than wide (%d)", cn, cw)
	}
	if cn-cw != 7 {
		t.Errorf("narrow-wide delta = %d cycles, want 7 (8-word fill vs 1)", cn-cw)
	}
}

func TestProbeInvalidateToNClearsHitAndDirty(t *testing.T) {
	u, p := newUnit(t, nil)
	p.addLine(0x1000, true, false)
	u.Offer(0, 0x1000, false, p.meta(0x1000))
	// Probe arrives before dequeue (§5.4.1 scenario).
	u.ProbeInvalidate(0x1000, tilelink.CapToN)
	// The other core extracted the data; our line is gone.
	delete(p.lines, 0x1000)
	run(t, u, p, 100)
	if len(p.sent) != 1 || p.sent[0].Op != tilelink.OpRootReleaseFlush {
		t.Fatalf("sent = %v, want data-less RootReleaseFlush after probe inval", p.sent)
	}
}

func TestProbeInvalidateToBClearsOnlyDirty(t *testing.T) {
	u, p := newUnit(t, nil)
	p.addLine(0x1000, true, false)
	u.Offer(0, 0x1000, false, p.meta(0x1000))
	u.ProbeInvalidate(0x1000, tilelink.CapToB)
	p.lines[0x1000].dirty = false // probe extracted dirty data
	run(t, u, p, 100)
	// Still a hit, no longer dirty, flush: meta invalidated + data-less.
	if len(p.sent) != 1 || p.sent[0].Op != tilelink.OpRootReleaseFlush {
		t.Fatalf("sent = %v", p.sent)
	}
	if p.metaInvalidates != 1 {
		t.Error("flush after toB probe did not invalidate metadata")
	}
}

func TestEvictInvalidate(t *testing.T) {
	u, p := newUnit(t, nil)
	p.addLine(0x1000, true, false)
	u.Offer(0, 0x1000, false, p.meta(0x1000))
	u.EvictInvalidate(0x1000)
	delete(p.lines, 0x1000) // WBU released the line
	run(t, u, p, 100)
	if len(p.sent) != 1 || p.sent[0].Op != tilelink.OpRootReleaseFlush {
		t.Fatalf("sent = %v, want data-less release after eviction", p.sent)
	}
	if u.Stats().EvictInvals != 1 {
		t.Error("EvictInvals not counted")
	}
}

func TestProbeRdyLowBlocksDequeue(t *testing.T) {
	u, p := newUnit(t, nil)
	p.addLine(0x1000, true, false)
	u.Offer(0, 0x1000, false, p.meta(0x1000))
	for now := int64(0); now < 10; now++ {
		u.Tick(now, false, true) // probe_rdy low
	}
	if u.ActiveFSHRs() != 0 {
		t.Fatal("request dequeued while probe_rdy low")
	}
	u.Tick(10, true, true)
	if u.ActiveFSHRs() != 1 {
		t.Fatal("request not dequeued once probe_rdy high")
	}
}

func TestWbRdyLowBlocksDequeue(t *testing.T) {
	u, p := newUnit(t, nil)
	p.addLine(0x1000, true, false)
	u.Offer(0, 0x1000, false, p.meta(0x1000))
	u.Tick(0, true, false) // wb_rdy low (§5.4.2)
	if u.ActiveFSHRs() != 0 {
		t.Fatal("request dequeued while wb_rdy low")
	}
}

func TestFlushRdySignalWindow(t *testing.T) {
	u, p := newUnit(t, nil)
	p.addLine(0x1000, true, false)
	u.Offer(0, 0x1000, false, p.meta(0x1000))
	if !u.FlushRdy() {
		t.Fatal("flush_rdy low with request only queued")
	}
	u.Tick(0, true, true) // allocated, in meta_write/fill path
	if u.FlushRdy() {
		t.Fatal("flush_rdy high while FSHR pre-ack")
	}
	u.Tick(1, true, true)
	u.Tick(2, true, true) // release sent, now waiting for ack
	if !u.FlushRdy() {
		t.Fatal("flush_rdy low in root_release_ack state")
	}
}

func TestLoadConflictForwardsFilledBuffer(t *testing.T) {
	u, p := newUnit(t, nil)
	p.addLine(0x1000, true, false)
	u.Offer(0, 0x1000, false, p.meta(0x1000))
	u.Tick(0, true, true) // meta_write (line invalidated) -> fill pending
	if _, nack := u.LoadConflict(0x1000); !nack {
		t.Fatal("load not nacked before buffer fill")
	}
	u.Tick(1, true, true) // buffer filled
	data, nack := u.LoadConflict(0x1000)
	if nack || data == nil {
		t.Fatal("load not forwarded from filled FSHR buffer")
	}
	if data[0] != byte(0x1000>>6) {
		t.Error("forwarded data wrong")
	}
}

func TestStoreConflictRules(t *testing.T) {
	u, p := newUnit(t, nil)
	p.addLine(0x1000, true, false)
	u.Offer(0, 0x1000, true, p.meta(0x1000)) // CBO.CLEAN, dirty line
	// Queued: store must nack.
	if !u.StoreConflict(0x1000) {
		t.Fatal("store allowed while request queued")
	}
	u.Tick(0, true, true) // meta_write
	if !u.StoreConflict(0x1000) {
		t.Fatal("store allowed before buffer filled on dirty clean")
	}
	u.Tick(1, true, true) // buffer filled
	if u.StoreConflict(0x1000) {
		t.Fatal("store nacked after CBO.CLEAN buffer filled")
	}
	// Unrelated line never conflicts.
	if u.StoreConflict(0xF000) {
		t.Fatal("store to unrelated line nacked")
	}
}

func TestStoreConflictFlushAlwaysNacks(t *testing.T) {
	u, p := newUnit(t, nil)
	p.addLine(0x1000, true, false)
	u.Offer(0, 0x1000, false, p.meta(0x1000)) // CBO.FLUSH
	u.Tick(0, true, true)
	u.Tick(1, true, true)
	u.Tick(2, true, true)
	if !u.StoreConflict(0x1000) {
		t.Fatal("store allowed against in-flight CBO.FLUSH")
	}
}

func TestOfferNacksOnActiveFSHRSameLine(t *testing.T) {
	u, p := newUnit(t, func(c *Config) { c.SkipIt = false })
	p.addLine(0x1000, true, false)
	u.Offer(0, 0x1000, false, p.meta(0x1000))
	u.Tick(0, true, true) // FSHR active
	if got := u.Offer(1, 0x1000, false, p.meta(0x1000)); got != OfferNack {
		t.Fatalf("offer against active FSHR = %v, want Nack", got)
	}
}

func TestManyLinesPipelineAcrossFSHRs(t *testing.T) {
	u, p := newUnit(t, func(c *Config) { c.QueueDepth = 64 })
	var offered int
	for i := uint64(0); i < 32; i++ {
		addr := 0x1000 + i*64
		p.addLine(addr, true, false)
		if u.Offer(0, addr, false, p.meta(addr)) == OfferAccepted {
			offered++
		}
	}
	if offered != 32 {
		t.Fatalf("accepted %d offers, want 32", offered)
	}
	run(t, u, p, 10_000)
	if len(p.sent) != 32 {
		t.Fatalf("sent %d releases, want 32", len(p.sent))
	}
}

func TestRoundRobinAllocation(t *testing.T) {
	u, p := newUnit(t, func(c *Config) { c.QueueDepth = 16 })
	// Offer four requests; stall the TL-C port so FSHRs stay occupied.
	p.acceptEvery = 1 << 60
	for i := uint64(0); i < 4; i++ {
		addr := 0x1000 + i*64
		p.addLine(addr, true, false)
		u.Offer(0, addr, false, p.meta(addr))
	}
	for now := int64(0); now < 8; now++ {
		u.Tick(now, true, true)
	}
	states := u.FSHRStates()
	busy := 0
	for _, s := range states[:4] {
		if s != FSHRInvalid {
			busy++
		}
	}
	if busy != 4 {
		t.Fatalf("round-robin did not spread 4 requests over first 4 FSHRs: %v", states)
	}
}

func TestResetQuiesces(t *testing.T) {
	u, p := newUnit(t, nil)
	p.addLine(0x1000, true, false)
	u.Offer(0, 0x1000, false, p.meta(0x1000))
	u.Tick(0, true, true)
	u.Reset()
	if u.Flushing() || u.ActiveFSHRs() != 0 || u.QueueLen() != 0 {
		t.Fatal("reset left state behind")
	}
}

func TestCrossKindCleanIntoQueuedFlush(t *testing.T) {
	u, p := newUnit(t, func(c *Config) { c.SkipIt = false; c.CoalesceCrossKind = true })
	p.addLine(0x1000, true, false)
	u.Offer(0, 0x1000, false, p.meta(0x1000)) // flush queued
	if got := u.Offer(0, 0x1000, true, p.meta(0x1000)); got != OfferDropped {
		t.Fatalf("clean into queued flush = %v, want Dropped", got)
	}
	run(t, u, p, 100)
	// One flush executed; the line must be invalidated (flush semantics).
	if _, present := p.lines[0x1000]; present {
		t.Fatal("line survived the flush the clean coalesced into")
	}
	if u.Stats().CoalescedCross != 1 {
		t.Fatal("cross-kind merge not counted")
	}
}

func TestCrossKindFlushUpgradesQueuedClean(t *testing.T) {
	u, p := newUnit(t, func(c *Config) { c.SkipIt = false; c.CoalesceCrossKind = true })
	p.addLine(0x1000, true, false)
	u.Offer(0, 0x1000, true, p.meta(0x1000)) // clean queued
	if got := u.Offer(0, 0x1000, false, p.meta(0x1000)); got != OfferDropped {
		t.Fatalf("flush into queued clean = %v, want Dropped", got)
	}
	run(t, u, p, 100)
	// The upgraded entry must execute with flush semantics: invalidation
	// plus a RootReleaseFlushData.
	if _, present := p.lines[0x1000]; present {
		t.Fatal("upgraded flush did not invalidate the line")
	}
	if len(p.sent) != 1 || p.sent[0].Op != tilelink.OpRootReleaseFlushData {
		t.Fatalf("sent %v, want one RootReleaseFlushData", p.sent)
	}
	if u.PendingCount() != 0 {
		t.Fatal("counter nonzero after upgraded flush completed")
	}
}

func TestCrossKindOffByDefault(t *testing.T) {
	u, p := newUnit(t, func(c *Config) { c.SkipIt = false })
	p.addLine(0x1000, true, false)
	u.Offer(0, 0x1000, true, p.meta(0x1000))
	if got := u.Offer(0, 0x1000, false, p.meta(0x1000)); got == OfferDropped {
		t.Fatal("cross-kind coalescing active despite default-off config")
	}
}

// Property: under random offer/probe/evict/tick schedules, the flush counter
// equals queued+active requests, never goes negative, every accepted request
// eventually yields exactly one RootRelease, and the unit always drains.
func TestFlushUnitAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u, p := newUnit(t, func(c *Config) {
			c.QueueDepth = 1 + rng.Intn(8)
			c.NumFSHRs = 1 + rng.Intn(8)
			c.SkipIt = rng.Intn(2) == 0
			c.Coalescing = rng.Intn(2) == 0
			c.CoalesceCrossKind = rng.Intn(2) == 0
			c.WideDataArray = rng.Intn(2) == 0
		})
		lines := []uint64{0x1000, 0x1040, 0x2000, 0x8000}
		now := int64(0)
		acked := 0
		accepted := 0
		for i := 0; i < 300; i++ {
			addr := lines[rng.Intn(len(lines))]
			switch rng.Intn(6) {
			case 0, 1:
				if _, ok := p.lines[addr]; !ok && rng.Intn(2) == 0 {
					p.addLine(addr, rng.Intn(2) == 0, rng.Intn(2) == 0)
				}
				if u.Offer(now, addr, rng.Intn(2) == 0, p.meta(addr)) == OfferAccepted {
					accepted++
				}
			case 2:
				u.ProbeInvalidate(addr, tilelink.CapToN)
				if u.fshrFor(addr) == nil { // probes blocked otherwise
					delete(p.lines, addr)
				}
			case 3:
				if u.fshrFor(addr) == nil {
					u.EvictInvalidate(addr)
					delete(p.lines, addr)
				}
			default:
				u.Tick(now, true, true)
				for acked < len(p.sent) {
					u.OnRootReleaseAck(now, p.sent[acked].Addr)
					acked++
				}
			}
			if u.PendingCount() != u.QueueLen()+u.ActiveFSHRs() {
				return false
			}
			now++
		}
		// Drain completely.
		for i := 0; i < 10_000 && u.Flushing(); i++ {
			u.Tick(now, true, true)
			for acked < len(p.sent) {
				u.OnRootReleaseAck(now, p.sent[acked].Addr)
				acked++
			}
			now++
		}
		if u.Flushing() {
			return false
		}
		// Every accepted request produced exactly one RootRelease.
		return len(p.sent) == accepted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// tickEveryFSHR is the reference Tick: it steps every FSHR, idle ones
// included, and recounts fshr_occupancy from the FSHR states.
// TestTickMatchesStepEveryFSHR holds Tick against it.
func (u *FlushUnit) tickEveryFSHR(now int64, probeRdy, wbRdy bool) {
	for i := range u.fshrs {
		u.stepFSHR(now, &u.fshrs[i])
	}
	u.ctr.queueDepth.Set(int64(len(u.queue)))
	u.ctr.fshrOccupancy.Set(int64(u.ActiveFSHRs()))
	u.dequeue(now, probeRdy, wbRdy)
}

// TestTickMatchesStepEveryFSHR drives two flush units in lockstep with the
// same seeded offers, probe_rdy/wb_rdy values, TL-C occupancy and
// RootReleaseAcks, one through Tick and one through tickEveryFSHR, and
// compares their whole state after every cycle. A Tick that skipped an FSHR
// with work (one filling its buffer over eight cycles on the narrow data
// array, or one whose RootRelease the busy link refused) falls behind here.
func TestTickMatchesStepEveryFSHR(t *testing.T) {
	lines := []uint64{0x1000, 0x1040, 0x1080, 0x2000, 0x2040, 0x8000}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.QueueDepth = 1 + rng.Intn(8)
		cfg.NumFSHRs = 1 + rng.Intn(8)
		cfg.SkipIt = rng.Intn(2) == 0
		cfg.Coalescing = rng.Intn(2) == 0
		cfg.CoalesceCrossKind = rng.Intn(2) == 0
		cfg.WideDataArray = rng.Intn(2) == 0
		pa, pb := newFakePorts(), newFakePorts()
		pa.acceptEvery = 1 + int64(rng.Intn(3))
		pb.acceptEvery = pa.acceptEvery
		ua, ub := NewFlushUnit(cfg, pa), NewFlushUnit(cfg, pb)
		var acked []bool // by index into the sent RootReleases
		for now := int64(0); now < 400; now++ {
			// Stores refill lines in both data caches alike.
			if rng.Intn(4) == 0 {
				addr, dirty, skip := lines[rng.Intn(len(lines))], rng.Intn(2) == 0, rng.Intn(2) == 0
				pa.addLine(addr, dirty, skip)
				pb.addLine(addr, dirty, skip)
			}
			for n := rng.Intn(3); n > 0; n-- {
				addr, clean := lines[rng.Intn(len(lines))], rng.Intn(2) == 0
				ra := ua.Offer(now, addr, clean, pa.meta(addr))
				if rb := ub.Offer(now, addr, clean, pb.meta(addr)); ra != rb {
					t.Fatalf("seed %d cycle %d: Offer(%#x) = %v via Tick, %v stepping every FSHR", seed, now, addr, ra, rb)
				}
			}
			probeRdy, wbRdy := rng.Intn(5) != 0, rng.Intn(5) != 0
			ua.Tick(now, probeRdy, wbRdy)
			ub.tickEveryFSHR(now, probeRdy, wbRdy)
			if !slices.Equal(pa.sent[len(acked):], pb.sent[len(acked):]) {
				t.Fatalf("seed %d cycle %d: RootReleases sent via Tick %v, stepping every FSHR %v", seed, now, pa.sent[len(acked):], pb.sent[len(acked):])
			}
			acked = append(acked, make([]bool, len(pa.sent)-len(acked))...)
			// Acknowledge some sent RootReleases, in any order.
			for i := range pa.sent {
				if !acked[i] && rng.Intn(3) == 0 {
					acked[i] = true
					ua.OnRootReleaseAck(now, pa.sent[i].Addr)
					ub.OnRootReleaseAck(now, pb.sent[i].Addr)
				}
			}
			compareFlushUnits(t, seed, now, ua, ub, pa, pb)
		}
	}
}

// compareFlushUnits fails the test unless a and b hold the same FSHRs, queue,
// flush counter, counters, gauges and metadata writes.
func compareFlushUnits(t *testing.T, seed, now int64, a, b *FlushUnit, pa, pb *fakePorts) {
	t.Helper()
	switch {
	case !slices.Equal(a.fshrs, b.fshrs):
		t.Fatalf("seed %d cycle %d: FSHRs differ:\nTick:       %v\nevery FSHR: %v", seed, now, a.FSHRStates(), b.FSHRStates())
	case !slices.Equal(a.queue, b.queue):
		t.Fatalf("seed %d cycle %d: queues differ: %v vs %v", seed, now, a.queue, b.queue)
	case a.counter != b.counter || a.nextRR != b.nextRR:
		t.Fatalf("seed %d cycle %d: counter/nextRR %d/%d vs %d/%d", seed, now, a.counter, a.nextRR, b.counter, b.nextRR)
	case a.Stats() != b.Stats():
		t.Fatalf("seed %d cycle %d: counters differ:\n%+v\n%+v", seed, now, a.Stats(), b.Stats())
	case a.ctr.queueDepth.Value() != b.ctr.queueDepth.Value():
		t.Fatalf("seed %d cycle %d: queue_depth %d vs %d", seed, now, a.ctr.queueDepth.Value(), b.ctr.queueDepth.Value())
	case a.ctr.fshrOccupancy.Value() != b.ctr.fshrOccupancy.Value():
		t.Fatalf("seed %d cycle %d: fshr_occupancy %d vs %d", seed, now, a.ctr.fshrOccupancy.Value(), b.ctr.fshrOccupancy.Value())
	case pa.metaInvalidates != pb.metaInvalidates || pa.metaClears != pb.metaClears:
		t.Fatalf("seed %d cycle %d: metadata writes differ", seed, now)
	}
}
