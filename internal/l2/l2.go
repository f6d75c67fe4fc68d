// Package l2 models the SiFive inclusive last-level cache generator (§3.4)
// with the paper's §5.5 modifications: handling of the RootReleaseFlush and
// RootReleaseClean messages, and — for Skip It (§6) — responding to Acquire
// with GrantDataDirty whenever the granted line is dirty in L2.
//
// The cache is the TileLink manager for the per-core L1 data caches and the
// client of main memory. Coherence among L1s is enforced with an
// invalidation-based policy over a full-map directory stored with each
// line's metadata, exactly as the SiFive inclusive cache does. The moving
// parts keep their upstream names: SinkC ingests TL-C messages, the
// ListBuffer holds requests that cannot allocate an MSHR yet, the
// BankedStore holds line data, and SourceB/SourceD emit probes and
// responses.
package l2

import (
	"fmt"

	"skipit/internal/mem"
	"skipit/internal/metrics"
	"skipit/internal/tilelink"
	"skipit/internal/trace"
)

// Config sets the cache geometry and structural limits.
type Config struct {
	Sets       int
	Ways       int
	LineBytes  uint64
	NumClients int
	NumMSHRs   int
	// ListBufferDepth bounds buffered TL-C/TL-A requests waiting for an
	// MSHR. Overflow stalls ingestion (TileLink back-pressure).
	ListBufferDepth int
	// TagLatency is the directory/tag pipeline delay applied between a
	// request arriving at SinkA/SinkC and its MSHR starting work.
	TagLatency int
	// Metrics is the registry the cache registers its counters with, under
	// the instance name "l2". Nil gets a private registry.
	Metrics *metrics.Registry
}

// DefaultConfig returns the paper's L2: 512 KiB, 8-way, 64 B lines
// (1024 sets), shared by the configured number of clients.
func DefaultConfig(numClients int) Config {
	return Config{
		Sets:            1024,
		Ways:            8,
		LineBytes:       64,
		NumClients:      numClients,
		NumMSHRs:        16,
		ListBufferDepth: 32,
		TagLatency:      8,
	}
}

// line is one L2 frame's tag/valid/dirty metadata. Its BankedStore row and
// its full-map directory entry (Directory in Fig. 4) live beside it, reached
// through row with dataOf and permsOf, so a frame holds no pointer.
type line struct {
	tag      uint64
	lastUsed int64
	// row numbers the frame, its data row and its directory entry,
	// way-major (way*Sets + set); fixed when the frame's slab is made.
	row   uint32
	valid bool
	dirty bool
	// reserved marks a way claimed by an in-flight refill so concurrent
	// misses to the set cannot double-allocate it.
	reserved bool
}

// rowsPerSlab is the number of rows in one frame or BankedStore slab: 64
// lines of data make 4 KiB.
const rowsPerSlab = 64

// frameSlab is rowsPerSlab frames and their directory entries, NumClients
// permissions per frame, made together by the first fill that needs them.
// The entries' slice header comes first: it is the slab's only pointer, so
// the garbage collector scans one word of it.
type frameSlab struct {
	perms []tilelink.Perm
	lines [rowsPerSlab]line
}

// maxMSHRs bounds Config.NumMSHRs: the busy mask has one bit per MSHR.
const maxMSHRs = 64

// LineState is a read-only snapshot for invariant checks and tests.
type LineState struct {
	Present bool
	Dirty   bool
	Perms   []tilelink.Perm
}

// Stats is the L2's counter set, read back as one struct for the benchmark
// harness. The counters live in the metrics registry (under "l2.*"); Stats()
// materializes this view from them.
type Stats struct {
	Acquires          uint64
	RootReleases      uint64
	RootReleaseSkips  uint64 // RootReleases that found the line clean (§5.5 trivial skip)
	RootReleaseRaces  uint64 // RootRelease dirty data arriving for a concurrently evicted line
	GrantsData        uint64
	GrantsDataDirty   uint64
	ProbesSent        uint64
	Evictions         uint64
	MemReads          uint64
	MemWrites         uint64
	VoluntaryReleases uint64

	// Stall attribution: backpressure seen at the L2's boundaries.
	LinkBackpressureB uint64 // SourceB send deferred by TL-B occupancy
	LinkBackpressureD uint64 // SourceD send deferred by TL-D occupancy
	ListBufferStalls  uint64 // TL-A/TL-C ingestion deferred by a full ListBuffer
	MSHRFullDefers    uint64 // buffered requests deferred because no MSHR was free
}

// l2Counters holds the cache's registry-backed instruments.
type l2Counters struct {
	acquires, rootReleases, rootReleaseSkips *metrics.Counter
	rootReleaseRaces                         *metrics.Counter
	grantsData, grantsDataDirty              *metrics.Counter
	probesSent, evictions                    *metrics.Counter
	memReads, memWrites                      *metrics.Counter
	voluntaryReleases                        *metrics.Counter
	linkBackpressureB, linkBackpressureD     *metrics.Counter
	listBufferStalls, mshrFullDefers         *metrics.Counter
	listBufferDepth                          *metrics.Gauge

	// ECC-model counters, registered under the SoC-wide "chaos" instance
	// (shared with the L1s; get-or-create makes them one instrument).
	eccFlips, eccDirtyUnrec *metrics.Counter
	refetchRecoveries       *metrics.Counter
}

func newL2Counters(reg *metrics.Registry, name string) l2Counters {
	return l2Counters{
		acquires:          reg.Counter(name, "acquires"),
		rootReleases:      reg.Counter(name, "root_releases"),
		rootReleaseSkips:  reg.Counter(name, "root_release_skips"),
		rootReleaseRaces:  reg.Counter(name, "root_release_races"),
		grantsData:        reg.Counter(name, "grants_data"),
		grantsDataDirty:   reg.Counter(name, "grants_data_dirty"),
		probesSent:        reg.Counter(name, "probes_sent"),
		evictions:         reg.Counter(name, "evictions"),
		memReads:          reg.Counter(name, "mem_reads"),
		memWrites:         reg.Counter(name, "mem_writes"),
		voluntaryReleases: reg.Counter(name, "voluntary_releases"),
		linkBackpressureB: reg.Counter(name, "link_backpressure_b_cycles"),
		linkBackpressureD: reg.Counter(name, "link_backpressure_d_cycles"),
		listBufferStalls:  reg.Counter(name, "listbuffer_stall_cycles"),
		mshrFullDefers:    reg.Counter(name, "mshr_full_defer_cycles"),
		listBufferDepth:   reg.Gauge(name, "listbuffer_depth"),
		eccFlips:          reg.Counter("chaos", "ecc_flips"),
		eccDirtyUnrec:     reg.Counter("chaos", "ecc_dirty_unrecoverable"),
		refetchRecoveries: reg.Counter("chaos", "refetch_recoveries"),
	}
}

// Cache is the inclusive LLC. Drive it once per cycle with Tick.
type Cache struct {
	cfg Config
	// frames holds the tag array and the directory, rowsPerSlab frames per
	// slab, numbered like the data rows. A slab is made by the first fill
	// that needs it (frame) and never moves; until then its frames read as
	// invalid.
	frames []*frameSlab
	// slabs holds the BankedStore, rowsPerSlab data rows per slab. A slab
	// is made by the first dataOf that needs it and never moves, so a job
	// pays only for the rows it touches.
	slabs [][]tilelink.Line
	ports []*tilelink.ClientPort
	mem   *mem.Memory

	mshrs []mshr
	// busy has bit i set while mshrs[i] holds a transaction (its state is
	// not msFree). Every walk over the MSHRs visits only its set bits, in
	// ascending index order; retryListBuffer sets a bit and release clears
	// it, and sim.CheckInvariants holds the mask against the states.
	busy uint64
	// lines[i] holds the lines MSHR i makes busy: its own while its busy
	// bit is set, and its victim's while its evicting bit is set (states
	// msEvictProbe and msEvictMemWrite). lineBusy and mshrFor read these
	// instead of the MSHRs, so a buffered request stalled on a busy line
	// costs a few compares a cycle. They change only when an MSHR is taken,
	// freed, enters an eviction or leaves one; sim.CheckInvariants holds
	// them against the MSHRs.
	lines    []busyLines
	evicting uint64
	// listBuffer holds TL-C and TL-A requests that arrived while their
	// line had an active MSHR or no MSHR was free (ListBuffer in Fig. 4).
	listBuffer []buffered

	// outB/outD are SourceB/SourceD staging queues, drained one message
	// per client per cycle subject to link occupancy.
	outB [][]tilelink.Msg
	outD [][]tilelink.Msg

	rec *trace.Rec // event stream handle; nil records nothing
	ctr l2Counters

	chaos Chaos // nil unless a fault schedule is armed
	// bugDropRaceWB is a test-only mutation (PokeDropRootReleaseRaceData):
	// revert the RootRelease-vs-eviction race fix by dropping the carried
	// data instead of capturing it for write-through.
	bugDropRaceWB bool
	// poisoned marks clean frames carrying an injected ECC flip, keyed by
	// line address; nil until the first injection.
	poisoned map[uint64]struct{}

	// blockedScratch is retryListBuffer's reusable same-line-serialization
	// set (a linear-scan slice: the ListBuffer is small and bounded), kept
	// across cycles so the hot loop does not allocate.
	blockedScratch []uint64
}

type busyLines struct {
	addr, victim uint64
}

type buffered struct {
	msg     tilelink.Msg
	client  int
	readyAt int64
	// raced marks RootRelease dirty data that arrived for a line the L2
	// had concurrently evicted (the flush raced an eviction): the MSHR
	// writes msg.Data through to DRAM instead of the absent line.
	raced bool
}

// New builds the L2 over the given client ports and memory. ports[i] is the
// five-channel bundle shared with client (L1) i, viewed from the client
// side: the L2 receives on A/C/E and sends on B/D.
func New(cfg Config, ports []*tilelink.ClientPort, m *mem.Memory) *Cache {
	if len(ports) != cfg.NumClients {
		panic(fmt.Sprintf("l2: %d ports for %d clients", len(ports), cfg.NumClients))
	}
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic("l2: bad geometry")
	}
	if cfg.LineBytes != tilelink.LineBytes {
		panic(fmt.Sprintf("l2: line size %d, want %d", cfg.LineBytes, tilelink.LineBytes))
	}
	if cfg.NumMSHRs > maxMSHRs {
		panic(fmt.Sprintf("l2: %d MSHRs, at most %d (one busy-mask bit each)", cfg.NumMSHRs, maxMSHRs))
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &Cache{
		cfg:   cfg,
		ports: ports,
		mem:   m,
		mshrs: make([]mshr, cfg.NumMSHRs),
		lines: make([]busyLines, cfg.NumMSHRs),
		outB:  make([][]tilelink.Msg, cfg.NumClients),
		outD:  make([][]tilelink.Msg, cfg.NumClients),
		ctr:   newL2Counters(reg, "l2"),
	}
	// Frames, their directory entries and data rows live in slabs made on
	// first use. Rows are numbered way-major: the L2 fills the first invalid
	// way, so a job's lines land in way 0 of consecutive sets and share
	// slabs.
	nslabs := (cfg.Sets*cfg.Ways + rowsPerSlab - 1) / rowsPerSlab
	c.frames = make([]*frameSlab, nslabs)
	c.slabs = make([][]tilelink.Line, nslabs)
	return c
}

// frameAt returns the frame of (set, way), or nil while its slab is unmade:
// every frame of a missing slab is invalid and unreserved.
func (c *Cache) frameAt(set, way int) *line {
	row := way*c.cfg.Sets + set
	slab := c.frames[row/rowsPerSlab]
	if slab == nil {
		return nil
	}
	return &slab.lines[row%rowsPerSlab]
}

// frame returns the frame of (set, way), making its slab, directory entries
// included, on first use.
func (c *Cache) frame(set, way int) *line {
	row := way*c.cfg.Sets + set
	slab := c.frames[row/rowsPerSlab]
	if slab == nil {
		slab = &frameSlab{perms: make([]tilelink.Perm, rowsPerSlab*c.cfg.NumClients)} //skipit:ignore hotalloc the tag array and directory materialize a slab on first fill; a system makes at most Sets*Ways/rowsPerSlab of them and none once its working set is resident
		first := row / rowsPerSlab * rowsPerSlab
		for i := range slab.lines {
			slab.lines[i].row = uint32(first + i)
		}
		c.frames[row/rowsPerSlab] = slab
	}
	return &slab.lines[row%rowsPerSlab]
}

// permsOf returns frame l's directory entry, one permission per client. The
// entry was made with l's slab, so this makes nothing.
func (c *Cache) permsOf(l *line) []tilelink.Perm {
	n := c.cfg.NumClients
	i := int(l.row%rowsPerSlab) * n
	return c.frames[l.row/rowsPerSlab].perms[i : i+n : i+n]
}

// dataOf returns frame l's BankedStore row, making its slab on first use. A
// row never written reads as zeros.
func (c *Cache) dataOf(l *line) *tilelink.Line {
	slab := c.slabs[l.row/rowsPerSlab]
	if slab == nil {
		slab = make([]tilelink.Line, rowsPerSlab) //skipit:ignore hotalloc the BankedStore materializes a slab on first touch; a system makes at most Sets*Ways/rowsPerSlab of them and none once its working set is resident
		c.slabs[l.row/rowsPerSlab] = slab
	}
	return &slab[l.row%rowsPerSlab]
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the activity counters as one struct, read back from the
// metrics registry (thin view; see package metrics).
func (c *Cache) Stats() Stats {
	return Stats{
		Acquires:          c.ctr.acquires.Value(),
		RootReleases:      c.ctr.rootReleases.Value(),
		RootReleaseSkips:  c.ctr.rootReleaseSkips.Value(),
		RootReleaseRaces:  c.ctr.rootReleaseRaces.Value(),
		GrantsData:        c.ctr.grantsData.Value(),
		GrantsDataDirty:   c.ctr.grantsDataDirty.Value(),
		ProbesSent:        c.ctr.probesSent.Value(),
		Evictions:         c.ctr.evictions.Value(),
		MemReads:          c.ctr.memReads.Value(),
		MemWrites:         c.ctr.memWrites.Value(),
		VoluntaryReleases: c.ctr.voluntaryReleases.Value(),
		LinkBackpressureB: c.ctr.linkBackpressureB.Value(),
		LinkBackpressureD: c.ctr.linkBackpressureD.Value(),
		ListBufferStalls:  c.ctr.listBufferStalls.Value(),
		MSHRFullDefers:    c.ctr.mshrFullDefers.Value(),
	}
}

// SetRecorder attaches the cache's event stream handle (nil records
// nothing).
func (c *Cache) SetRecorder(r *trace.Rec) { c.rec = r }

func (c *Cache) index(addr uint64) int {
	return int((addr / c.cfg.LineBytes) % uint64(c.cfg.Sets))
}

func (c *Cache) tag(addr uint64) uint64 {
	return addr / c.cfg.LineBytes / uint64(c.cfg.Sets)
}

func (c *Cache) addrOf(set int, tag uint64) uint64 {
	return (tag*uint64(c.cfg.Sets) + uint64(set)) * c.cfg.LineBytes
}

// lookup returns the frame holding addr, or nil. It makes no slab.
func (c *Cache) lookup(addr uint64) *line {
	set := c.index(addr)
	tag := c.tag(addr)
	for w := 0; w < c.cfg.Ways; w++ {
		if l := c.frameAt(set, w); l != nil && l.valid && l.tag == tag {
			return l
		}
	}
	return nil
}

// LineState snapshots the directory state of addr's line for tests and the
// system-wide invariant checker.
func (c *Cache) LineState(addr uint64) LineState {
	l := c.lookup(addr &^ (c.cfg.LineBytes - 1))
	if l == nil {
		return LineState{}
	}
	perms := make([]tilelink.Perm, c.cfg.NumClients)
	copy(perms, c.permsOf(l))
	return LineState{Present: true, Dirty: l.dirty, Perms: perms}
}

// PeekLine returns the line's data if present in L2.
func (c *Cache) PeekLine(addr uint64) (tilelink.Line, bool) {
	l := c.lookup(addr &^ (c.cfg.LineBytes - 1))
	if l == nil {
		return tilelink.Line{}, false
	}
	return *c.dataOf(l), true
}

// Busy reports whether any MSHR is active or any request is buffered; used
// by the system drain loop.
func (c *Cache) Busy() bool {
	if len(c.listBuffer) > 0 || c.busy != 0 {
		return true
	}
	for cl := 0; cl < c.cfg.NumClients; cl++ {
		if len(c.outB[cl]) > 0 || len(c.outD[cl]) > 0 {
			return true
		}
	}
	return false
}

// BusyMSHRs returns the busy mask: bit i is set while MSHR i holds a
// transaction.
func (c *Cache) BusyMSHRs() uint64 { return c.busy }

// CountBusyMSHRs rebuilds the busy mask from the MSHR states, for the
// invariant checker to hold BusyMSHRs against.
func (c *Cache) CountBusyMSHRs() uint64 {
	var mask uint64
	for i := range c.mshrs {
		if c.mshrs[i].state != msFree {
			mask |= 1 << i
		}
	}
	return mask
}

// CheckBusyLines holds the busy-line table that lineBusy and mshrFor read
// against the MSHRs, for the invariant checker.
func (c *Cache) CheckBusyLines() error {
	if c.evicting&^c.busy != 0 {
		return fmt.Errorf("evicting mask %#x marks free MSHRs (busy %#x)", c.evicting, c.busy)
	}
	for i := c.nextBusy(0); i >= 0; i = c.nextBusy(i + 1) {
		m := &c.mshrs[i]
		if c.lines[i].addr != m.addr {
			return fmt.Errorf("mshr %d holds %#x, its busy line says %#x", i, m.addr, c.lines[i].addr)
		}
		evicting := m.state == msEvictProbe || m.state == msEvictMemWrite
		if got := c.evicting&(1<<i) != 0; got != evicting {
			return fmt.Errorf("mshr %d in state %d, evicting bit %v", i, m.state, got)
		}
		if evicting {
			v := c.frame(m.victimSet, m.victimWay)
			if victim := c.addrOf(m.victimSet, v.tag); !v.valid || c.lines[i].victim != victim {
				return fmt.Errorf("mshr %d evicts %#x (valid %v), its busy victim says %#x", i, victim, v.valid, c.lines[i].victim)
			}
		}
	}
	return nil
}

// NextEvent returns the earliest cycle after now at which the cache can
// change state without an incoming message: staged SourceB/SourceD messages
// drain every cycle, buffered requests retry once their tag-pipeline delay
// elapses, and MSHRs act every cycle except in the states where they purely
// wait on a link delivery (probe/grant acknowledgements) or a memory
// completion — both covered by the links' and controller's own NextEvent.
//
//skipit:hotpath
func (c *Cache) NextEvent(now int64) int64 {
	next := tilelink.NoEvent
	for cl := 0; cl < c.cfg.NumClients; cl++ {
		if len(c.outB[cl]) > 0 || len(c.outD[cl]) > 0 {
			return now + 1
		}
	}
	for i := range c.listBuffer {
		r := c.listBuffer[i].readyAt
		if r <= now {
			return now + 1
		}
		if r < next {
			next = r
		}
	}
	for i := c.nextBusy(0); i >= 0; i = c.nextBusy(i + 1) {
		switch m := &c.mshrs[i]; m.state {
		case msEvictProbe, msProbe, msGrant:
			// waiting on a C/E-channel delivery; the link reports it
		case msEvictMemWrite, msMemRead, msMemWrite:
			if !m.memSubmitted {
				return now + 1 // resubmitting to the controller every cycle
			}
			// waiting on the controller; mem.NextEvent reports it
		default: // msStart, msFinish act on the next tick
			return now + 1
		}
	}
	return next
}

// Reset clears all volatile state (simulated crash). Data rows keep their
// bytes: every frame is invalid, and a refill overwrites its row.
func (c *Cache) Reset() {
	for _, slab := range c.frames {
		if slab == nil {
			continue
		}
		for i := range slab.lines {
			l := &slab.lines[i]
			l.valid = false
			l.dirty = false
			l.reserved = false
		}
		clear(slab.perms)
	}
	for i := range c.mshrs {
		c.mshrs[i] = mshr{}
	}
	c.busy = 0
	c.evicting = 0
	clear(c.lines)
	c.listBuffer = c.listBuffer[:0]
	c.poisoned = nil
	for cl := range c.outB {
		c.outB[cl] = nil
		c.outD[cl] = nil
	}
}
