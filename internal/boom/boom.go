// Package boom models the SonicBOOM core at the level that matters for the
// paper's evaluation: the re-order buffer's in-order commit illusion (§3.1)
// and the load-store unit's firing rules (§3.2) —
//
//   - loads fire out of order as soon as they are ready, up to two memory
//     requests per cycle;
//   - stores, CBO.X and fences live in the STQ; an STQ request fires only
//     when the ROB head points at it, so STQ requests execute in program
//     order;
//   - loads forward from older STQ stores to the same word and are held
//     behind older unfinished fences and same-line CBO.X requests (§5.3);
//   - a fence completes only when every older memory operation is done and
//     the data cache's flushing signal is low (§5.3);
//   - a nacked request is retried after a short delay (§3.3).
//
// Fetch, decode, rename and the FU pipelines are abstracted away: the §7
// microbenchmarks measure memory-system latency, which these rules define.
package boom

import (
	"fmt"

	"skipit/internal/isa"
	"skipit/internal/l1"
	"skipit/internal/metrics"
	"skipit/internal/tilelink"
)

// Config sets the core's queue sizes and widths to SonicBOOM-like values.
type Config struct {
	ROBEntries    int
	LDQEntries    int
	STQEntries    int
	DispatchWidth int
	CommitWidth   int
	MemWidth      int // LSU fire width (§3.2: two per cycle)
	RetryDelay    int // cycles before re-firing after a nack
	// Metrics is the registry the core registers its counters with, under
	// the instance name "core[id]". Nil gets a private registry.
	Metrics *metrics.Registry
}

// DefaultConfig mirrors the SonicBOOM MediumBoom-class configuration used
// on the paper's FPGA platform.
func DefaultConfig() Config {
	return Config{
		ROBEntries:    64,
		LDQEntries:    32,
		STQEntries:    32,
		DispatchWidth: 2,
		CommitWidth:   2,
		MemWidth:      2,
		RetryDelay:    6,
	}
}

// Timing records one instruction's lifecycle; -1 marks events that have not
// happened. Benches derive all figure measurements from these.
type Timing struct {
	DispatchedAt int64
	IssuedAt     int64
	CompletedAt  int64
	CommittedAt  int64
	LoadValue    uint64
	Nacks        int
}

type entryState uint8

const (
	esWaiting entryState = iota
	esIssued
	esDone
)

// entry is one in-flight instruction: a ROB slot plus its LDQ/STQ view.
type entry struct {
	instrIdx  int
	instr     isa.Instr
	state     entryState
	nextTryAt int64
	reqID     int
	// stalling latches once a ROB-head fence has counted its first
	// drain-stall cycle; from then on tryCompleteFence attributes every
	// elapsed cycle — including fast-forwarded ones — to the stall counter.
	stalling bool
}

// coreCounters holds the core's registry-backed instruments.
type coreCounters struct {
	committed *metrics.Counter
	// fenceDrainStalls counts cycles the ROB-head fence waited for the
	// flush unit to drain (§5.3 fence gating).
	fenceDrainStalls *metrics.Counter
	// nackRetries counts data-cache nacks absorbed by the LSU replay logic.
	nackRetries  *metrics.Counter
	robOccupancy *metrics.Gauge
}

func newCoreCounters(reg *metrics.Registry, name string) coreCounters {
	return coreCounters{
		committed:        reg.Counter(name, "committed"),
		fenceDrainStalls: reg.Counter(name, "fence_drain_stall_cycles"),
		nackRetries:      reg.Counter(name, "nack_retries"),
		robOccupancy:     reg.Gauge(name, "rob_occupancy"),
	}
}

// Core drives one program through one L1 data cache.
type Core struct {
	cfg Config
	id  int
	dc  *l1.DCache
	ctr coreCounters

	prog    *isa.Program
	timings []Timing

	pc       int
	rob      []*entry // FIFO; index 0 is the ROB head
	ldqCount int
	stqCount int

	nextReqID int
	// inflight holds the entries with an outstanding data cache request,
	// looked up by reqID. Its size is bounded by the LSU fire width times
	// the cache latency, so a linear scan beats a map — and unlike a map it
	// never allocates in steady state.
	inflight []*entry

	// freeEntries recycles retired ROB entry structs so steady-state
	// dispatch does not allocate.
	freeEntries []*entry

	// prevTick is the cycle of the previous Tick. With the fast-forward
	// clock the gap to the current tick can exceed one cycle; the skipped
	// cycles are provably state-frozen, so per-cycle stall counters add the
	// whole gap at once to stay identical to single-stepping.
	prevTick int64

	done bool
}

// New builds a core over its private data cache.
func New(cfg Config, id int, dc *l1.DCache) *Core {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	name := fmt.Sprintf("core[%d]", id)
	return &Core{cfg: cfg, id: id, dc: dc, ctr: newCoreCounters(reg, name)}
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// DCache returns the core's L1.
func (c *Core) DCache() *l1.DCache { return c.dc }

// SetProgram loads a program and resets execution state.
func (c *Core) SetProgram(p *isa.Program) {
	c.prog = p
	c.timings = make([]Timing, p.Len())
	for i := range c.timings {
		c.timings[i] = Timing{DispatchedAt: -1, IssuedAt: -1, CompletedAt: -1, CommittedAt: -1}
	}
	c.pc = 0
	c.rob = c.rob[:0]
	c.ldqCount = 0
	c.stqCount = 0
	c.inflight = c.inflight[:0]
	c.prevTick = -1
	c.done = p.Len() == 0
}

// Done reports whether every instruction has committed.
func (c *Core) Done() bool { return c.done }

// Timings returns the per-instruction records (valid once Done).
func (c *Core) Timings() []Timing { return c.timings }

// Timing returns the record for instruction idx.
func (c *Core) Timing(idx int) Timing { return c.timings[idx] }

// Tick advances the core one cycle: absorb data cache responses, dispatch,
// issue, and commit.
func (c *Core) Tick(now int64) {
	if c.done || c.prog == nil {
		return
	}
	c.pollResponses(now)
	c.dispatch(now)
	c.issue(now)
	c.commit(now)
	c.ctr.robOccupancy.Set(int64(len(c.rob)))
	c.prevTick = now
}

func (c *Core) pollResponses(now int64) {
	for _, resp := range c.dc.PollResponses(now) {
		e := c.takeInflight(resp.ID)
		if e == nil {
			panic(fmt.Sprintf("boom[%d]: response for unknown request %d", c.id, resp.ID))
		}
		t := &c.timings[e.instrIdx]
		if resp.Nack {
			t.Nacks++
			c.ctr.nackRetries.Inc()
			e.state = esWaiting
			e.nextTryAt = now + int64(c.cfg.RetryDelay)
			continue
		}
		e.state = esDone
		t.CompletedAt = now
		switch e.instr.Op {
		case isa.OpLoad, isa.OpAmoAdd, isa.OpAmoSwap:
			t.LoadValue = resp.Data // AMOs report the old value
		}
	}
}

// takeInflight removes and returns the entry owning request id, or nil.
func (c *Core) takeInflight(id int) *entry {
	for i, e := range c.inflight {
		if e.reqID == id {
			last := len(c.inflight) - 1
			c.inflight[i] = c.inflight[last]
			c.inflight[last] = nil
			c.inflight = c.inflight[:last]
			return e
		}
	}
	return nil
}

// newEntry pops a recycled ROB entry from the free list, or allocates one.
func (c *Core) newEntry() *entry {
	n := len(c.freeEntries)
	if n == 0 {
		return &entry{} //skipit:ignore hotalloc free-list miss allocates only during warmup; steady state recycles retired entries
	}
	e := c.freeEntries[n-1]
	c.freeEntries[n-1] = nil
	c.freeEntries = c.freeEntries[:n-1]
	*e = entry{}
	return e
}

func (c *Core) dispatch(now int64) {
	for n := 0; n < c.cfg.DispatchWidth && c.pc < c.prog.Len(); n++ {
		if len(c.rob) >= c.cfg.ROBEntries {
			return
		}
		in := c.prog.Instrs[c.pc]
		switch {
		case in.Op == isa.OpLoad:
			if c.ldqCount >= c.cfg.LDQEntries {
				return
			}
			c.ldqCount++
		case in.Op.IsStoreQueue():
			if c.stqCount >= c.cfg.STQEntries {
				return
			}
			c.stqCount++
		}
		e := c.newEntry()
		e.instrIdx = c.pc
		e.instr = in
		if in.Op == isa.OpNop {
			e.state = esDone
			c.timings[c.pc].CompletedAt = now
		}
		c.timings[c.pc].DispatchedAt = now
		c.rob = append(c.rob, e) //skipit:ignore hotalloc ROB is capacity-bounded by cfg.ROBEntries; append reuses its backing after warmup
		c.pc++
	}
}

// issue fires ready requests into the data cache: any number of ready loads
// plus the in-order STQ head, bounded by MemWidth and the cache's accept
// width.
func (c *Core) issue(now int64) {
	fired := 0

	// The oldest unfinished STQ entry fires only from the ROB head
	// position: every older instruction must already be done (§3.2).
	if e := c.stqHead(); e != nil {
		switch {
		case e.instr.Op == isa.OpFence:
			c.tryCompleteFence(now, e)
		case e.state == esWaiting && now >= e.nextTryAt:
			if c.fire(now, e) {
				fired++
			}
		}
	}

	for _, e := range c.rob {
		if fired >= c.cfg.MemWidth {
			return
		}
		if e.instr.Op != isa.OpLoad || e.state != esWaiting || now < e.nextTryAt {
			continue
		}
		if v, forwarded, blocked := c.loadForward(e); blocked {
			continue
		} else if forwarded {
			e.state = esDone
			c.timings[e.instrIdx].CompletedAt = now
			c.timings[e.instrIdx].LoadValue = v
			continue
		}
		if c.fire(now, e) {
			fired++
		}
	}
}

// stqHead returns the oldest unfinished STQ entry provided every older
// instruction is done — i.e. the ROB head effectively points at it (§3.2).
func (c *Core) stqHead() *entry {
	for _, e := range c.rob {
		if e.state == esDone {
			continue
		}
		if e.instr.Op.IsStoreQueue() {
			return e
		}
		return nil // an older load is still in flight
	}
	return nil
}

// tryCompleteFence completes a fence when all older work is done (implied by
// ROB-head position) and no CBO.X is pending in the flush unit (§5.3).
//
// Drain-stall accounting is fast-forward aware: once a fence has latched its
// first stall cycle, no new request can reach the flush unit (nothing younger
// fires past a waiting fence), so any cycles the clock skipped since the
// previous tick were provably identical stalls and are attributed in bulk —
// the counter matches single-stepping exactly.
func (c *Core) tryCompleteFence(now int64, e *entry) {
	delta := uint64(now - c.prevTick) // 1 unless cycles were fast-forwarded
	if c.dc.Flushing() {
		if e.stalling {
			c.ctr.fenceDrainStalls.Add(delta)
		} else {
			e.stalling = true
			c.ctr.fenceDrainStalls.Inc()
		}
		return
	}
	if e.stalling {
		// The drain finished during the cycle now being ticked; cycles
		// skipped since the previous tick were still stalls.
		c.ctr.fenceDrainStalls.Add(delta - 1)
	}
	e.state = esDone
	c.timings[e.instrIdx].CompletedAt = now
	if c.timings[e.instrIdx].IssuedAt < 0 {
		c.timings[e.instrIdx].IssuedAt = now
	}
}

// loadForward checks the older STQ entries for the §3.2 forwarding and
// dependency rules. It returns the forwarded value, whether forwarding
// happened, and whether the load is blocked.
func (c *Core) loadForward(e *entry) (val uint64, forwarded, blocked bool) {
	wordAddr := e.instr.Addr &^ 7
	lineAddr := e.instr.Addr &^ (c.dc.Config().LineBytes - 1)
	var fwd *entry
	for _, o := range c.rob {
		if o == e {
			break
		}
		if !o.instr.Op.IsStoreQueue() {
			continue
		}
		switch o.instr.Op {
		case isa.OpFence:
			if o.state != esDone {
				return 0, false, true
			}
		case isa.OpStore:
			if o.instr.Addr&^7 == wordAddr {
				fwd = o
			}
		case isa.OpAmoAdd, isa.OpAmoSwap:
			// The value an AMO leaves behind is unknown until it
			// executes; a younger load to the same word must wait
			// and then read the cache.
			if o.instr.Addr&^7 == wordAddr {
				if o.state != esDone {
					return 0, false, true
				}
				fwd = nil // read the post-AMO value from the cache
			}
		case isa.OpCboClean, isa.OpCboFlush:
			// §5.3: loads dependent on a CBO.X proceed only after
			// it is buffered (done).
			if o.state != esDone && o.instr.Addr&^(c.dc.Config().LineBytes-1) == lineAddr {
				return 0, false, true
			}
		}
	}
	if fwd != nil {
		return fwd.instr.Data, true, false
	}
	return 0, false, false
}

// fire submits a request to the data cache.
func (c *Core) fire(now int64, e *entry) bool {
	kind := l1.Load
	switch e.instr.Op {
	case isa.OpStore:
		kind = l1.Store
	case isa.OpCboClean:
		kind = l1.CboClean
	case isa.OpCboFlush:
		kind = l1.CboFlush
	case isa.OpCflushDL1:
		kind = l1.CflushDL1
	case isa.OpAmoAdd:
		kind = l1.AmoAdd
	case isa.OpAmoSwap:
		kind = l1.AmoSwap
	}
	req := l1.Req{ID: c.nextReqID, Kind: kind, Addr: e.instr.Addr, Data: e.instr.Data}
	if !c.dc.Submit(now, req) {
		return false
	}
	c.nextReqID++
	e.reqID = req.ID
	c.inflight = append(c.inflight, e) //skipit:ignore hotalloc inflight is bounded by the ROB size; append reuses its backing after warmup
	e.state = esIssued
	if c.timings[e.instrIdx].IssuedAt < 0 {
		c.timings[e.instrIdx].IssuedAt = now
	}
	return true
}

// NextEvent reports the earliest future cycle at which the core can change
// state without external input, for the fast-forward clock. Conservative
// (earlier) answers are always safe; the rules below return now+1 for every
// state in which the core acts each cycle, and a concrete wake-up time for
// pure timer waits (nack retries). Entries waiting on the data cache are
// covered by the cache's own NextEvent (its response queue readyAt is the
// event), entries blocked behind older instructions by the events that
// retire those instructions, and a fence stalling on the flush-unit drain by
// the flush unit's (and memory's) own events — tryCompleteFence attributes
// the skipped stall cycles in bulk.
//
//skipit:hotpath
func (c *Core) NextEvent(now int64) int64 {
	if c.done || c.prog == nil {
		return tilelink.NoEvent
	}
	// Anything dispatchable keeps the front end active every cycle.
	if c.pc < c.prog.Len() && len(c.rob) < c.cfg.ROBEntries {
		in := c.prog.Instrs[c.pc]
		roomOK := true
		switch {
		case in.Op == isa.OpLoad:
			roomOK = c.ldqCount < c.cfg.LDQEntries
		case in.Op.IsStoreQueue():
			roomOK = c.stqCount < c.cfg.STQEntries
		}
		if roomOK {
			return now + 1
		}
	}
	if len(c.rob) > 0 && c.rob[0].state == esDone {
		return now + 1 // commit retires from the head next cycle
	}
	next := tilelink.NoEvent
	head := c.stqHead()
	for _, e := range c.rob {
		switch e.state {
		case esIssued:
			// Waiting on the data cache; the cache reports that event.
		case esDone:
			// Inert unless at the ROB head (checked above).
		case esWaiting:
			if e.instr.Op == isa.OpFence {
				if e != head {
					// Gated until every older instruction retires; the
					// events completing those cover the wake-up.
					continue
				}
				if e.stalling && c.dc.Flushing() {
					// Stalling on the drain. Nothing younger can feed the
					// flush unit past a waiting fence, so the stall ends
					// only on a flush-unit/memory event; tryCompleteFence
					// bulk-counts the cycles in between.
					continue
				}
				// Completes, or latches its first stall count, next cycle.
				return now + 1
			}
			if e.nextTryAt > now {
				if e.nextTryAt < next {
					next = e.nextTryAt
				}
				continue
			}
			if e == head {
				return now + 1 // the STQ head fires next cycle
			}
			if e.instr.Op == isa.OpLoad {
				if _, _, blocked := c.loadForward(e); !blocked {
					return now + 1 // fires (or forwards) next cycle
				}
				// Blocked by an older fence/AMO/CBO (§3.2); only that
				// entry's completion unblocks it, and the events driving
				// that completion are reported elsewhere.
				continue
			}
			// A ready store/AMO/CBO behind the STQ head fires only once
			// every older instruction is done; those events cover it.
		}
	}
	return next
}

// Committed returns the number of retired instructions; the watchdog reads
// it as the core's forward-progress signal.
func (c *Core) Committed() uint64 { return c.ctr.committed.Value() }

// CoreDebug snapshots the core's ROB/LSU state for hang reports.
type CoreDebug struct {
	Done      bool   `json:"done"`
	PC        int    `json:"pc"`
	ROB       int    `json:"rob"`
	ROBHead   string `json:"rob_head,omitempty"`
	LDQ       int    `json:"ldq"`
	STQ       int    `json:"stq"`
	Inflight  int    `json:"inflight"`
	Committed uint64 `json:"committed"`
}

// Debug returns the core's state snapshot.
func (c *Core) Debug() CoreDebug {
	dbg := CoreDebug{
		Done:      c.done,
		PC:        c.pc,
		ROB:       len(c.rob),
		LDQ:       c.ldqCount,
		STQ:       c.stqCount,
		Inflight:  len(c.inflight),
		Committed: c.ctr.committed.Value(),
	}
	if len(c.rob) > 0 {
		e := c.rob[0]
		dbg.ROBHead = fmt.Sprintf("%v addr=%#x state=%d idx=%d", e.instr.Op, e.instr.Addr, e.state, e.instrIdx)
	}
	return dbg
}

// commit retires done instructions from the ROB head, in order.
func (c *Core) commit(now int64) {
	for n := 0; n < c.cfg.CommitWidth && len(c.rob) > 0; n++ {
		e := c.rob[0]
		if e.state != esDone {
			return
		}
		c.timings[e.instrIdx].CommittedAt = now
		c.ctr.committed.Inc()
		switch {
		case e.instr.Op == isa.OpLoad:
			c.ldqCount--
		case e.instr.Op.IsStoreQueue():
			c.stqCount--
		}
		copy(c.rob, c.rob[1:])
		c.rob[len(c.rob)-1] = nil
		c.rob = c.rob[:len(c.rob)-1]
		// Retired entries are never referenced again (inflight only holds
		// issued, not-yet-done entries); recycle the struct.
		c.freeEntries = append(c.freeEntries, e) //skipit:ignore hotalloc entry free list is bounded by the ROB size; append reuses its backing after warmup
		if c.pc >= c.prog.Len() && len(c.rob) == 0 {
			c.done = true
			return
		}
	}
}
