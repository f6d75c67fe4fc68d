package l2

import (
	"skipit/internal/tilelink"
	"skipit/internal/trace"
)

// Chaos is the fault-injection hook the L2 consults when armed. Both methods
// must be pure functions of the current cycle and the injector's schedule, so
// replays are bit-identical.
type Chaos interface {
	// MSHRQuota returns the number of MSHRs usable at cycle now; negative
	// means unlimited. In-flight transactions are never cancelled.
	MSHRQuota(now int64) int
	// ListBufferQuota returns the usable ListBuffer depth at cycle now;
	// negative means the configured depth. A squeeze back-pressures TL-A
	// and TL-C ingestion exactly like a full buffer.
	ListBufferQuota(now int64) int
}

// SetChaos installs (or, with nil, removes) the fault-injection hook.
func (c *Cache) SetChaos(ch Chaos) { c.chaos = ch }

// listBufferLimit is the effective ListBuffer depth at cycle now.
func (c *Cache) listBufferLimit(now int64) int {
	limit := c.cfg.ListBufferDepth
	if c.chaos != nil {
		if q := c.chaos.ListBufferQuota(now); q >= 0 && q < limit {
			limit = q
		}
	}
	return limit
}

// FlipOutcome classifies an attempted ECC-style bit flip; it mirrors the L1's
// l1.FlipOutcome encoding.
type FlipOutcome uint8

const (
	FlipMiss FlipOutcome = iota
	FlipBlocked
	FlipDirtyUnrecoverable
	FlipApplied
)

func (o FlipOutcome) String() string {
	return [...]string{"miss", "blocked", "dirty-unrecoverable", "applied"}[o]
}

// InjectBitFlip models a transient ECC-scale upset on the L2 frame holding
// addr. Only clean, transaction-free lines are corrupted: a clean inclusive
// L2 line is by definition identical to the DRAM copy, so detection at the
// next data read (grant time) recovers by refetching the backing store. A
// dirty line is the sole copy; a flip there is flagged unrecoverable and not
// applied.
func (c *Cache) InjectBitFlip(addr uint64, bit uint64) FlipOutcome {
	lineAddr := addr &^ (c.cfg.LineBytes - 1)
	l := c.lookup(lineAddr)
	if l == nil {
		return FlipMiss
	}
	if l.dirty {
		c.ctr.eccDirtyUnrec.Inc()
		return FlipDirtyUnrecoverable
	}
	if c.lineBusy(lineAddr) || l.reserved {
		return FlipBlocked
	}
	bit %= c.cfg.LineBytes * 8
	c.dataOf(l)[bit/8] ^= 1 << (bit % 8)
	if c.poisoned == nil {
		c.poisoned = make(map[uint64]struct{})
	}
	c.poisoned[lineAddr] = struct{}{}
	c.ctr.eccFlips.Inc()
	return FlipApplied
}

// eccRestore is the detection half of the L2 ECC model, called before the
// only read of clean line data (grant construction): a poisoned line is
// restored from the durable DRAM copy, modeling detection plus refetch. The
// restore is timing-free — the grant still pays its ordinary latency — which
// keeps recovery observable through the counter without perturbing the
// protocol.
func (c *Cache) eccRestore(now int64, l *line, addr uint64) {
	if len(c.poisoned) == 0 {
		return
	}
	if _, bad := c.poisoned[addr]; !bad {
		return
	}
	*c.dataOf(l) = c.mem.PeekLine(addr)
	delete(c.poisoned, addr)
	c.ctr.refetchRecoveries.Inc()
	c.rec.Record(now, trace.RecECCRestore, trace.CauseNone, 0, addr, 0)
}

// clearPoison drops the poison mark when the frame's data is wholly replaced
// or the line leaves the cache.
func (c *Cache) clearPoison(addr uint64) {
	if len(c.poisoned) != 0 {
		delete(c.poisoned, addr&^(c.cfg.LineBytes-1))
	}
}

// --- test-only state pokers (invariant mutation tests) ---

// PokeDrop force-invalidates the L2 frame holding addr without probing
// clients, seeding an inclusion violation. Reports whether a line was
// resident.
func (c *Cache) PokeDrop(addr uint64) bool {
	l := c.lookup(addr &^ (c.cfg.LineBytes - 1))
	if l == nil {
		return false
	}
	l.valid = false
	return true
}

// PokePerm force-writes one directory entry, bypassing the protocol.
func (c *Cache) PokePerm(addr uint64, client int, p tilelink.Perm) bool {
	l := c.lookup(addr &^ (c.cfg.LineBytes - 1))
	if l == nil {
		return false
	}
	c.permsOf(l)[client] = p
	return true
}

// PokeDropRootReleaseRaceData arms a test-only mutation that reverts the
// RootRelease-vs-eviction race fix: dirty RootRelease data arriving for a
// concurrently evicted line is dropped instead of captured for the MSHR's
// DRAM write-through. The acknowledgement then promises durability for data
// that never reached DRAM — the tlctest scoreboard's durability check must
// catch it.
func (c *Cache) PokeDropRootReleaseRaceData(on bool) { c.bugDropRaceWB = on }

// PokeBusyMSHRs flips the busy-mask bits set in flip, bypassing the MSHRs.
// Test-only: it exists so invariant-checker tests can seed a busy mask that
// disagrees with the MSHR states.
func (c *Cache) PokeBusyMSHRs(flip uint64) { c.busy ^= flip }

// PokeEvicting flips the evicting-mask bits set in flip, bypassing the
// MSHRs. Test-only, like PokeBusyMSHRs.
func (c *Cache) PokeEvicting(flip uint64) { c.evicting ^= flip }

// PokeDirty force-writes the dirty bit, bypassing the protocol.
func (c *Cache) PokeDirty(addr uint64, dirty bool) bool {
	l := c.lookup(addr &^ (c.cfg.LineBytes - 1))
	if l == nil {
		return false
	}
	l.dirty = dirty
	return true
}

func (s msState) String() string {
	return [...]string{
		"free", "start", "evict_probe", "evict_mem_write", "mem_read",
		"probe", "mem_write", "grant", "finish",
	}[s]
}

// MSHRDebug is the JSON-friendly view of one L2 MSHR, for hang reports.
type MSHRDebug struct {
	State         string `json:"state"`
	Addr          uint64 `json:"addr"`
	Client        int    `json:"client"`
	PendingProbes int    `json:"pending_probes"`
}

// CacheDebug snapshots the L2's transactional state for hang reports.
type CacheDebug struct {
	MSHRs      []MSHRDebug `json:"mshrs"`
	ListBuffer int         `json:"list_buffer"`
	StagedB    []int       `json:"staged_b"`
	StagedD    []int       `json:"staged_d"`
}

// Debug returns the cache's transactional state snapshot.
func (c *Cache) Debug() CacheDebug {
	dbg := CacheDebug{ListBuffer: len(c.listBuffer)}
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if m.state == msFree {
			continue
		}
		dbg.MSHRs = append(dbg.MSHRs, MSHRDebug{
			State: m.state.String(), Addr: m.addr, Client: m.client, PendingProbes: m.pendingProbes,
		})
	}
	for cl := 0; cl < c.cfg.NumClients; cl++ {
		dbg.StagedB = append(dbg.StagedB, len(c.outB[cl]))
		dbg.StagedD = append(dbg.StagedD, len(c.outD[cl]))
	}
	return dbg
}
