package tlctest

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"skipit/internal/detrand"
	"skipit/internal/metrics"
	"skipit/internal/tilelink"
	"skipit/internal/trace"
)

// OpKind names one scripted agent operation.
type OpKind string

const (
	OpAcquireB OpKind = "acquire-b" // acquire read permission (Branch)
	OpAcquireT OpKind = "acquire-t" // acquire write permission (Trunk)
	OpWrite    OpKind = "write"     // local write; acquires Trunk first if needed
	OpReleaseB OpKind = "release-b" // voluntary downgrade to Branch
	OpReleaseN OpKind = "release-n" // voluntary downgrade to None
	OpFlush    OpKind = "flush"     // RootReleaseFlush: invalidate locally, push to DRAM
	OpClean    OpKind = "clean"     // RootReleaseClean: keep permission, push to DRAM
	OpIdle     OpKind = "idle"      // sit out Delay cycles
)

// Op is one scripted agent operation. Addr indexes the episode's address
// universe (Script.Addrs), not a raw byte address, so scripts stay readable
// and the shrinker can drop ops without invalidating others.
type Op struct {
	Agent int    `json:"agent"`
	Kind  OpKind `json:"kind"`
	Addr  int    `json:"addr"`
	Val   uint64 `json:"val,omitempty"`    // write payload
	Delay int64  `json:"delay,omitempty"`  // idle cycles before dispatch
	HoldC int64  `json:"hold_c,omitempty"` // flush/clean: gap between local invalidate and queueing the RootRelease
}

// Bug holds the deliberate protocol-discipline mutations an episode can
// enable to prove the scoreboard catches the races the discipline prevents.
type Bug struct {
	// AcquireWhileReleasePending drops the rule that an Acquire for a block
	// must wait for that block's outstanding voluntary Release to be
	// acknowledged — the L1 race fixed in the nonblocking-miss PR. Without
	// the rule the L2 may grant stale data and then deregister a live copy.
	AcquireWhileReleasePending bool `json:"acquire_while_release_pending,omitempty"`

	// ProbeDuringFlushHold drops the §5.4.1 flush_rdy discipline: probes for
	// a block whose RootRelease is committed locally but not yet on the C
	// wire are answered from the already-invalidated state instead of being
	// deferred. The probe response then overtakes the held RootRelease, the
	// L2 evicts the line on the NtoN answer, and the flush data later
	// arrives for an absent line — the RootRelease-vs-eviction race the L2's
	// write-through branch exists to absorb.
	ProbeDuringFlushHold bool `json:"probe_during_flush_hold,omitempty"`
}

// agentBlock is an agent's local view of one address.
type agentBlock struct {
	addr  uint64
	perm  tilelink.Perm
	dirty bool
	val   uint64

	grantPending bool
	grantGrow    tilelink.Grow
	relPending   bool // voluntary Release issued, ack outstanding
	relSent      bool // ...and the message has actually left on C
	flushPending bool // RootRelease committed locally, ack outstanding
	flushSent    bool // ...and the message has actually left on C
}

// outMsg is a queued outbound message: readyAt models the agent's internal
// pipeline delay before the message reaches the channel arbiter.
type outMsg struct {
	msg     tilelink.Msg
	readyAt int64
	release bool // voluntary Release*: mark relSent when it leaves
	rootrel bool // RootRelease*: mark flushSent when it leaves
	blk     int
}

// deferredProbe is a received Probe awaiting its response.
type deferredProbe struct {
	blk     int
	cap     tilelink.Cap
	txn     uint64
	readyAt int64
}

type agentPhase uint8

const (
	phDispatch agentPhase = iota // waiting to issue the current op
	phAwaitGrant
	phAwaitRelAck
	phHold // flush/clean local half done, HoldC window before queueing
	phAwaitFlushAck
)

// agentCounters aggregates traffic counters across all agents of an episode
// under the "tlc" metrics instance (the registry dedupes keys, so every
// agent shares the same counters).
type agentCounters struct {
	acquires *metrics.Counter
	grants   *metrics.Counter
	writes   *metrics.Counter
	releases *metrics.Counter
	flushes  *metrics.Counter
	probes   *metrics.Counter
}

func newAgentCounters(reg *metrics.Registry) agentCounters {
	return agentCounters{
		acquires: reg.Counter("tlc", "acquires"),
		grants:   reg.Counter("tlc", "grants"),
		writes:   reg.Counter("tlc", "writes"),
		releases: reg.Counter("tlc", "releases"),
		flushes:  reg.Counter("tlc", "flushes"),
		probes:   reg.Counter("tlc", "probes_answered"),
	}
}

// AgentConfig wires one agent to its port and the episode-shared machinery.
type AgentConfig struct {
	ID         int
	Port       *tilelink.ClientPort
	Addrs      []uint64
	Ops        []Op // this agent's ops only, in program order
	Seed       int64
	Scoreboard *Scoreboard
	Txns       *trace.TxnSeq
	Bug        Bug
	// MemPeek reads the current DRAM value of an address, for the §5.5
	// durability check at RootReleaseAck time.
	MemPeek func(addr uint64) uint64
	Metrics *metrics.Registry
}

// Agent is a protocol-level TileLink master: it owns the client side of one
// ClientPort, executes its scripted ops one at a time, and reacts to probes
// at all times (even after its script is exhausted). All nondeterminism is
// drawn from a detrand child seed, so an episode replays byte-identically.
//
// The C channel is modelled as hardware models it: two internal queues — a
// high-priority one for probe responses and a low-priority one for voluntary
// Releases and RootReleases — feeding one arbiter. A probe response may
// overtake queued voluntary traffic for *other* blocks; for the probed block
// itself the §5.4.1 flush_rdy / wb_rdy discipline holds the response back
// until that block's pending Release or RootRelease is on the wire, so
// per-channel FIFO delivers the release data to the L2 first. The Bug knobs
// selectively revert those disciplines to make the PR 3 races reachable.
// Once a message is on the link, FIFO order is preserved.
type Agent struct {
	id     int
	name   string
	port   *tilelink.ClientPort
	blocks []agentBlock

	ops     []Op
	opIdx   int
	phase   agentPhase
	startAt int64 // earliest dispatch cycle of the current op

	holdMsg   tilelink.Msg
	holdBlk   int
	holdUntil int64

	pendingWrite bool
	writeVal     uint64

	rng     *rand.Rand
	sb      *Scoreboard
	txns    *trace.TxnSeq
	bug     Bug
	memPeek func(uint64) uint64
	ctr     agentCounters

	outA      []outMsg
	outCProbe []outMsg
	outCReq   []outMsg
	outE      []outMsg
	probes    []deferredProbe
}

// NewAgent builds an agent from its config. It implements sim.Client.
func NewAgent(cfg AgentConfig) *Agent {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	a := &Agent{
		id:      cfg.ID,
		name:    fmt.Sprintf("tlc%d", cfg.ID),
		port:    cfg.Port,
		ops:     cfg.Ops,
		rng:     detrand.New(cfg.Seed),
		sb:      cfg.Scoreboard,
		txns:    cfg.Txns,
		bug:     cfg.Bug,
		memPeek: cfg.MemPeek,
		ctr:     newAgentCounters(cfg.Metrics),
	}
	for _, addr := range cfg.Addrs {
		a.blocks = append(a.blocks, agentBlock{addr: addr})
	}
	if len(a.ops) > 0 {
		a.startAt = a.ops[0].Delay
	}
	return a
}

func (a *Agent) blockIndex(addr uint64) int {
	for i := range a.blocks {
		if a.blocks[i].addr == addr {
			return i
		}
	}
	panic(fmt.Sprintf("tlctest: agent %d: message for unknown address %#x", a.id, addr))
}

// encode builds a full line carrying val in its first eight bytes and zeros
// in the rest.
func encode(val uint64) tilelink.Line {
	var l tilelink.Line
	binary.LittleEndian.PutUint64(l[:8], val)
	return l
}

func decodeVal(l *tilelink.Line) uint64 { return binary.LittleEndian.Uint64(l[:8]) }

// Tick runs one cycle: consume responses and probes, answer due probes,
// advance the scripted op, then arbitrate the outbound queues.
func (a *Agent) Tick(now int64) {
	a.recvD(now)
	a.recvB(now)
	a.answerProbes(now)
	a.advance(now)
	a.drain(now)
}

func (a *Agent) curOpBlk() int {
	if a.opIdx >= len(a.ops) {
		return -1
	}
	return a.ops[a.opIdx].Addr
}

// finishOp retires the current op and arms the next one's dispatch delay.
func (a *Agent) finishOp(now int64) {
	a.opIdx++
	a.phase = phDispatch
	if a.opIdx < len(a.ops) {
		a.startAt = now + a.ops[a.opIdx].Delay
	}
}

func (a *Agent) recvD(now int64) {
	for {
		m, ok := a.port.D.Recv(now)
		if !ok {
			return
		}
		bi := a.blockIndex(m.Addr)
		blk := &a.blocks[bi]
		switch m.Op {
		case tilelink.OpGrantData, tilelink.OpGrantDataDirty:
			if !blk.grantPending {
				a.sb.OnUnexpectedGrant(now, a.id, m.Addr, m.Op)
				continue
			}
			val := decodeVal(&m.Data)
			a.sb.OnGrant(now, a.id, m.Addr, m.Cap, tilelink.GrantCap(blk.grantGrow), val)
			blk.perm = m.Cap.Perm()
			blk.val = val
			blk.dirty = false
			blk.grantPending = false
			a.ctr.grants.Inc()
			a.outE = append(a.outE, outMsg{
				msg:     tilelink.Msg{Op: tilelink.OpGrantAck, Addr: m.Addr, Source: a.id, Txn: m.Txn},
				readyAt: now + a.rng.Int63n(3),
				blk:     bi,
			})
			if a.phase == phAwaitGrant && a.curOpBlk() == bi {
				if a.pendingWrite {
					a.doWrite(now, bi, a.writeVal)
					a.pendingWrite = false
				}
				a.finishOp(now)
			}
		case tilelink.OpReleaseAck:
			blk.relPending, blk.relSent = false, false
			if a.phase == phAwaitRelAck && a.curOpBlk() == bi {
				a.finishOp(now)
			}
		case tilelink.OpRootReleaseAck:
			blk.flushPending, blk.flushSent = false, false
			// §5.5: the ack promises the line is durable in DRAM now.
			a.sb.CheckDurable(now, a.id, blk.addr, a.memPeek(blk.addr))
			if a.phase == phAwaitFlushAck && a.curOpBlk() == bi {
				a.finishOp(now)
			}
		default:
			panic(fmt.Sprintf("tlctest: agent %d: unexpected D-channel message %v", a.id, m))
		}
	}
}

func (a *Agent) recvB(now int64) {
	for {
		m, ok := a.port.B.Recv(now)
		if !ok {
			return
		}
		if m.Op != tilelink.OpProbe {
			panic(fmt.Sprintf("tlctest: agent %d: unexpected B-channel message %v", a.id, m))
		}
		a.probes = append(a.probes, deferredProbe{
			blk:     a.blockIndex(m.Addr),
			cap:     m.Cap,
			txn:     m.Txn,
			readyAt: now + a.rng.Int63n(3),
		})
	}
}

// answerProbes responds to every due probe. A probe for a block whose
// voluntary Release or RootRelease is issued but not yet on the wire is held
// back (§5.4.1 flush_rdy / wb_rdy): the L2's inline release application
// depends on the release preceding the probe response on C, and FIFO only
// guarantees that once both are sent. The ProbeDuringFlushHold mutation
// reverts the RootRelease half of the rule.
func (a *Agent) answerProbes(now int64) {
	kept := a.probes[:0]
	for _, p := range a.probes {
		blk := &a.blocks[p.blk]
		if p.readyAt > now || (blk.relPending && !blk.relSent) ||
			(blk.flushPending && !blk.flushSent && !a.bug.ProbeDuringFlushHold) {
			kept = append(kept, p)
			continue
		}
		op, sh, to, carry := tilelink.ProbeResp(blk.perm, blk.dirty, p.cap)
		m := tilelink.Msg{Op: op, Addr: blk.addr, Source: a.id, Shrink: sh, Txn: p.txn}
		if carry {
			m.Data = encode(blk.val)
		}
		a.sb.OnSurrender(now, a.id, blk.addr, to, carry, blk.val)
		blk.perm = to
		if carry {
			blk.dirty = false
		}
		a.outCProbe = append(a.outCProbe, outMsg{msg: m, readyAt: now, blk: p.blk})
		a.ctr.probes.Inc()
	}
	a.probes = kept
}

func (a *Agent) advance(now int64) {
	if a.phase == phDispatch {
		a.dispatch(now)
	}
	if a.phase == phHold && now >= a.holdUntil {
		a.outCReq = append(a.outCReq, outMsg{msg: a.holdMsg, readyAt: now, rootrel: true, blk: a.holdBlk})
		a.phase = phAwaitFlushAck
	}
}

func (a *Agent) dispatch(now int64) {
	if a.opIdx >= len(a.ops) || now < a.startAt {
		return
	}
	op := a.ops[a.opIdx]
	bi := op.Addr
	blk := &a.blocks[bi]

	// One outstanding transaction per block: wait for in-flight grants,
	// flushes and (unless the bug mutation is armed) voluntary releases.
	acquiring := op.Kind == OpAcquireB || op.Kind == OpAcquireT || op.Kind == OpWrite
	if blk.grantPending || blk.flushPending {
		return
	}
	if blk.relPending && !(acquiring && a.bug.AcquireWhileReleasePending) {
		return
	}

	switch op.Kind {
	case OpIdle:
		a.finishOp(now)
	case OpAcquireB, OpAcquireT:
		target := tilelink.PermBranch
		if op.Kind == OpAcquireT {
			target = tilelink.PermTrunk
		}
		grow, ok := tilelink.GrowFor(blk.perm, target)
		if !ok { // already holds the target or better
			a.finishOp(now)
			return
		}
		a.issueAcquire(now, bi, grow)
	case OpWrite:
		if blk.perm == tilelink.PermTrunk {
			a.doWrite(now, bi, op.Val)
			a.finishOp(now)
			return
		}
		grow, _ := tilelink.GrowFor(blk.perm, tilelink.PermTrunk)
		a.pendingWrite, a.writeVal = true, op.Val
		a.issueAcquire(now, bi, grow)
	case OpReleaseB, OpReleaseN:
		target := tilelink.PermNone
		if op.Kind == OpReleaseB {
			target = tilelink.PermBranch
		}
		rop, sh, ok := tilelink.ReleaseFor(blk.perm, target, blk.dirty)
		if !ok { // nothing to release from here
			a.finishOp(now)
			return
		}
		m := tilelink.Msg{Op: rop, Addr: blk.addr, Source: a.id, Shrink: sh, Txn: a.txns.Next()}
		carried := rop == tilelink.OpReleaseData
		if carried {
			m.Data = encode(blk.val)
		}
		a.sb.OnSurrender(now, a.id, blk.addr, target, carried, blk.val)
		blk.perm = target
		if carried {
			blk.dirty = false
		}
		blk.relPending, blk.relSent = true, false
		a.outCReq = append(a.outCReq, outMsg{msg: m, readyAt: now, release: true, blk: bi})
		a.ctr.releases.Inc()
		if a.bug.AcquireWhileReleasePending {
			// Buggy discipline: the release is fire-and-forget; the next op
			// (an Acquire, with the relPending gate also skipped) may race it.
			a.finishOp(now)
			return
		}
		a.phase = phAwaitRelAck
	case OpFlush, OpClean:
		a.issueRootRelease(now, bi, op)
	default:
		panic(fmt.Sprintf("tlctest: agent %d: unknown op kind %q", a.id, op.Kind))
	}
}

func (a *Agent) doWrite(now int64, bi int, val uint64) {
	blk := &a.blocks[bi]
	blk.val = val
	blk.dirty = true
	a.sb.OnWrite(now, a.id, blk.addr, val)
	a.ctr.writes.Inc()
}

func (a *Agent) issueAcquire(now int64, bi int, grow tilelink.Grow) {
	blk := &a.blocks[bi]
	txn := a.txns.Next()
	blk.grantPending, blk.grantGrow = true, grow
	a.outA = append(a.outA, outMsg{
		msg:     tilelink.Msg{Op: tilelink.OpAcquireBlock, Addr: blk.addr, Source: a.id, Grow: grow, Txn: txn},
		readyAt: now,
		blk:     bi,
	})
	a.ctr.acquires.Inc()
	a.phase = phAwaitGrant
}

// issueRootRelease performs the local half of a flush/clean immediately —
// a flush invalidates the local copy, either kind captures dirty data into
// flushBuf — then holds the RootRelease message for HoldC cycles before
// queueing it, mirroring the window in which a hardware FSHR has committed
// locally but not yet won C-channel arbitration. Probes landing in that
// window are deferred until the RootRelease is on the wire (flush_rdy low,
// §5.4.1) unless the ProbeDuringFlushHold mutation is armed.
func (a *Agent) issueRootRelease(now int64, bi int, op Op) {
	blk := &a.blocks[bi]
	blk.flushPending, blk.flushSent = true, false
	m := tilelink.Msg{Addr: blk.addr, Source: a.id, Txn: a.txns.Next()}
	if op.Kind == OpFlush {
		m.Op = tilelink.OpRootReleaseFlush
		if blk.perm != tilelink.PermNone {
			carried := blk.dirty
			if carried {
				m.Op = tilelink.OpRootReleaseFlushData
				m.Dirty = true
				m.Data = encode(blk.val)
			}
			a.sb.OnSurrender(now, a.id, blk.addr, tilelink.PermNone, carried, blk.val)
			blk.perm = tilelink.PermNone
			blk.dirty = false
		}
	} else { // OpClean: permission is kept, dirty data is surrendered
		m.Op = tilelink.OpRootReleaseClean
		if blk.perm == tilelink.PermTrunk && blk.dirty {
			m.Op = tilelink.OpRootReleaseCleanData
			m.Dirty = true
			m.Data = encode(blk.val)
			a.sb.OnSurrender(now, a.id, blk.addr, blk.perm, true, blk.val)
			blk.dirty = false
		}
	}
	a.sb.OnFlushIssue(now, a.id, blk.addr)
	a.holdMsg, a.holdBlk, a.holdUntil = m, bi, now+op.HoldC
	a.phase = phHold
	a.ctr.flushes.Inc()
}

// sendHead tries to put q's head on the wire. It reports whether the head
// was ready this cycle — claiming the channel's arbiter slot whether or not
// the link accepted it (busy links and chaos refusals retry next cycle).
func (a *Agent) sendHead(now int64, l *tilelink.Link, q *[]outMsg) bool {
	if len(*q) == 0 || (*q)[0].readyAt > now {
		return false
	}
	e := (*q)[0]
	if !l.Send(now, e.msg) {
		return true
	}
	if e.release {
		a.blocks[e.blk].relSent = true
	}
	if e.rootrel {
		a.blocks[e.blk].flushSent = true
	}
	*q = (*q)[1:]
	return true
}

func (a *Agent) drain(now int64) {
	a.sendHead(now, a.port.A, &a.outA)
	// One C-channel arbiter, probe responses at high priority: a ready
	// probe response owns the slot; voluntary traffic goes only when no
	// probe response is ready.
	if !a.sendHead(now, a.port.C, &a.outCProbe) {
		a.sendHead(now, a.port.C, &a.outCReq)
	}
	a.sendHead(now, a.port.E, &a.outE)
}

// queueNext folds one outbound queue into the next-event clock.
//
//skipit:hotpath
func queueNext(q []outMsg, now int64) int64 {
	if len(q) == 0 {
		return tilelink.NoEvent
	}
	if t := q[0].readyAt; t > now {
		return t
	}
	return now + 1
}

// NextEvent follows the conservative fast-forward contract: the returned
// cycle is at or before the agent's next self-driven action. Await phases
// are woken by inbound messages, which the port's own NextEvent covers.
//
//skipit:hotpath
func (a *Agent) NextEvent(now int64) int64 {
	next := tilelink.NoEvent
	if t := queueNext(a.outA, now); t < next {
		next = t
	}
	if t := queueNext(a.outCProbe, now); t < next {
		next = t
	}
	if t := queueNext(a.outCReq, now); t < next {
		next = t
	}
	if t := queueNext(a.outE, now); t < next {
		next = t
	}
	for i := range a.probes {
		t := a.probes[i].readyAt
		if t <= now {
			t = now + 1
		}
		if t < next {
			next = t
		}
	}
	if a.opIdx < len(a.ops) {
		switch a.phase {
		case phDispatch:
			t := a.startAt
			if t <= now {
				t = now + 1 // dispatch gates clear via inbound traffic; stay conservative
			}
			if t < next {
				next = t
			}
		case phHold:
			t := a.holdUntil
			if t <= now {
				t = now + 1
			}
			if t < next {
				next = t
			}
		}
	}
	return next
}

// Done reports that the agent has exhausted its script and has nothing in
// flight. It keeps answering probes regardless.
func (a *Agent) Done() bool {
	if a.opIdx < len(a.ops) {
		return false
	}
	if len(a.outA)+len(a.outCProbe)+len(a.outCReq)+len(a.outE)+len(a.probes) > 0 {
		return false
	}
	for i := range a.blocks {
		b := &a.blocks[i]
		if b.grantPending || b.relPending || b.flushPending {
			return false
		}
	}
	return true
}
