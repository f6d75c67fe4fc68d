// Package tlctest is a protocol-level TileLink agent harness for the L2: a
// fleet of master agents attached straight to the cache's client ports — no
// boom core or L1 in the loop — each maintaining its own permission state per
// block and emitting randomized but protocol-legal Acquire / Release /
// GrantAck / ProbeAck traffic, checked cycle-by-cycle against a per-address
// scoreboard.
//
// The scoreboard tracks two things per address:
//
//   - the global permission invariant over the agents' views: at most one
//     Trunk, and a Trunk excludes every other holder (Branches may share only
//     under the L2's own trunk);
//   - the set of permissible values: every value a writer with write
//     permission may have installed. The set grows at writes and is pruned
//     to a singleton at ordering points — whenever a dirty copy is
//     surrendered (ProbeAckData, ReleaseData, RootRelease*Data), that value
//     becomes the only truth. Every granted value and every end-of-episode
//     resting value must be in the set.
//
// Durability (§5.5) is judged against a third piece of state: the ordered
// sequence of values pushed down to the L2 (every surrender that carried
// data, seeded with the DRAM reset value). DRAM only ever holds a pushed
// value, and pushes for one address are totally ordered — a new push
// requires Trunk, which requires the previous push to have landed. A
// RootRelease records the latest push at issue time; its ack may arrive
// arbitrarily late (the D channel jitters under chaos), so the check is that
// DRAM then holds that push or any later one. A dropped writeback leaves
// DRAM at an older push and surfaces here.
//
// Permission bookkeeping follows the TileLink ordering discipline the agents
// themselves use: downgrades are recorded when the surrendering message is
// issued, upgrades when the grant is received. The scoreboard's view is
// therefore always conservative — a transient it flags corresponds to a real
// protocol violation, never to an in-flight race.
//
// Everything is seed-derived through internal/detrand, episodes compose with
// the chaos fault schedules and the ddmin shrinker, and failures ship as
// minimal replayable .tlc.json artifacts (see artifact.go).
package tlctest

import (
	"fmt"

	"skipit/internal/metrics"
	"skipit/internal/tilelink"
)

// Violation is the structured fail-fast report of a scoreboard check that
// fired: what rule broke, where, and the per-agent permission view and
// permissible-value set at that moment.
type Violation struct {
	Kind    string `json:"kind"` // "two-trunk" | "trunk-excludes" | "value" | "write-without-trunk" | "grant-cap" | "unexpected-grant" | "durability" | "final-value"
	Cycle   int64  `json:"cycle"`
	Agent   int    `json:"agent"`
	Addr    uint64 `json:"addr"`
	Message string `json:"message"`
	// Perms is the scoreboard's per-agent permission view of Addr at the
	// failure, and Permissible the value set.
	Perms       []string `json:"perms"`
	Permissible []uint64 `json:"permissible"`
}

func (v *Violation) Error() string {
	return fmt.Sprintf("tlctest: %s at cycle %d: agent %d addr %#x: %s (perms=%v permissible=%v)",
		v.Kind, v.Cycle, v.Agent, v.Addr, v.Message, v.Perms, v.Permissible)
}

// sbBlock is the scoreboard's state for one address.
type sbBlock struct {
	perms  []tilelink.Perm // per-agent granted view
	vals   []uint64        // permissible value set
	pushes []uint64        // values pushed to the L2, in order, pushes[0] = DRAM reset
	marks  []int           // per-agent push index recorded at RootRelease issue, -1 if none
}

// Scoreboard checks the agents' collective behavior per address. It is fed
// by the agents at their own ordering points and fails fast: the first
// violation is kept and every later event is ignored.
type Scoreboard struct {
	agents int
	addrs  []uint64
	index  map[uint64]int // addr -> blocks index (lookup only, never iterated)
	blocks []sbBlock

	viol *Violation

	ctrGrantsChecked *metrics.Counter
	ctrWrites        *metrics.Counter
	ctrPrunes        *metrics.Counter
	ctrSurrenders    *metrics.Counter
	ctrViolations    *metrics.Counter
}

// NewScoreboard builds a scoreboard over the episode's address universe.
// init[i] seeds addrs[i]'s permissible-value set (the DRAM reset value).
// Counters register under the "tlc" instance of reg; nil gets a private
// registry.
func NewScoreboard(agents int, addrs []uint64, init []uint64, reg *metrics.Registry) *Scoreboard {
	if len(init) != len(addrs) {
		panic("tlctest: init/addrs length mismatch")
	}
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	sb := &Scoreboard{
		agents:           agents,
		addrs:            append([]uint64(nil), addrs...),
		index:            make(map[uint64]int, len(addrs)),
		blocks:           make([]sbBlock, len(addrs)),
		ctrGrantsChecked: reg.Counter("tlc", "grants_checked"),
		ctrWrites:        reg.Counter("tlc", "writes_tracked"),
		ctrPrunes:        reg.Counter("tlc", "value_prunes"),
		ctrSurrenders:    reg.Counter("tlc", "surrenders"),
		ctrViolations:    reg.Counter("tlc", "violations"),
	}
	for i, a := range addrs {
		sb.index[a] = i
		marks := make([]int, agents)
		for j := range marks {
			marks[j] = -1
		}
		sb.blocks[i] = sbBlock{
			perms:  make([]tilelink.Perm, agents),
			vals:   []uint64{init[i]},
			pushes: []uint64{init[i]},
			marks:  marks,
		}
	}
	return sb
}

// Violation returns the first recorded violation, or nil.
func (sb *Scoreboard) Violation() *Violation { return sb.viol }

func (sb *Scoreboard) block(addr uint64) *sbBlock {
	i, ok := sb.index[addr]
	if !ok {
		panic(fmt.Sprintf("tlctest: scoreboard has no block for %#x", addr))
	}
	return &sb.blocks[i]
}

// fail records the first violation, annotated with the block snapshot.
func (sb *Scoreboard) fail(now int64, agent int, addr uint64, kind, msg string) {
	sb.failVals(now, agent, addr, kind, msg, sb.block(addr).vals)
}

// failVals is fail with an explicit permissible set (the durability check
// judges against a push suffix, not the live value set).
func (sb *Scoreboard) failVals(now int64, agent int, addr uint64, kind, msg string, vals []uint64) {
	if sb.viol != nil {
		return
	}
	b := sb.block(addr)
	v := &Violation{
		Kind: kind, Cycle: now, Agent: agent, Addr: addr, Message: msg,
		Permissible: append([]uint64(nil), vals...),
	}
	for _, p := range b.perms {
		v.Perms = append(v.Perms, p.String())
	}
	sb.viol = v
	sb.ctrViolations.Inc()
}

// contains reports set membership in the permissible-value set.
//
//skipit:hotpath
func (b *sbBlock) contains(v uint64) bool {
	for _, x := range b.vals {
		if x == v {
			return true
		}
	}
	return false
}

// checkInvariant enforces the global permission invariant on one block: at
// most one Trunk, and a Trunk excludes all other holders. The failure
// formatting lives in failInvariant so the clean path stays allocation-free.
//
//skipit:hotpath
func (sb *Scoreboard) checkInvariant(now int64, agent int, addr uint64) {
	if sb.viol != nil {
		return
	}
	b := sb.block(addr)
	trunks, holders := 0, 0
	for _, p := range b.perms {
		if p == tilelink.PermTrunk {
			trunks++
		}
		if p != tilelink.PermNone {
			holders++
		}
	}
	if trunks > 1 || (trunks == 1 && holders > 1) {
		sb.failInvariant(now, agent, addr, trunks, holders) //skipit:ignore hotalloc cold invariant-violation path; never runs in a passing episode
	}
}

// failInvariant is checkInvariant's cold failure path.
func (sb *Scoreboard) failInvariant(now int64, agent int, addr uint64, trunks, holders int) {
	if trunks > 1 {
		sb.fail(now, agent, addr, "two-trunk", fmt.Sprintf("%d agents hold Trunk simultaneously", trunks))
		return
	}
	sb.fail(now, agent, addr, "trunk-excludes", fmt.Sprintf("a Trunk coexists with %d other holder(s)", holders-1))
}

// OnGrant records a received grant: the value must be permissible, the cap
// must be the one the grow mandates, and the resulting view must satisfy the
// permission invariant.
func (sb *Scoreboard) OnGrant(now int64, agent int, addr uint64, cap, wantCap tilelink.Cap, val uint64) {
	if sb.viol != nil {
		return
	}
	sb.ctrGrantsChecked.Inc()
	b := sb.block(addr)
	if cap != wantCap {
		sb.fail(now, agent, addr, "grant-cap", fmt.Sprintf("granted %v, protocol mandates %v", cap, wantCap))
		return
	}
	if !b.contains(val) {
		sb.fail(now, agent, addr, "value", fmt.Sprintf("granted value %#x is not permissible", val))
		return
	}
	b.perms[agent] = cap.Perm()
	sb.checkInvariant(now, agent, addr)
}

// OnWrite records a local write by an agent: only a Trunk holder may install
// a value, and the value joins the permissible set.
func (sb *Scoreboard) OnWrite(now int64, agent int, addr uint64, val uint64) {
	if sb.viol != nil {
		return
	}
	b := sb.block(addr)
	if b.perms[agent] != tilelink.PermTrunk {
		sb.fail(now, agent, addr, "write-without-trunk",
			fmt.Sprintf("write of %#x while holding %v", val, b.perms[agent]))
		return
	}
	if !b.contains(val) {
		b.vals = append(b.vals, val)
	}
	sb.ctrWrites.Inc()
}

// OnSurrender records a downgrade message being issued (ProbeAck*, Release*,
// or the local-invalidate half of a RootRelease): the agent's view drops to
// `to`, and if the message carries dirty data that value becomes the only
// permissible one — an ordering point has published it.
func (sb *Scoreboard) OnSurrender(now int64, agent int, addr uint64, to tilelink.Perm, carriedData bool, val uint64) {
	if sb.viol != nil {
		return
	}
	b := sb.block(addr)
	sb.ctrSurrenders.Inc()
	if carriedData {
		b.vals = b.vals[:0]
		b.vals = append(b.vals, val)
		b.pushes = append(b.pushes, val)
		sb.ctrPrunes.Inc()
	}
	b.perms[agent] = to
	sb.checkInvariant(now, agent, addr)
}

// OnUnexpectedGrant records a grant the agent has no outstanding Acquire for.
func (sb *Scoreboard) OnUnexpectedGrant(now int64, agent int, addr uint64, op tilelink.Opcode) {
	sb.fail(now, agent, addr, "unexpected-grant", fmt.Sprintf("%v with no outstanding Acquire", op))
}

// OnFlushIssue records a RootRelease being issued by an agent: the latest
// push at this moment (the flush's own surrendered data, if it carried any)
// becomes the durability floor the matching ack is judged against.
func (sb *Scoreboard) OnFlushIssue(now int64, agent int, addr uint64) {
	if sb.viol != nil {
		return
	}
	b := sb.block(addr)
	b.marks[agent] = len(b.pushes) - 1
}

// CheckDurable verifies the §5.5 durability contract at a RootReleaseAck:
// DRAM must hold the push recorded at issue time or any later one. The ack
// may be arbitrarily delayed on D, so newer pushes that landed in the
// meantime are legal; anything older than the floor is a dropped or stale
// writeback.
func (sb *Scoreboard) CheckDurable(now int64, agent int, addr uint64, got uint64) {
	if sb.viol != nil {
		return
	}
	b := sb.block(addr)
	mark := b.marks[agent]
	if mark < 0 {
		mark = 0
	}
	b.marks[agent] = -1
	allowed := b.pushes[mark:]
	for _, v := range allowed {
		if v == got {
			return
		}
	}
	sb.failVals(now, agent, addr, "durability",
		fmt.Sprintf("RootReleaseAck received but DRAM holds %#x, older than the flushed push", got), allowed)
}

// CheckFinal verifies an address's resting value after the episode drained:
// the freshest committed copy (L2 if present, else DRAM) must be permissible.
func (sb *Scoreboard) CheckFinal(now int64, addr uint64, got uint64) {
	if sb.viol != nil {
		return
	}
	if !sb.block(addr).contains(got) {
		sb.fail(now, -1, addr, "final-value",
			fmt.Sprintf("resting value %#x is not permissible", got))
	}
}
