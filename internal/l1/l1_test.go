package l1

import (
	"testing"

	"skipit/internal/tilelink"
)

// mockManager plays the L2 side of the L1's TileLink port: it grants every
// Acquire (optionally as GrantDataDirty), acks releases and root releases,
// and records the traffic for assertions.
type mockManager struct {
	t    *testing.T
	port *tilelink.ClientPort

	grantDirty   map[uint64]bool // addr -> respond GrantDataDirty
	fill         map[uint64]uint64
	acquires     []tilelink.Msg
	releases     []tilelink.Msg
	rootReleases []tilelink.Msg
	probeAcks    []tilelink.Msg
	grantAcks    int
	outD         []tilelink.Msg
}

func newMock(t *testing.T, port *tilelink.ClientPort) *mockManager {
	return &mockManager{t: t, port: port, grantDirty: map[uint64]bool{}, fill: map[uint64]uint64{}}
}

func (m *mockManager) tick(now int64) {
	if len(m.outD) > 0 && m.port.D.Send(now, m.outD[0]) {
		m.outD = m.outD[1:]
	}
	if msg, ok := m.port.A.Recv(now); ok {
		m.acquires = append(m.acquires, *msg)
		op := tilelink.OpGrantData
		if m.grantDirty[msg.Addr] {
			op = tilelink.OpGrantDataDirty
		}
		cap := tilelink.CapToT
		if msg.Grow == tilelink.GrowNtoB {
			cap = tilelink.CapToB
		}
		var data tilelink.Line
		v := m.fill[msg.Addr]
		for i := uint64(0); i < 8; i++ {
			data[i] = byte(v >> (8 * i))
		}
		m.outD = append(m.outD, tilelink.Msg{Op: op, Addr: msg.Addr, Cap: cap, Data: data})
	}
	if msg, ok := m.port.C.Recv(now); ok {
		switch {
		case msg.Op.IsRootRelease():
			m.rootReleases = append(m.rootReleases, *msg)
			m.outD = append(m.outD, tilelink.Msg{Op: tilelink.OpRootReleaseAck, Addr: msg.Addr})
		case msg.Op == tilelink.OpRelease || msg.Op == tilelink.OpReleaseData:
			m.releases = append(m.releases, *msg)
			m.outD = append(m.outD, tilelink.Msg{Op: tilelink.OpReleaseAck, Addr: msg.Addr})
		default:
			m.probeAcks = append(m.probeAcks, *msg)
		}
	}
	if _, ok := m.port.E.Recv(now); ok {
		m.grantAcks++
	}
}

type l1rig struct {
	t   *testing.T
	d   *DCache
	mgr *mockManager
	now int64
	id  int
}

func newL1Rig(t *testing.T, mut func(*Config)) *l1rig {
	t.Helper()
	port := tilelink.NewClientPort("t", 16, 64, 1)
	cfg := DefaultConfig(0)
	if mut != nil {
		mut(&cfg)
	}
	return &l1rig{t: t, d: New(cfg, port), mgr: newMock(t, port)}
}

func (r *l1rig) step() {
	r.d.Tick(r.now)
	r.mgr.tick(r.now)
	r.now++
}

// do submits a request and steps until its response arrives; it retries
// nacks.
func (r *l1rig) do(req Req) Resp {
	r.t.Helper()
	for attempt := 0; attempt < 200; attempt++ {
		req.ID = r.id
		r.id++
		for !r.d.Submit(r.now, req) {
			r.step()
		}
		for i := 0; i < 2000; i++ {
			r.step()
			for _, resp := range r.d.PollResponses(r.now) {
				if resp.ID != req.ID {
					r.t.Fatalf("response for unknown id %d", resp.ID)
				}
				if resp.Nack {
					goto retry
				}
				return resp
			}
		}
		r.t.Fatalf("no response for %v", req)
	retry:
	}
	r.t.Fatalf("endless nacks for %v", req)
	return Resp{}
}

func (r *l1rig) drain() {
	for i := 0; i < 2000 && r.d.Busy(); i++ {
		r.step()
	}
	if r.d.Busy() {
		r.t.Fatal("L1 did not drain")
	}
}

func TestMissFillsAndHits(t *testing.T) {
	r := newL1Rig(t, nil)
	r.mgr.fill[0x1000&^63] = 1234
	resp := r.do(Req{Kind: Load, Addr: 0x1000})
	if resp.Data != 1234 {
		t.Fatalf("miss load = %d, want 1234", resp.Data)
	}
	if len(r.mgr.acquires) != 1 {
		t.Fatalf("%d acquires, want 1", len(r.mgr.acquires))
	}
	r.do(Req{Kind: Load, Addr: 0x1000})
	if len(r.mgr.acquires) != 1 {
		t.Fatal("hit re-acquired the line")
	}
	st := r.d.LineState(0x1000)
	if !st.Valid || !st.Skip {
		t.Fatalf("GrantData install state: %+v (skip must be set)", st)
	}
}

func TestGrantDataDirtyClearsSkip(t *testing.T) {
	r := newL1Rig(t, nil)
	r.mgr.grantDirty[0x1000] = true
	r.do(Req{Kind: Load, Addr: 0x1000})
	if r.d.LineState(0x1000).Skip {
		t.Fatal("GrantDataDirty set the skip bit (§6.1 violation)")
	}
}

func TestStoreMakesDirtyAndLoadSeesIt(t *testing.T) {
	r := newL1Rig(t, nil)
	r.do(Req{Kind: Store, Addr: 0x2000, Data: 55})
	r.drain()
	st := r.d.LineState(0x2000)
	if !st.Valid || !st.Dirty {
		t.Fatalf("state after store: %+v", st)
	}
	if got := r.do(Req{Kind: Load, Addr: 0x2000}); got.Data != 55 {
		t.Fatalf("load = %d, want 55", got.Data)
	}
}

func TestLoadAcquiresBranchStoreAcquiresTrunk(t *testing.T) {
	r := newL1Rig(t, nil)
	r.do(Req{Kind: Load, Addr: 0x1000})
	r.do(Req{Kind: Store, Addr: 0x3000, Data: 1})
	r.drain()
	if g := r.mgr.acquires[0].Grow; g != tilelink.GrowNtoB {
		t.Fatalf("load acquired %v", g)
	}
	if g := r.mgr.acquires[1].Grow; g != tilelink.GrowNtoT {
		t.Fatalf("store acquired %v", g)
	}
}

func TestStoreUpgradeUsesBtoT(t *testing.T) {
	r := newL1Rig(t, nil)
	r.do(Req{Kind: Load, Addr: 0x1000}) // branch copy
	r.do(Req{Kind: Store, Addr: 0x1000, Data: 9})
	r.drain()
	if len(r.mgr.acquires) != 2 {
		t.Fatalf("%d acquires", len(r.mgr.acquires))
	}
	if g := r.mgr.acquires[1].Grow; g != tilelink.GrowBtoT {
		t.Fatalf("upgrade acquired %v, want BtoT", g)
	}
	if got := r.do(Req{Kind: Load, Addr: 0x1000}); got.Data != 9 {
		t.Fatalf("load after upgrade = %d", got.Data)
	}
}

func TestEvictionReleasesDirtyVictim(t *testing.T) {
	r := newL1Rig(t, nil)
	cfg := r.d.Config()
	stride := uint64(cfg.Sets) * cfg.LineBytes
	// Fill one set with dirty lines, then one more to force an eviction.
	for w := 0; w <= cfg.Ways; w++ {
		r.do(Req{Kind: Store, Addr: uint64(w) * stride, Data: uint64(w)})
	}
	r.drain()
	found := false
	for _, rel := range r.mgr.releases {
		if rel.Op == tilelink.OpReleaseData {
			found = true
		}
	}
	if !found {
		t.Fatal("no ReleaseData despite dirty victim eviction")
	}
}

func TestCboFlushSendsRootReleaseAndInvalidates(t *testing.T) {
	r := newL1Rig(t, nil)
	r.do(Req{Kind: Store, Addr: 0x1000, Data: 7})
	r.drain()
	r.do(Req{Kind: CboFlush, Addr: 0x1000})
	r.drain()
	if len(r.mgr.rootReleases) != 1 {
		t.Fatalf("%d RootReleases", len(r.mgr.rootReleases))
	}
	rr := r.mgr.rootReleases[0]
	if rr.Op != tilelink.OpRootReleaseFlushData {
		t.Fatalf("op = %v", rr.Op)
	}
	if rr.Data[0] != 7 {
		t.Fatal("RootRelease carried wrong data")
	}
	if r.d.LineState(0x1000).Valid {
		t.Fatal("flush left line valid")
	}
}

func TestRedundantCleanDroppedBySkipBit(t *testing.T) {
	r := newL1Rig(t, nil)
	r.do(Req{Kind: Store, Addr: 0x1000, Data: 7})
	r.drain()
	r.do(Req{Kind: CboClean, Addr: 0x1000})
	r.drain()
	if !r.d.LineState(0x1000).Skip {
		t.Fatal("completed clean did not set skip")
	}
	before := len(r.mgr.rootReleases)
	r.do(Req{Kind: CboClean, Addr: 0x1000})
	r.drain()
	if len(r.mgr.rootReleases) != before {
		t.Fatal("redundant clean reached the L2 despite Skip It")
	}
}

func TestProbeToNInvalidatesAndReturnsDirtyData(t *testing.T) {
	r := newL1Rig(t, nil)
	r.do(Req{Kind: Store, Addr: 0x1000, Data: 88})
	r.drain()
	r.mgr.port.B.Send(r.now, tilelink.Msg{Op: tilelink.OpProbe, Addr: 0x1000 &^ 63, Cap: tilelink.CapToN})
	for i := 0; i < 200 && len(r.mgr.probeAcks) == 0; i++ {
		r.step()
	}
	if len(r.mgr.probeAcks) != 1 {
		t.Fatal("no ProbeAck")
	}
	ack := r.mgr.probeAcks[0]
	if ack.Op != tilelink.OpProbeAckData || ack.Shrink != tilelink.ShrinkTtoN {
		t.Fatalf("ProbeAck = %v", ack)
	}
	if ack.Data[0] != 88 {
		t.Fatal("probe lost dirty data")
	}
	if r.d.LineState(0x1000).Valid {
		t.Fatal("probed-toN line still valid")
	}
}

func TestProbeToBKeepsCleanCopyAndClearsSkip(t *testing.T) {
	r := newL1Rig(t, nil)
	r.do(Req{Kind: Store, Addr: 0x1000, Data: 3})
	r.drain()
	r.mgr.port.B.Send(r.now, tilelink.Msg{Op: tilelink.OpProbe, Addr: 0x1000 &^ 63, Cap: tilelink.CapToB})
	for i := 0; i < 200 && len(r.mgr.probeAcks) == 0; i++ {
		r.step()
	}
	st := r.d.LineState(0x1000)
	if !st.Valid || st.Dirty || st.Perm != tilelink.PermBranch {
		t.Fatalf("state after toB probe: %+v", st)
	}
	if st.Skip {
		t.Fatal("skip bit survived surrendering dirty data (§6.2 violation)")
	}
}

func TestProbeOfAbsentLineAcksNtoN(t *testing.T) {
	r := newL1Rig(t, nil)
	r.mgr.port.B.Send(r.now, tilelink.Msg{Op: tilelink.OpProbe, Addr: 0x7000, Cap: tilelink.CapToN})
	for i := 0; i < 200 && len(r.mgr.probeAcks) == 0; i++ {
		r.step()
	}
	if ack := r.mgr.probeAcks[0]; ack.Op != tilelink.OpProbeAck || ack.Shrink != tilelink.ShrinkNtoN {
		t.Fatalf("ProbeAck = %v", ack)
	}
}

func TestSecondaryLoadPiggybacksOnStoreMiss(t *testing.T) {
	r := newL1Rig(t, nil)
	// Fire a store (primary, NtoT) and a load (secondary) back to back
	// without waiting; both must be served by one MSHR / one Acquire.
	s := Req{ID: 1000, Kind: Store, Addr: 0x1000, Data: 5}
	l := Req{ID: 1001, Kind: Load, Addr: 0x1008}
	if !r.d.Submit(r.now, s) || !r.d.Submit(r.now, l) {
		t.Fatal("submissions rejected")
	}
	var loadResp *Resp
	for i := 0; i < 2000 && loadResp == nil; i++ {
		r.step()
		for _, resp := range r.d.PollResponses(r.now) {
			if resp.ID == 1001 {
				if resp.Nack {
					t.Fatal("secondary load nacked despite RPQ capacity")
				}
				v := resp
				loadResp = &v
			}
		}
	}
	if loadResp == nil {
		t.Fatal("secondary load never completed")
	}
	if len(r.mgr.acquires) != 1 {
		t.Fatalf("%d acquires, want 1 (RPQ merge)", len(r.mgr.acquires))
	}
}

func TestSecondaryStoreOnLoadMissNacked(t *testing.T) {
	// §3.3: the RPQ rejects a secondary needing more permission than the
	// primary acquired (no AcquirePerm upgrade).
	r := newL1Rig(t, nil)
	l := Req{ID: 1, Kind: Load, Addr: 0x1000}
	s := Req{ID: 2, Kind: Store, Addr: 0x1008, Data: 9}
	if !r.d.Submit(r.now, l) || !r.d.Submit(r.now, s) {
		t.Fatal("submissions rejected")
	}
	nacked := false
	for i := 0; i < 2000; i++ {
		r.step()
		for _, resp := range r.d.PollResponses(r.now) {
			if resp.ID == 2 && resp.Nack {
				nacked = true
			}
		}
		if nacked {
			break
		}
	}
	if !nacked {
		t.Fatal("store accepted as secondary of a Branch acquire")
	}
}

func TestNoFreeMSHRNacks(t *testing.T) {
	r := newL1Rig(t, func(c *Config) { c.NumMSHRs = 1; c.InputDepth = 8; c.InputWidth = 8 })
	// Two misses to different lines in one cycle: the second has no MSHR.
	if !r.d.Submit(r.now, Req{ID: 1, Kind: Load, Addr: 0x1000}) {
		t.Fatal("submit 1")
	}
	if !r.d.Submit(r.now, Req{ID: 2, Kind: Load, Addr: 0x9000}) {
		t.Fatal("submit 2")
	}
	gotNack := false
	for i := 0; i < 2000; i++ {
		r.step()
		for _, resp := range r.d.PollResponses(r.now) {
			if resp.ID == 2 && resp.Nack {
				gotNack = true
			}
		}
		if gotNack {
			break
		}
	}
	if !gotNack {
		t.Fatal("second miss not nacked with a single MSHR")
	}
}

func TestInputWidthLimitsAcceptance(t *testing.T) {
	r := newL1Rig(t, nil) // width 2
	if !r.d.Submit(r.now, Req{ID: 1, Kind: Load, Addr: 0x1000}) {
		t.Fatal("submit 1")
	}
	if !r.d.Submit(r.now, Req{ID: 2, Kind: Load, Addr: 0x1008}) {
		t.Fatal("submit 2")
	}
	if r.d.Submit(r.now, Req{ID: 3, Kind: Load, Addr: 0x1010}) {
		t.Fatal("third submission accepted in one cycle (width 2)")
	}
}
