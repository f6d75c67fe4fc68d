package l2

import (
	"testing"

	"skipit/internal/mem"
	"skipit/internal/tilelink"
)

// rig drives the L2 directly over hand-held client ports, playing the role
// of the L1s.
type rig struct {
	t     *testing.T
	c     *Cache
	m     *mem.Memory
	ports []*tilelink.ClientPort
	now   int64
}

func newRig(t *testing.T, clients int) *rig {
	t.Helper()
	return newRigConfig(t, DefaultConfig(clients))
}

func newRigConfig(t *testing.T, cfg Config) *rig {
	t.Helper()
	ports := make([]*tilelink.ClientPort, cfg.NumClients)
	for i := range ports {
		ports[i] = tilelink.NewClientPort("t", 16, 64, 1)
	}
	m := mem.New(mem.DefaultConfig())
	return &rig{t: t, c: New(cfg, ports, m), m: m, ports: ports}
}

func (r *rig) step() {
	r.m.Tick(r.now)
	r.c.Tick(r.now)
	r.now++
}

// send pushes a client->manager message, retrying while the link is busy.
func (r *rig) send(client int, m tilelink.Msg) {
	r.t.Helper()
	var link *tilelink.Link
	switch m.Op.Chan() {
	case tilelink.ChannelA:
		link = r.ports[client].A
	case tilelink.ChannelC:
		link = r.ports[client].C
	case tilelink.ChannelE:
		link = r.ports[client].E
	default:
		r.t.Fatalf("send on manager channel %v", m.Op.Chan())
	}
	for i := 0; i < 100; i++ {
		if link.Send(r.now, m) {
			return
		}
		r.step()
	}
	r.t.Fatalf("link busy for 100 cycles sending %v", m)
}

// expect steps until a B- or D-channel message arrives for client, with a
// bound.
func (r *rig) expect(client int, limit int) tilelink.Msg {
	r.t.Helper()
	for i := 0; i < limit; i++ {
		if m, ok := r.ports[client].B.Recv(r.now); ok {
			return *m
		}
		if m, ok := r.ports[client].D.Recv(r.now); ok {
			return *m
		}
		r.step()
	}
	r.t.Fatalf("no message for client %d within %d cycles", client, limit)
	return tilelink.Msg{}
}

// acquire performs a full Acquire->Grant->GrantAck transaction.
func (r *rig) acquire(client int, addr uint64, grow tilelink.Grow) tilelink.Msg {
	r.t.Helper()
	r.send(client, tilelink.Msg{Op: tilelink.OpAcquireBlock, Addr: addr, Source: client, Grow: grow})
	g := r.expect(client, 500)
	if g.Op != tilelink.OpGrantData && g.Op != tilelink.OpGrantDataDirty {
		r.t.Fatalf("acquire got %v, want GrantData*", g)
	}
	r.send(client, tilelink.Msg{Op: tilelink.OpGrantAck, Addr: addr, Source: client})
	r.step()
	return g
}

func TestAcquireMissReadsMemoryAndGrants(t *testing.T) {
	r := newRig(t, 1)
	r.m.PokeUint64(0x1000, 77)
	g := r.acquire(0, 0x1000, tilelink.GrowNtoT)
	if g.Op != tilelink.OpGrantData {
		t.Fatalf("clean line granted as %v", g.Op)
	}
	if g.Cap != tilelink.CapToT {
		t.Fatalf("NtoT acquire granted cap %v", g.Cap)
	}
	if got := uint64(g.Data[0]); got != 77 {
		t.Fatalf("granted data %d, want 77", got)
	}
	st := r.c.LineState(0x1000)
	if !st.Present || st.Perms[0] != tilelink.PermTrunk {
		t.Fatalf("directory after grant: %+v", st)
	}
	if r.c.Stats().MemReads != 1 {
		t.Fatal("no memory read for the miss")
	}
}

func TestSecondAcquireHitsL2(t *testing.T) {
	r := newRig(t, 1)
	r.acquire(0, 0x1000, tilelink.GrowNtoB)
	reads := r.c.Stats().MemReads
	// Client silently dropped its clean branch copy; re-acquire.
	r.acquire(0, 0x1000, tilelink.GrowNtoB)
	if r.c.Stats().MemReads != reads {
		t.Fatal("L2 hit went to memory")
	}
}

func TestExclusiveAcquireProbesSharer(t *testing.T) {
	r := newRig(t, 2)
	r.acquire(0, 0x1000, tilelink.GrowNtoB)
	// Client 1 wants it exclusively; client 0 must be probed toN.
	r.send(1, tilelink.Msg{Op: tilelink.OpAcquireBlock, Addr: 0x1000, Source: 1, Grow: tilelink.GrowNtoT})
	probe := r.expect(0, 500)
	if probe.Op != tilelink.OpProbe || probe.Cap != tilelink.CapToN {
		t.Fatalf("sharer got %v, want Probe toN", probe)
	}
	r.send(0, tilelink.Msg{Op: tilelink.OpProbeAck, Addr: 0x1000, Source: 0, Shrink: tilelink.ShrinkBtoN})
	g := r.expect(1, 500)
	if g.Op != tilelink.OpGrantData {
		t.Fatalf("client 1 got %v", g)
	}
	r.send(1, tilelink.Msg{Op: tilelink.OpGrantAck, Addr: 0x1000, Source: 1})
	r.step()
	st := r.c.LineState(0x1000)
	if st.Perms[0] != tilelink.PermNone || st.Perms[1] != tilelink.PermTrunk {
		t.Fatalf("directory %v after exclusive acquire", st.Perms)
	}
}

func TestSharedAcquireDowngradesTrunkAndGrantsDirty(t *testing.T) {
	r := newRig(t, 2)
	r.acquire(0, 0x1000, tilelink.GrowNtoT)
	// Client 1 reads: client 0 is probed toB and surrenders dirty data;
	// client 1's grant must be GrantDataDirty (skip bit stays unset, §6).
	r.send(1, tilelink.Msg{Op: tilelink.OpAcquireBlock, Addr: 0x1000, Source: 1, Grow: tilelink.GrowNtoB})
	probe := r.expect(0, 500)
	if probe.Cap != tilelink.CapToB {
		t.Fatalf("trunk owner probed %v, want toB", probe.Cap)
	}
	var dirty tilelink.Line
	dirty[0] = 99
	r.send(0, tilelink.Msg{Op: tilelink.OpProbeAckData, Addr: 0x1000, Source: 0,
		Shrink: tilelink.ShrinkTtoB, Data: dirty})
	g := r.expect(1, 500)
	if g.Op != tilelink.OpGrantDataDirty {
		t.Fatalf("grant of L2-dirty line = %v, want GrantDataDirty", g.Op)
	}
	if g.Data[0] != 99 {
		t.Fatal("grant missed the probed dirty data")
	}
	r.send(1, tilelink.Msg{Op: tilelink.OpGrantAck, Addr: 0x1000, Source: 1})
	r.step()
	if !r.c.LineState(0x1000).Dirty {
		t.Fatal("L2 lost the dirty bit after ProbeAckData")
	}
}

func TestVoluntaryReleaseData(t *testing.T) {
	r := newRig(t, 1)
	r.acquire(0, 0x1000, tilelink.GrowNtoT)
	var data tilelink.Line
	data[0] = 5
	r.send(0, tilelink.Msg{Op: tilelink.OpReleaseData, Addr: 0x1000, Source: 0,
		Shrink: tilelink.ShrinkTtoN, Data: data})
	ack := r.expect(0, 200)
	if ack.Op != tilelink.OpReleaseAck {
		t.Fatalf("release answered with %v", ack.Op)
	}
	st := r.c.LineState(0x1000)
	if !st.Dirty || st.Perms[0] != tilelink.PermNone {
		t.Fatalf("state after release: %+v", st)
	}
}

func TestRootReleaseFlushWritesBackAndInvalidates(t *testing.T) {
	r := newRig(t, 1)
	r.acquire(0, 0x1000, tilelink.GrowNtoT)
	var dirty tilelink.Line
	dirty[0] = 123
	// The L1's FSHR invalidated its copy and ships the dirty line (§5.5).
	r.send(0, tilelink.Msg{Op: tilelink.OpRootReleaseFlushData, Addr: 0x1000, Source: 0,
		Dirty: true, Data: dirty})
	ack := r.expect(0, 500)
	if ack.Op != tilelink.OpRootReleaseAck {
		t.Fatalf("RootRelease answered with %v", ack.Op)
	}
	if got := r.m.PeekUint64(0x1000); got != 123 {
		t.Fatalf("DRAM = %d after RootReleaseFlush, want 123", got)
	}
	if r.c.LineState(0x1000).Present {
		t.Fatal("flush left the line in L2")
	}
}

func TestRootReleaseCleanKeepsLine(t *testing.T) {
	r := newRig(t, 1)
	r.acquire(0, 0x1000, tilelink.GrowNtoT)
	var dirty tilelink.Line
	dirty[0] = 9
	r.send(0, tilelink.Msg{Op: tilelink.OpRootReleaseCleanData, Addr: 0x1000, Source: 0,
		Dirty: true, Data: dirty})
	if ack := r.expect(0, 500); ack.Op != tilelink.OpRootReleaseAck {
		t.Fatalf("got %v", ack.Op)
	}
	st := r.c.LineState(0x1000)
	if !st.Present {
		t.Fatal("clean dropped the L2 line")
	}
	if st.Dirty {
		t.Fatal("clean left the L2 dirty bit")
	}
	if st.Perms[0] != tilelink.PermTrunk {
		t.Fatal("clean revoked the requester's permissions")
	}
	if r.m.PeekUint64(0x1000) != 9 {
		t.Fatal("clean did not reach DRAM")
	}
}

func TestRootReleaseProbesRemoteOwner(t *testing.T) {
	// §5.5: the flush must extract dirty data from other cores even when
	// the requester never owned the line.
	r := newRig(t, 2)
	r.acquire(0, 0x1000, tilelink.GrowNtoT) // core 0 will hold dirty data
	r.send(1, tilelink.Msg{Op: tilelink.OpRootReleaseFlush, Addr: 0x1000, Source: 1})
	probe := r.expect(0, 500)
	if probe.Op != tilelink.OpProbe || probe.Cap != tilelink.CapToN {
		t.Fatalf("owner got %v, want Probe toN", probe)
	}
	var dirty tilelink.Line
	dirty[0] = 55
	r.send(0, tilelink.Msg{Op: tilelink.OpProbeAckData, Addr: 0x1000, Source: 0,
		Shrink: tilelink.ShrinkTtoN, Data: dirty})
	if ack := r.expect(1, 500); ack.Op != tilelink.OpRootReleaseAck {
		t.Fatalf("got %v", ack.Op)
	}
	if r.m.PeekUint64(0x1000) != 55 {
		t.Fatal("remote dirty data did not reach DRAM")
	}
}

func TestRootReleaseCleanDoesNotProbeRequester(t *testing.T) {
	r := newRig(t, 1)
	r.acquire(0, 0x1000, tilelink.GrowNtoT)
	r.send(0, tilelink.Msg{Op: tilelink.OpRootReleaseClean, Addr: 0x1000, Source: 0})
	if ack := r.expect(0, 500); ack.Op != tilelink.OpRootReleaseAck {
		t.Fatalf("got %v (the requester must not be probed on a clean)", ack.Op)
	}
	if r.c.Stats().ProbesSent != 0 {
		t.Fatal("clean probed the requester")
	}
}

func TestRootReleaseOfAbsentLineAcksImmediately(t *testing.T) {
	r := newRig(t, 1)
	r.send(0, tilelink.Msg{Op: tilelink.OpRootReleaseFlush, Addr: 0x9000, Source: 0})
	if ack := r.expect(0, 500); ack.Op != tilelink.OpRootReleaseAck {
		t.Fatalf("got %v", ack.Op)
	}
	if r.c.Stats().RootReleaseSkips != 1 {
		t.Fatal("absent-line RootRelease not counted as trivial skip")
	}
}

func TestTrivialSkipAvoidsMemoryWrite(t *testing.T) {
	// §5.5/§7.4: the LLC eliminates writebacks of clean lines by checking
	// its dirty bit.
	r := newRig(t, 1)
	r.acquire(0, 0x1000, tilelink.GrowNtoT)
	writes := r.m.Stats().Writes
	r.send(0, tilelink.Msg{Op: tilelink.OpRootReleaseClean, Addr: 0x1000, Source: 0})
	if ack := r.expect(0, 500); ack.Op != tilelink.OpRootReleaseAck {
		t.Fatalf("got %v", ack.Op)
	}
	if r.m.Stats().Writes != writes {
		t.Fatal("clean of a clean line wrote memory")
	}
}

func TestEvictionProbesAndWritesBack(t *testing.T) {
	r := newRig(t, 1)
	cfg := r.c.Config()
	// Fill one set beyond capacity: addresses with identical set index.
	stride := uint64(cfg.Sets) * cfg.LineBytes
	for w := 0; w <= cfg.Ways; w++ {
		addr := uint64(w) * stride
		r.send(0, tilelink.Msg{Op: tilelink.OpAcquireBlock, Addr: addr, Source: 0, Grow: tilelink.GrowNtoT})
		// The (Ways+1)-th acquire forces an eviction whose victim we
		// still own: answer the probe, then take the grant.
		for {
			m := r.expect(0, 2000)
			if m.Op == tilelink.OpProbe {
				r.send(0, tilelink.Msg{Op: tilelink.OpProbeAck, Addr: m.Addr, Source: 0,
					Shrink: tilelink.ShrinkTtoN})
				continue
			}
			if m.Op == tilelink.OpGrantData || m.Op == tilelink.OpGrantDataDirty {
				r.send(0, tilelink.Msg{Op: tilelink.OpGrantAck, Addr: addr, Source: 0})
				r.step()
				break
			}
			t.Fatalf("unexpected %v", m)
		}
	}
	if r.c.Stats().Evictions == 0 {
		t.Fatal("no eviction despite over-capacity set")
	}
	// The first line must be gone (inclusive eviction).
	if r.c.LineState(0).Present {
		t.Fatal("victim still present")
	}
}

func TestBusyAndReset(t *testing.T) {
	r := newRig(t, 1)
	if r.c.Busy() {
		t.Fatal("fresh L2 busy")
	}
	r.send(0, tilelink.Msg{Op: tilelink.OpAcquireBlock, Addr: 0x1000, Source: 0, Grow: tilelink.GrowNtoB})
	for i := 0; i < 5; i++ {
		r.step()
	}
	if !r.c.Busy() {
		t.Fatal("L2 idle with transaction in flight")
	}
	r.c.Reset()
	if r.c.Busy() {
		t.Fatal("L2 busy after reset")
	}
	if r.c.LineState(0x1000).Present {
		t.Fatal("line survived reset")
	}
}

func TestManyRootReleasesPipelineThroughMSHRs(t *testing.T) {
	// More concurrent RootReleases than MSHRs: the ListBuffer absorbs the
	// overflow and every request is eventually acknowledged.
	r := newRig(t, 1)
	n := r.c.Config().NumMSHRs * 3
	for i := 0; i < n; i++ {
		r.send(0, tilelink.Msg{Op: tilelink.OpRootReleaseFlush, Addr: uint64(i) * 64, Source: 0})
	}
	acks := 0
	for i := 0; i < 20_000 && acks < n; i++ {
		if m, ok := r.ports[0].D.Recv(r.now); ok {
			if m.Op != tilelink.OpRootReleaseAck {
				t.Fatalf("unexpected %v", m)
			}
			acks++
		}
		r.step()
	}
	if acks != n {
		t.Fatalf("%d/%d RootReleases acknowledged", acks, n)
	}
}

func TestSameLineRootReleasesSerializeInOrder(t *testing.T) {
	// Two back-to-back RootReleases for the same line: the ListBuffer must
	// serialize them (one MSHR per line), both get acknowledged, and only
	// the first (dirty) one writes memory — the second hits the §5.5
	// trivial skip.
	r := newRig(t, 1)
	r.acquire(0, 0x1000, tilelink.GrowNtoT)
	var dirty tilelink.Line
	dirty[0] = 77
	r.send(0, tilelink.Msg{Op: tilelink.OpRootReleaseCleanData, Addr: 0x1000, Source: 0,
		Dirty: true, Data: dirty})
	r.send(0, tilelink.Msg{Op: tilelink.OpRootReleaseClean, Addr: 0x1000, Source: 0})

	acks := 0
	for i := 0; i < 20_000 && acks < 2; i++ {
		if m, ok := r.ports[0].D.Recv(r.now); ok {
			if m.Op != tilelink.OpRootReleaseAck {
				t.Fatalf("unexpected %v", m)
			}
			acks++
		}
		r.step()
	}
	if acks != 2 {
		t.Fatalf("%d acks, want 2", acks)
	}
	if r.m.PeekUint64(0x1000) != 77 {
		t.Fatal("dirty data did not reach memory")
	}
	if got := r.m.Stats().Writes; got != 1 {
		t.Fatalf("memory writes = %d, want 1 (second clean trivially skipped)", got)
	}
	if r.c.Stats().RootReleaseSkips != 1 {
		t.Fatalf("trivial skips = %d, want 1", r.c.Stats().RootReleaseSkips)
	}
}

func TestGrantAfterFlushIsCleanGrantData(t *testing.T) {
	// After a flush wrote the line to DRAM, a re-acquire gets GrantData
	// (not Dirty): the refill comes from memory, so the skip bit is valid.
	r := newRig(t, 1)
	r.acquire(0, 0x1000, tilelink.GrowNtoT)
	var dirty tilelink.Line
	r.send(0, tilelink.Msg{Op: tilelink.OpRootReleaseFlushData, Addr: 0x1000, Source: 0,
		Dirty: true, Data: dirty})
	if ack := r.expect(0, 1000); ack.Op != tilelink.OpRootReleaseAck {
		t.Fatalf("got %v", ack.Op)
	}
	g := r.acquire(0, 0x1000, tilelink.GrowNtoT)
	if g.Op != tilelink.OpGrantData {
		t.Fatalf("post-flush grant = %v, want clean GrantData", g.Op)
	}
}
