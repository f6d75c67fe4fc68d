package l2

import (
	"reflect"
	"testing"
	"unsafe"

	"skipit/internal/tilelink"
)

// fill acquires addr for client 0 and releases it dirty with val in its
// first byte, leaving the L2 the only holder.
func (r *rig) fill(addr uint64, val byte) {
	r.t.Helper()
	r.acquire(0, addr, tilelink.GrowNtoT)
	var data tilelink.Line
	data[0] = val
	r.send(0, tilelink.Msg{Op: tilelink.OpReleaseData, Addr: addr, Source: 0,
		Shrink: tilelink.ShrinkTtoN, Data: data})
	if ack := r.expect(0, 200); ack.Op != tilelink.OpReleaseAck {
		r.t.Fatalf("release of %#x answered with %v", addr, ack.Op)
	}
}

// peek returns the first byte of addr's L2 line, failing if it is absent.
func (r *rig) peek(addr uint64) byte {
	r.t.Helper()
	data, ok := r.c.PeekLine(addr)
	if !ok {
		r.t.Fatalf("line %#x not in the L2", addr)
	}
	return data[0]
}

// made counts the slabs of a first-use table that have been made.
func made[S ~[]E, E any](slabs S) int {
	n := 0
	for i := range slabs {
		if !reflect.ValueOf(slabs[i]).IsNil() {
			n++
		}
	}
	return n
}

// TestFrameIsPointerFree keeps the frame array out of the garbage
// collector's scan: a frame holds no pointer and fits in 24 bytes.
func TestFrameIsPointerFree(t *testing.T) {
	typ := reflect.TypeOf(line{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int64, reflect.Uint64, reflect.Uint32:
		default:
			t.Errorf("line.%s is a %v", f.Name, f.Type)
		}
	}
	if size := unsafe.Sizeof(line{}); size > 24 {
		t.Errorf("line is %d bytes, want at most 24", size)
	}
}

func TestFreshCacheHoldsNoSlab(t *testing.T) {
	r := newRig(t, 1)
	if n, m := made(r.c.slabs), made(r.c.frames); n != 0 || m != 0 {
		t.Fatalf("fresh cache holds %d data and %d frame slabs", n, m)
	}
	want := 1024 * 8 / rowsPerSlab
	if len(r.c.slabs) != want || len(r.c.frames) != want {
		t.Fatalf("%d data and %d frame slab slots, want %d", len(r.c.slabs), len(r.c.frames), want)
	}
}

func TestFirstFillMakesOneSlab(t *testing.T) {
	r := newRig(t, 1)
	r.m.PokeUint64(0x1000, 9)
	r.acquire(0, 0x1000, tilelink.GrowNtoB)
	if n := made(r.c.slabs); n != 1 {
		t.Fatalf("first fill made %d slabs, want 1", n)
	}
	// Way 0 of sets 64..127 shares the slab: rows are numbered way-major.
	r.acquire(0, 0x1fc0, tilelink.GrowNtoB)
	if n := made(r.c.slabs); n != 1 {
		t.Fatalf("second fill in the same slab made %d slabs, want 1", n)
	}
	if got := r.peek(0x1000); got != 9 {
		t.Fatalf("L2 holds %d, want 9", got)
	}
}

// TestSlabRowSurvivesNeighbourRefill evicts and refills a frame whose row
// shares a slab with another frame's, and checks the other frame's data,
// the written-back victim and the refilled row.
func TestSlabRowSurvivesNeighbourRefill(t *testing.T) {
	r := newRig(t, 1)
	cfg := r.c.Config()
	stride := uint64(cfg.Sets) * cfg.LineBytes
	const a, b = 0x0, 0x40 // way 0 of sets 0 and 1: rows 0 and 1
	r.fill(a, 0xa1)
	r.fill(b, 0xb1)
	// Fill the rest of set 1, then one more line: b is the LRU way, so the
	// refill lands in its frame.
	for w := 1; w < cfg.Ways; w++ {
		r.fill(b+uint64(w)*stride, byte(w))
	}
	c := b + uint64(cfg.Ways)*stride
	r.m.PokeUint64(c, 0xc1)
	r.acquire(0, c, tilelink.GrowNtoB)
	if r.c.LineState(b).Present {
		t.Fatal("b was not evicted")
	}
	if got := r.m.PeekUint64(b); got != 0xb1 {
		t.Fatalf("DRAM holds %#x for the evicted line, want 0xb1", got)
	}
	if got := r.peek(c); got != 0xc1 {
		t.Fatalf("refilled line holds %#x, want 0xc1", got)
	}
	if got := r.peek(a); got != 0xa1 {
		t.Fatalf("neighbouring frame holds %#x after the refill, want 0xa1", got)
	}
}

// TestGeometrySmallerThanOneSlab fills and then evicts every frame of a
// 4-set, 2-way L2, whose 8 rows share one slab.
func TestGeometrySmallerThanOneSlab(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Sets, cfg.Ways = 4, 2
	r := newRigConfig(t, cfg)
	const frames = 8
	for i := uint64(0); i < frames; i++ {
		r.fill(i*64, byte(i+1))
	}
	if n := made(r.c.slabs); n != 1 {
		t.Fatalf("%d slabs, want 1", n)
	}
	for i := uint64(0); i < frames; i++ {
		if got := r.peek(i * 64); got != byte(i+1) {
			t.Fatalf("line %#x holds %d, want %d", i*64, got, i+1)
		}
	}
	// A second working set evicts the first, writing it back.
	for i := uint64(frames); i < 2*frames; i++ {
		r.fill(i*64, byte(i+1))
	}
	for i := uint64(0); i < frames; i++ {
		if got := r.m.PeekUint64(i * 64); got != i+1 {
			t.Fatalf("DRAM holds %d for %#x, want %d", got, i*64, i+1)
		}
		if got := r.peek((i + frames) * 64); got != byte(i+frames+1) {
			t.Fatalf("line %#x holds %d, want %d", (i+frames)*64, got, i+frames+1)
		}
	}
}

// TestNeverFilledSetReadsAbsent looks up two never-filled sets, one whose
// frames share a slab with a filled set and one with no slab at all: both
// report the line absent, a victim search picks way 0, and none of it makes
// a slab.
func TestNeverFilledSetReadsAbsent(t *testing.T) {
	r := newRig(t, 1)
	r.acquire(0, 0x40, tilelink.GrowNtoB) // way 0 of set 1: frame slab 0
	if n := made(r.c.frames); n != 1 {
		t.Fatalf("one fill made %d frame slabs, want 1", n)
	}
	// Set 0 has frames (slab 0) that were never filled, tag 0 included;
	// set 100's way 0 lives in slab 1, which no fill made.
	for _, addr := range []uint64{0x0, 100 * 64} {
		if l := r.c.lookup(addr); l != nil {
			t.Errorf("lookup(%#x) found a frame in a never-filled set", addr)
		}
		if st := r.c.LineState(addr); st.Present || st.Dirty || st.Perms != nil {
			t.Errorf("LineState(%#x) = %+v, want absent", addr, st)
		}
		if w := r.c.pickVictim(r.c.index(addr)); w != 0 {
			t.Errorf("pickVictim in the set of %#x = %d, want way 0", addr, w)
		}
	}
	if n := made(r.c.frames); n != 1 {
		t.Fatalf("lookups made frame slabs: %d, want 1", n)
	}
}

// TestDirectoryMadeWithFrames checks that making a frame slab makes its
// directory entries, every one PermNone and one permission per client, and
// that each filled line's entry records its holder.
func TestDirectoryMadeWithFrames(t *testing.T) {
	r := newRig(t, 2)
	cfg := r.c.Config()
	r.c.frame(3, 0)
	if n := made(r.c.frames); n != 1 {
		t.Fatalf("frame made %d frame slabs, want 1", n)
	}
	if got, want := len(r.c.frames[0].perms), rowsPerSlab*cfg.NumClients; got != want {
		t.Fatalf("new frame slab holds %d directory entries, want %d", got, want)
	}
	for set := 0; set < rowsPerSlab; set++ {
		perms := r.c.permsOf(r.c.frameAt(set, 0))
		if len(perms) != cfg.NumClients || perms[0] != tilelink.PermNone || perms[1] != tilelink.PermNone {
			t.Fatalf("new frame (set %d, way 0) has directory entry %v", set, perms)
		}
	}
	stride := uint64(cfg.Sets) * cfg.LineBytes
	addrs := []uint64{0x40, 100 * 64, 0x40 + stride}
	for i, a := range addrs {
		r.acquire(i%2, a, tilelink.GrowNtoB)
	}
	if n := made(r.c.frames); n != 3 {
		t.Fatalf("fills in three slabs left %d frame slabs, want 3", n)
	}
	for i, a := range addrs {
		want := []tilelink.Perm{tilelink.PermBranch, tilelink.PermNone}
		if i%2 == 1 {
			want[0], want[1] = want[1], want[0]
		}
		if st := r.c.LineState(a); !st.Present || st.Perms[0] != want[0] || st.Perms[1] != want[1] {
			t.Fatalf("LineState(%#x) = %+v, want perms %v", a, st, want)
		}
	}
}

// TestResetClearsDirectory fills lines, resets, and checks that every
// directory entry of every made slab reads PermNone, so a refill of the
// same line starts from an empty entry.
func TestResetClearsDirectory(t *testing.T) {
	r := newRig(t, 2)
	cfg := r.c.Config()
	stride := uint64(cfg.Sets) * cfg.LineBytes
	for i, a := range []uint64{0x0, 0x40, 100 * 64, 0x40 + stride} {
		r.acquire(i%2, a, tilelink.GrowNtoT)
	}
	for i := 0; i < 20; i++ { // deliver the last GrantAck
		r.step()
	}
	r.c.Reset()
	for set := 0; set < cfg.Sets; set++ {
		for w := 0; w < cfg.Ways; w++ {
			if l := r.c.frameAt(set, w); l != nil {
				for cl, p := range r.c.permsOf(l) {
					if p != tilelink.PermNone {
						t.Fatalf("frame (set %d, way %d) lists client %d as %v after Reset", set, w, cl, p)
					}
				}
			}
		}
	}
	r.acquire(1, 0x40, tilelink.GrowNtoB)
	if st := r.c.LineState(0x40); st.Perms[0] != tilelink.PermNone || st.Perms[1] != tilelink.PermBranch {
		t.Fatalf("refilled line's directory entry = %v, want [None Branch]", st.Perms)
	}
}

// TestResetInvalidatesFramesKeepsData fills lines dirty across several
// frame slabs, resets, and checks that no frame is valid and that each
// line's data row still holds its bytes, as Reset documents.
func TestResetInvalidatesFramesKeepsData(t *testing.T) {
	r := newRig(t, 1)
	cfg := r.c.Config()
	stride := uint64(cfg.Sets) * cfg.LineBytes
	addrs := []uint64{0x0, 0x40, 100 * 64, 0x40 + stride, 0x40 + 2*stride}
	for i, a := range addrs {
		r.fill(a, byte(0xa0+i))
	}
	type pos struct{ set, way int }
	held := map[pos]byte{}
	for i, a := range addrs {
		set, tag := r.c.index(a), r.c.tag(a)
		for w := 0; w < cfg.Ways; w++ {
			if l := r.c.frameAt(set, w); l != nil && l.valid && l.tag == tag {
				held[pos{set, w}] = byte(0xa0 + i)
			}
		}
	}
	if len(held) != len(addrs) {
		t.Fatalf("found %d of %d filled frames", len(held), len(addrs))
	}
	r.c.Reset()
	for set := 0; set < cfg.Sets; set++ {
		for w := 0; w < cfg.Ways; w++ {
			if l := r.c.frameAt(set, w); l != nil && (l.valid || l.dirty || l.reserved) {
				t.Fatalf("frame (set %d, way %d) = %+v after Reset", set, w, *l)
			}
		}
	}
	for _, a := range addrs {
		if r.c.LineState(a).Present {
			t.Fatalf("%#x present after Reset", a)
		}
	}
	for p, v := range held {
		if got := r.c.dataOf(r.c.frame(p.set, p.way))[0]; got != v {
			t.Fatalf("data row of (set %d, way %d) holds %#x after Reset, want %#x", p.set, p.way, got, v)
		}
	}
}
