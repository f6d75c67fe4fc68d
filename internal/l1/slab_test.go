package l1

import (
	"testing"
	"unsafe"

	"skipit/internal/tilelink"
)

// made counts the slabs of a first-use array that have been made.
func made[T any](slabs [][]T) int {
	n := 0
	for _, s := range slabs {
		if s != nil {
			n++
		}
	}
	return n
}

// TestWayMetaIs24Bytes keeps the metadata array packed: the one-byte fields
// share a word.
func TestWayMetaIs24Bytes(t *testing.T) {
	if size := unsafe.Sizeof(wayMeta{}); size > 24 {
		t.Errorf("wayMeta is %d bytes, want at most 24", size)
	}
}

func TestFreshCacheHoldsNoSlab(t *testing.T) {
	d := New(DefaultConfig(0), tilelink.NewClientPort("t", 16, 64, 1))
	if n, m := made(d.slabs), made(d.metas); n != 0 || m != 0 {
		t.Fatalf("fresh cache holds %d data and %d metadata slabs", n, m)
	}
	if want := 64 * 8 / rowsPerSlab; len(d.slabs) != want || len(d.metas) != want {
		t.Fatalf("%d data and %d metadata slab slots, want %d", len(d.slabs), len(d.metas), want)
	}
}

// TestMetadataReadsMakeNoSlab runs every metadata read of a fresh cache —
// lookups, tag matches, the victim scan and the invariant checker's views —
// and checks that they see only invalid ways and make no slab. Set 0's
// addresses carry tag 0, the zero wayMeta's tag.
func TestMetadataReadsMakeNoSlab(t *testing.T) {
	d := New(DefaultConfig(0), tilelink.NewClientPort("t", 16, 64, 1))
	cfg := d.Config()
	stride := uint64(cfg.Sets) * cfg.LineBytes
	for _, addr := range []uint64{0, 0x40, 0xfc0, 3 * stride} {
		if d.lookup(addr) != nil || d.LineState(addr).Valid || d.findWay(addr, true) >= 0 {
			t.Errorf("fresh cache holds %#x", addr)
		}
		if got, want := d.findWay(addr, false), map[bool]int{true: 0, false: -1}[addr < stride]; got != want {
			t.Errorf("findWay(%#x, false) = %d, want %d", addr, got, want)
		}
		m := &mshr{state: mVictim, addr: addr, way: -1}
		d.tickVictim(0, m)
		if m.state != mInstall || m.way != 0 {
			t.Errorf("victim scan for %#x chose way %d (state %v), want way 0", addr, m.way, m.state)
		}
	}
	if lines := d.Lines(); len(lines) != 0 {
		t.Errorf("fresh cache lists %d lines", len(lines))
	}
	if n := made(d.metas); n != 0 {
		t.Fatalf("metadata reads made %d slabs", n)
	}
}

// TestInstallsFillMetadataSlabsWayMajor fills lines through the protocol:
// way 0 of every set shares one metadata slab, the first line in way 1
// makes the second, and Reset drops both.
func TestInstallsFillMetadataSlabsWayMajor(t *testing.T) {
	r := newL1Rig(t, nil)
	cfg := r.d.Config()
	stride := uint64(cfg.Sets) * cfg.LineBytes
	for _, addr := range []uint64{0x0, 0x40, stride - 64} {
		r.do(Req{Kind: Load, Addr: addr})
	}
	if n := made(r.d.metas); n != 1 {
		t.Fatalf("lines in way 0 of three sets made %d metadata slabs, want 1", n)
	}
	r.do(Req{Kind: Store, Addr: stride + 0x40, Data: 5}) // set 1 again: way 1
	if resp := r.do(Req{Kind: Load, Addr: stride + 0x40}); resp.Data != 5 {
		t.Fatalf("load after the store read %d, want 5", resp.Data)
	}
	if n := made(r.d.metas); n != 2 {
		t.Fatalf("a line in way 1 left %d metadata slabs, want 2", n)
	}
	if lines := r.d.Lines(); len(lines) != 4 {
		t.Fatalf("cache lists %d lines, want 4", len(lines))
	}
	if st := r.d.LineState(stride + 0x40); !st.Valid || !st.Dirty {
		t.Fatalf("stored line reads %+v, want valid and dirty", st)
	}
	r.d.Reset()
	if n := made(r.d.metas); n != 0 {
		t.Fatalf("Reset kept %d metadata slabs", n)
	}
	if lines := r.d.Lines(); len(lines) != 0 {
		t.Fatalf("cache lists %d lines after Reset", len(lines))
	}
}

// TestUnwrittenRowsReadZero writes one word into a few rows spread over
// several slabs and checks that those rows keep it and every other row of
// the cache reads as zeros.
func TestUnwrittenRowsReadZero(t *testing.T) {
	d := New(DefaultConfig(0), tilelink.NewClientPort("t", 16, 64, 1))
	cfg := d.Config()
	written := map[[2]int]uint64{
		{0, 0}: 0x11, {1, 0}: 0x22, {0, 1}: 0x33, {cfg.Sets - 1, cfg.Ways - 1}: 0x44,
	}
	for sw, v := range written {
		d.writeWord(sw[0], sw[1], 8, v)
	}
	for set := 0; set < cfg.Sets; set++ {
		for way := 0; way < cfg.Ways; way++ {
			want := written[[2]int{set, way}]
			for off := uint64(0); off < cfg.LineBytes; off += 8 {
				got := d.readWord(set, way, off)
				if off != 8 && got != 0 || off == 8 && got != want {
					t.Fatalf("row (set %d, way %d) word %d reads %#x", set, way, off, got)
				}
			}
		}
	}
}

// TestResetZeroesEveryRow fills lines through the protocol, resets, and
// checks that every row reads as zeros.
func TestResetZeroesEveryRow(t *testing.T) {
	r := newL1Rig(t, nil)
	cfg := r.d.Config()
	stride := uint64(cfg.Sets) * cfg.LineBytes
	for w := 0; w < 3; w++ {
		addr := 0x40 + uint64(w)*stride
		r.mgr.fill[addr] = 0xfeed + uint64(w)
		if resp := r.do(Req{Kind: Load, Addr: addr}); resp.Data != 0xfeed+uint64(w) {
			t.Fatalf("load of %#x returned %#x", addr, resp.Data)
		}
	}
	r.do(Req{Kind: Store, Addr: 0x80, Data: 7})
	if n := made(r.d.slabs); n == 0 {
		t.Fatal("filled cache holds no slab")
	}
	r.d.Reset()
	for set := 0; set < cfg.Sets; set++ {
		for way := 0; way < cfg.Ways; way++ {
			if got := *r.d.row(set, way); got != (tilelink.Line{}) {
				t.Fatalf("row (set %d, way %d) holds data after Reset", set, way)
			}
		}
	}
}
