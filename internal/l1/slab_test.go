package l1

import (
	"testing"
	"unsafe"

	"skipit/internal/tilelink"
)

func (d *DCache) slabCount() int {
	n := 0
	for _, s := range d.slabs {
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
	if n := d.slabCount(); n != 0 {
		t.Fatalf("fresh cache holds %d slabs", n)
	}
	if want := 64 * 8 / rowsPerSlab; len(d.slabs) != want {
		t.Fatalf("%d slab slots, want %d", len(d.slabs), want)
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
	if n := r.d.slabCount(); n == 0 {
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
