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

func (c *Cache) slabCount() int {
	n := 0
	for _, s := range c.slabs {
		if s != nil {
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
	if n := r.c.slabCount(); n != 0 {
		t.Fatalf("fresh cache holds %d slabs", n)
	}
	if want := 1024 * 8 / rowsPerSlab; len(r.c.slabs) != want {
		t.Fatalf("%d slab slots, want %d", len(r.c.slabs), want)
	}
}

func TestFirstFillMakesOneSlab(t *testing.T) {
	r := newRig(t, 1)
	r.m.PokeUint64(0x1000, 9)
	r.acquire(0, 0x1000, tilelink.GrowNtoB)
	if n := r.c.slabCount(); n != 1 {
		t.Fatalf("first fill made %d slabs, want 1", n)
	}
	// Way 0 of sets 64..127 shares the slab: rows are numbered way-major.
	r.acquire(0, 0x1fc0, tilelink.GrowNtoB)
	if n := r.c.slabCount(); n != 1 {
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
	if n := r.c.slabCount(); n != 1 {
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
