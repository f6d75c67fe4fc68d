package isa

import (
	"reflect"
	"testing"
)

func TestOpcodePredicates(t *testing.T) {
	cases := []struct {
		op       Op
		mem, stq bool
	}{
		{OpNop, false, false},
		{OpLoad, true, false},
		{OpStore, true, true},
		{OpCboClean, true, true},
		{OpCboFlush, true, true},
		{OpFence, true, true},
	}
	for _, c := range cases {
		if got := c.op.IsMem(); got != c.mem {
			t.Errorf("%v.IsMem() = %v, want %v", c.op, got, c.mem)
		}
		if got := c.op.IsStoreQueue(); got != c.stq {
			t.Errorf("%v.IsStoreQueue() = %v, want %v", c.op, got, c.stq)
		}
	}
}

func TestBuilderSequence(t *testing.T) {
	p := NewBuilder().
		Store(0x10, 1).
		Load(0x18).
		CboClean(0x10).
		CboFlush(0x40).
		Fence().
		Nop().
		Build()
	want := []Op{OpStore, OpLoad, OpCboClean, OpCboFlush, OpFence, OpNop}
	if p.Len() != len(want) {
		t.Fatalf("len = %d, want %d", p.Len(), len(want))
	}
	for i, op := range want {
		if p.Instrs[i].Op != op {
			t.Errorf("instr %d = %v, want %v", i, p.Instrs[i].Op, op)
		}
	}
	if p.Instrs[0].Data != 1 || p.Instrs[0].Addr != 0x10 {
		t.Error("store operands lost")
	}
}

func TestCboSelector(t *testing.T) {
	p := NewBuilder().Cbo(0, true).Cbo(0, false).Build()
	if p.Instrs[0].Op != OpCboClean || p.Instrs[1].Op != OpCboFlush {
		t.Fatalf("Cbo() mapped wrong: %v %v", p.Instrs[0].Op, p.Instrs[1].Op)
	}
}

func TestRegionBuilders(t *testing.T) {
	p := NewBuilder().
		StoreRegion(0, 256, 64, 9).
		CboRegion(0, 256, 64, false).
		LoadRegion(0, 256, 64).
		Build()
	if p.Len() != 12 {
		t.Fatalf("len = %d, want 12 (4 lines x 3 phases)", p.Len())
	}
	for i := 0; i < 4; i++ {
		if p.Instrs[i].Addr != uint64(i)*64 {
			t.Errorf("store %d addr %#x", i, p.Instrs[i].Addr)
		}
		if p.Instrs[i].Data != 9 {
			t.Errorf("store %d data %d", i, p.Instrs[i].Data)
		}
		if p.Instrs[4+i].Op != OpCboFlush {
			t.Errorf("cbo %d op %v", i, p.Instrs[4+i].Op)
		}
		if p.Instrs[8+i].Op != OpLoad {
			t.Errorf("load %d op %v", i, p.Instrs[8+i].Op)
		}
	}
}

func TestCboRegionLoopAddsNops(t *testing.T) {
	p := NewBuilder().CboRegionLoop(0, 128, 64, true, 3).Build()
	if p.Len() != 2*(1+3) {
		t.Fatalf("len = %d, want 8", p.Len())
	}
	if p.Instrs[0].Op != OpCboClean || p.Instrs[1].Op != OpNop {
		t.Fatal("loop layout wrong")
	}
}

// TestNopsMatchesRepeatedNop: Nops(n) appends exactly what n Nop calls do,
// and a zero or negative count appends nothing.
func TestNopsMatchesRepeatedNop(t *testing.T) {
	for _, n := range []int{-1, 0, 1, 7} {
		got := NewBuilder().Store(0, 1).Nops(n).Fence().Build()
		ref := NewBuilder().Store(0, 1)
		for i := 0; i < n; i++ {
			ref.Nop()
		}
		want := ref.Fence().Build()
		if !reflect.DeepEqual(got.Instrs, want.Instrs) {
			t.Fatalf("Nops(%d) = %v, want %v", n, got.Instrs, want.Instrs)
		}
	}
}

func TestMarkTracksNextIndex(t *testing.T) {
	b := NewBuilder()
	if b.Mark() != 0 {
		t.Fatal("fresh mark not 0")
	}
	b.Store(0, 1)
	m := b.Mark()
	if m != 1 {
		t.Fatalf("mark = %d, want 1", m)
	}
	b.Fence()
	p := b.Build()
	if p.Instrs[m].Op != OpFence {
		t.Fatal("mark does not index the next appended instruction")
	}
}

func TestInstrStrings(t *testing.T) {
	cases := map[string]Instr{
		"fence":          {Op: OpFence},
		"nop":            {Op: OpNop},
		"sd 0x10 <- 5":   {Op: OpStore, Addr: 0x10, Data: 5},
		"ld 0x20":        {Op: OpLoad, Addr: 0x20},
		"cbo.clean 0x40": {Op: OpCboClean, Addr: 0x40},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
