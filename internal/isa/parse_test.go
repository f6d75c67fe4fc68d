package isa

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseBasicProgram(t *testing.T) {
	src := `
# durability chain
sd 0x1000 42
cbo.clean 0x1000
fence
ld 0x1000        ; re-read
nop 3
cflush.d.l1 0x1000
cbo.flush 4096
`
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []Instr{
		{Op: OpStore, Addr: 0x1000, Data: 42},
		{Op: OpCboClean, Addr: 0x1000},
		{Op: OpFence},
		{Op: OpLoad, Addr: 0x1000},
		{Op: OpNop, Data: 3}, // a run of three nops is one instruction
		{Op: OpCflushDL1, Addr: 0x1000},
		{Op: OpCboFlush, Addr: 4096},
	}
	if len(p.Instrs) != len(want) {
		t.Fatalf("parsed %d instrs, want %d", len(p.Instrs), len(want))
	}
	for i, w := range want {
		if p.Instrs[i] != w {
			t.Errorf("instr %d = %+v, want %+v", i, p.Instrs[i], w)
		}
	}
}

func TestParseAliases(t *testing.T) {
	p, err := Parse("store 8 1\nload 8\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Instrs[0].Op != OpStore || p.Instrs[1].Op != OpLoad {
		t.Fatal("aliases not accepted")
	}
}

func TestParseErrorsCarryLineNumbers(t *testing.T) {
	cases := []struct {
		src  string
		line string
	}{
		{"sd 0x10\n", "line 1"},
		{"fence\nbogus 1\n", "line 2"},
		{"ld zzz\n", "line 1"},
		{"fence 3\n", "line 1"},
		{"nop 0\n", "line 1"},
		{"sd 0x10 1 2\n", "line 1"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.line) {
			t.Errorf("Parse(%q) error %q lacks %q", c.src, err, c.line)
		}
	}
}

func TestParseEmptyAndCommentsOnly(t *testing.T) {
	p, err := Parse("\n# nothing\n   ; also nothing\n")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 {
		t.Fatalf("parsed %d instrs from comments", p.Len())
	}
}

// Property: Format/Parse round-trips any builder-constructed program.
func TestFormatParseRoundTrip(t *testing.T) {
	f := func(ops []uint16) bool {
		b := NewBuilder()
		for _, op := range ops {
			addr := uint64(op) * 8
			switch op % 7 {
			case 0:
				b.Store(addr, uint64(op)+1)
			case 1:
				b.Load(addr)
			case 2:
				b.CboClean(addr)
			case 3:
				b.CboFlush(addr)
			case 4:
				b.CflushDL1(addr)
			case 5:
				b.Fence()
			case 6:
				b.Nops(int(op>>3) % 100)
			}
		}
		p := b.Build()
		q, err := Parse(Format(p))
		if err != nil {
			return false
		}
		if len(q.Instrs) != len(p.Instrs) {
			return false
		}
		for i := range p.Instrs {
			if p.Instrs[i] != q.Instrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestFormatParseNopRuns: a nop run formats as "nop <count>" and parses back
// to the same single instruction; a single nop formats as plain "nop".
func TestFormatParseNopRuns(t *testing.T) {
	for src, want := range map[string]Instr{
		"nop\n":         {Op: OpNop},
		"nop 2\n":       {Op: OpNop, Data: 2},
		"nop 1000000\n": {Op: OpNop, Data: 1_000_000},
	} {
		p, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if len(p.Instrs) != 1 || p.Instrs[0] != want {
			t.Fatalf("Parse(%q) = %v, want [%v]", src, p.Instrs, want)
		}
		if got := Format(p); got != src {
			t.Fatalf("Format(Parse(%q)) = %q", src, got)
		}
	}
}
