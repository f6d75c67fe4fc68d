package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse assembles a textual program, one instruction per line, using the
// same mnemonics Instr.String prints:
//
//	sd <addr> <value>     store 64-bit value
//	ld <addr>             load 64 bits
//	cbo.clean <addr>      non-invalidating writeback
//	cbo.flush <addr>      invalidating writeback
//	cflush.d.l1 <addr>    SiFive vendor L1 eviction
//	amoadd <addr> <value> atomic fetch-and-add
//	amoswap <addr> <value> atomic exchange
//	fence                 FENCE RW,RW
//	nop [count]           a run of count no-ops (default 1), one instruction
//
// Addresses and values accept decimal or 0x-prefixed hex. '#' and ';' start
// comments; blank lines are ignored. Errors carry the 1-based line number.
func Parse(src string) (*Program, error) {
	b := NewBuilder()
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexAny(line, "#;"); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		op := strings.ToLower(fields[0])
		argc := len(fields) - 1
		fail := func(format string, args ...any) (*Program, error) {
			return nil, fmt.Errorf("line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		switch op {
		case "sd", "store", "amoadd", "amoswap":
			if argc != 2 {
				return fail("%s needs <addr> <value>", op)
			}
			addr, err := parseNum(fields[1])
			if err != nil {
				return fail("bad address %q: %v", fields[1], err)
			}
			val, err := parseNum(fields[2])
			if err != nil {
				return fail("bad value %q: %v", fields[2], err)
			}
			switch op {
			case "amoadd":
				b.AmoAdd(addr, val)
			case "amoswap":
				b.AmoSwap(addr, val)
			default:
				b.Store(addr, val)
			}
		case "ld", "load":
			if argc != 1 {
				return fail("%s needs <addr>", op)
			}
			addr, err := parseNum(fields[1])
			if err != nil {
				return fail("bad address %q: %v", fields[1], err)
			}
			b.Load(addr)
		case "cbo.clean":
			if argc != 1 {
				return fail("cbo.clean needs <addr>")
			}
			addr, err := parseNum(fields[1])
			if err != nil {
				return fail("bad address %q: %v", fields[1], err)
			}
			b.CboClean(addr)
		case "cbo.flush":
			if argc != 1 {
				return fail("cbo.flush needs <addr>")
			}
			addr, err := parseNum(fields[1])
			if err != nil {
				return fail("bad address %q: %v", fields[1], err)
			}
			b.CboFlush(addr)
		case "cflush.d.l1":
			if argc != 1 {
				return fail("cflush.d.l1 needs <addr>")
			}
			addr, err := parseNum(fields[1])
			if err != nil {
				return fail("bad address %q: %v", fields[1], err)
			}
			b.CflushDL1(addr)
		case "fence":
			if argc != 0 {
				return fail("fence takes no operands")
			}
			b.Fence()
		case "nop":
			n := 1
			if argc == 1 {
				v, err := parseNum(fields[1])
				if err != nil || v == 0 || v > 1_000_000 {
					return fail("bad nop count %q", fields[1])
				}
				n = int(v)
			} else if argc > 1 {
				return fail("nop takes at most a count")
			}
			b.Nops(n)
		default:
			return fail("unknown mnemonic %q", fields[0])
		}
	}
	return b.Build(), nil
}

func parseNum(s string) (uint64, error) {
	return strconv.ParseUint(strings.TrimPrefix(strings.ToLower(s), "+"), 0, 64)
}

// Format renders a program in the syntax Parse accepts, so programs round-
// trip through text.
func Format(p *Program) string {
	var sb strings.Builder
	for _, in := range p.Instrs {
		switch in.Op {
		case OpStore:
			fmt.Fprintf(&sb, "sd %#x %d\n", in.Addr, in.Data)
		case OpAmoAdd:
			fmt.Fprintf(&sb, "amoadd %#x %d\n", in.Addr, in.Data)
		case OpAmoSwap:
			fmt.Fprintf(&sb, "amoswap %#x %d\n", in.Addr, in.Data)
		case OpLoad:
			fmt.Fprintf(&sb, "ld %#x\n", in.Addr)
		case OpCboClean:
			fmt.Fprintf(&sb, "cbo.clean %#x\n", in.Addr)
		case OpCboFlush:
			fmt.Fprintf(&sb, "cbo.flush %#x\n", in.Addr)
		case OpCflushDL1:
			fmt.Fprintf(&sb, "cflush.d.l1 %#x\n", in.Addr)
		case OpFence:
			sb.WriteString("fence\n")
		case OpNop:
			fmt.Fprintln(&sb, in) // "nop" or "nop <count>"
		}
	}
	return sb.String()
}
