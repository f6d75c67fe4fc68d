// Package isa defines the instruction vocabulary the simulated cores
// execute: 64-bit loads and stores, the RISC-V cache management operations
// CBO.CLEAN and CBO.FLUSH (§2.6), the full-strength FENCE RW,RW (the only
// fence the BOOM core implements, §4), and a compute no-op for padding.
// A run of no-ops is one instruction with a repeat count.
//
// Programs are built with a fluent builder and are plain data: the boom
// package gives them timing, the sim package gives them memory.
package isa

import "fmt"

// Op is an instruction opcode.
type Op uint8

const (
	OpNop Op = iota
	OpLoad
	OpStore
	OpCboClean
	OpCboFlush
	OpFence
	// OpCflushDL1 is SiFive's vendor extension CFLUSH.D.L1 (§2.6): it
	// evicts the line from the L1 only — dirty data reaches the L2, not
	// main memory — which is exactly why it cannot substitute for the
	// CBO.X instructions in persistence code.
	OpCflushDL1
	// OpAmoAdd and OpAmoSwap are RISC-V A-extension atomics (§2.4 lists
	// them among the orderings RVWMO provides): read-modify-write on the
	// 64-bit word, returning the old value. Like stores they live in the
	// STQ and fire at the ROB head, executing atomically in the L1 with
	// exclusive (Trunk) permissions.
	OpAmoAdd
	OpAmoSwap
)

func (o Op) String() string {
	return [...]string{"nop", "ld", "sd", "cbo.clean", "cbo.flush", "fence", "cflush.d.l1", "amoadd", "amoswap"}[o]
}

// IsMem reports whether the opcode accesses the memory system.
func (o Op) IsMem() bool { return o != OpNop }

// IsStoreQueue reports whether the opcode occupies an STQ slot: stores,
// CBO.X (encoded as STQ requests, §5.1) and fences (§3.2).
func (o Op) IsStoreQueue() bool {
	switch o {
	case OpStore, OpCboClean, OpCboFlush, OpFence, OpCflushDL1, OpAmoAdd, OpAmoSwap:
		return true
	}
	return false
}

// Instr is one instruction. Addr is a byte address (8-byte aligned for
// loads/stores); Data is the store payload, or a nop's repeat count. Loads
// deliver their result via the per-instruction timing record rather than a
// register file — the microbenchmarks of §7 measure cycles, not dataflow.
//
// A nop with Data n ≥ 2 is a run of n no-ops, the way Builder.Nops encodes a
// loop's overhead; a single nop has Data 0.
type Instr struct {
	Op   Op
	Addr uint64
	Data uint64
}

// NopCount returns how many no-ops a nop instruction stands for: its repeat
// count, and 1 for a single nop.
func (i Instr) NopCount() int { return max(int(i.Data), 1) }

func (i Instr) String() string {
	switch i.Op {
	case OpNop:
		if n := i.NopCount(); n > 1 {
			return fmt.Sprintf("nop %d", n)
		}
		return "nop"
	case OpFence:
		return i.Op.String()
	case OpStore, OpAmoAdd, OpAmoSwap:
		return fmt.Sprintf("%s %#x <- %d", i.Op, i.Addr, i.Data)
	default:
		return fmt.Sprintf("%s %#x", i.Op, i.Addr)
	}
}

// Program is an instruction sequence for one hardware thread.
type Program struct {
	Instrs []Instr
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.Instrs) }

// Builder assembles programs fluently:
//
//	p := isa.NewBuilder().Store(a, 1).CboFlush(a).Fence().Load(a).Build()
type Builder struct {
	instrs []Instr
}

// NewBuilder returns an empty program builder.
func NewBuilder() *Builder { return &Builder{} }

// Grow makes room for n more instructions. When it must grow, the new
// capacity is exactly n past the current length, so a builder grown once by
// its program's remaining length never reallocates and Build returns a
// program with no spare capacity.
func (b *Builder) Grow(n int) *Builder {
	if n > cap(b.instrs)-len(b.instrs) {
		s := make([]Instr, len(b.instrs), len(b.instrs)+n)
		copy(s, b.instrs)
		b.instrs = s
	}
	return b
}

// Store appends a 64-bit store of val to addr.
func (b *Builder) Store(addr, val uint64) *Builder {
	b.instrs = append(b.instrs, Instr{Op: OpStore, Addr: addr, Data: val})
	return b
}

// Load appends a 64-bit load from addr.
func (b *Builder) Load(addr uint64) *Builder {
	b.instrs = append(b.instrs, Instr{Op: OpLoad, Addr: addr})
	return b
}

// CboClean appends a non-invalidating writeback of addr's line.
func (b *Builder) CboClean(addr uint64) *Builder {
	b.instrs = append(b.instrs, Instr{Op: OpCboClean, Addr: addr})
	return b
}

// CboFlush appends an invalidating writeback of addr's line.
func (b *Builder) CboFlush(addr uint64) *Builder {
	b.instrs = append(b.instrs, Instr{Op: OpCboFlush, Addr: addr})
	return b
}

// Cbo appends CboClean when clean is true, else CboFlush.
func (b *Builder) Cbo(addr uint64, clean bool) *Builder {
	if clean {
		return b.CboClean(addr)
	}
	return b.CboFlush(addr)
}

// AmoAdd appends an atomic fetch-and-add of val to the word at addr.
func (b *Builder) AmoAdd(addr, val uint64) *Builder {
	b.instrs = append(b.instrs, Instr{Op: OpAmoAdd, Addr: addr, Data: val})
	return b
}

// AmoSwap appends an atomic exchange of val with the word at addr.
func (b *Builder) AmoSwap(addr, val uint64) *Builder {
	b.instrs = append(b.instrs, Instr{Op: OpAmoSwap, Addr: addr, Data: val})
	return b
}

// CflushDL1 appends SiFive's CFLUSH.D.L1: evict addr's line from the L1
// data cache to the next level (not to memory).
func (b *Builder) CflushDL1(addr uint64) *Builder {
	b.instrs = append(b.instrs, Instr{Op: OpCflushDL1, Addr: addr})
	return b
}

// Fence appends a FENCE RW,RW.
func (b *Builder) Fence() *Builder {
	b.instrs = append(b.instrs, Instr{Op: OpFence})
	return b
}

// Nop appends a compute no-op.
func (b *Builder) Nop() *Builder { return b.Nops(1) }

// Nops appends n compute no-ops as one instruction, a run of n, modeling the
// address arithmetic and branch overhead of a benchmark loop iteration. A
// zero or negative count appends nothing.
func (b *Builder) Nops(n int) *Builder {
	if n <= 0 {
		return b
	}
	in := Instr{Op: OpNop}
	if n > 1 {
		in.Data = uint64(n)
	}
	b.instrs = append(b.instrs, in)
	return b
}

// StoreRegion appends one store per cache line covering [base, base+size).
func (b *Builder) StoreRegion(base, size, lineBytes uint64, val uint64) *Builder {
	for a := base; a < base+size; a += lineBytes {
		b.Store(a, val)
	}
	return b
}

// CboRegion appends one CBO.X per cache line covering [base, base+size).
func (b *Builder) CboRegion(base, size, lineBytes uint64, clean bool) *Builder {
	for a := base; a < base+size; a += lineBytes {
		b.Cbo(a, clean)
	}
	return b
}

// CboRegionLoop is CboRegion with overheadNops no-ops per line, modeling the
// measured benchmark loop's address arithmetic and branch instructions.
func (b *Builder) CboRegionLoop(base, size, lineBytes uint64, clean bool, overheadNops int) *Builder {
	for a := base; a < base+size; a += lineBytes {
		b.Cbo(a, clean).Nops(overheadNops)
	}
	return b
}

// LoadRegion appends one load per cache line covering [base, base+size).
func (b *Builder) LoadRegion(base, size, lineBytes uint64) *Builder {
	for a := base; a < base+size; a += lineBytes {
		b.Load(a)
	}
	return b
}

// Mark returns the index the next appended instruction will have; benches
// use marks to measure cycle spans between program points.
func (b *Builder) Mark() int { return len(b.instrs) }

// Build returns the assembled program.
func (b *Builder) Build() *Program {
	return &Program{Instrs: b.instrs}
}
