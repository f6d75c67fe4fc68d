package chaos

import (
	"fmt"

	"skipit/internal/boom"
	"skipit/internal/isa"
)

// golden replays a program under sequential semantics. For instruction i,
// read[i] is the value a load or AMO must return and wrote[i] the value a
// store or AMO leaves in its word.
func golden(p *isa.Program) (read, wrote []uint64) {
	mem := map[uint64]uint64{}
	read = make([]uint64, len(p.Instrs))
	wrote = make([]uint64, len(p.Instrs))
	for i, in := range p.Instrs {
		read[i] = mem[in.Addr]
		switch in.Op {
		case isa.OpStore, isa.OpAmoSwap:
			mem[in.Addr] = in.Data
		case isa.OpAmoAdd:
			mem[in.Addr] += in.Data
		}
		wrote[i] = mem[in.Addr]
	}
	return read, wrote
}

func writes(op isa.Op) bool {
	return op == isa.OpStore || op == isa.OpAmoAdd || op == isa.OpAmoSwap
}

// checkValues holds every completed load and AMO to the golden model.
// Address spaces are disjoint per core, so each must observe exactly the
// value its own program's history dictates; any divergence is data
// corruption the cache hierarchy let through.
func checkValues(progs []*isa.Program, timings [][]boom.Timing, now int64) *Failure {
	for c, p := range progs {
		if p == nil {
			continue
		}
		read, _ := golden(p)
		for i, in := range p.Instrs {
			t := timings[c][i]
			loads := in.Op == isa.OpLoad || in.Op == isa.OpAmoAdd || in.Op == isa.OpAmoSwap
			if loads && t.CompletedAt >= 0 && t.LoadValue != read[i] {
				return &Failure{
					Kind:  FailCorruption,
					Cycle: now,
					Message: fmt.Sprintf(
						"core %d instr %d (%v %#x): loaded %#x, golden model says %#x",
						c, i, in.Op, in.Addr, t.LoadValue, read[i]),
				}
			}
		}
	}
	return nil
}

// checkDurability holds each crashed core's words in NVMM to the Fig. 5(c)
// rule. A write (store or AMO) is covered when a CBO.X to its line later in
// program order completed and a fence after that CBO completed too; the
// word must then hold the value of its last covered write or of a later
// write (evictions persist data opportunistically). A word with no covered
// write may also still hold 0. CFLUSH.D.L1 stops at the L2 and covers
// nothing.
func checkDurability(progs []*isa.Program, timings [][]boom.Timing, nvmm func(uint64) uint64, now int64) *Failure {
	for c, p := range progs {
		if p == nil {
			continue
		}
		if msg := durabilityViolation(p, timings[c], nvmm); msg != "" {
			return &Failure{Kind: FailDurability, Cycle: now, Message: fmt.Sprintf("core %d: %s", c, msg)}
		}
	}
	return nil
}

// durabilityViolation describes the first word of p whose NVMM value the
// rule forbids, or returns "".
func durabilityViolation(p *isa.Program, timings []boom.Timing, nvmm func(uint64) uint64) string {
	_, wrote := golden(p)
	covered := map[uint64]int{} // word -> its last covered write
	coveredLines := map[uint64]bool{}
	fenced := false
	for i := len(p.Instrs) - 1; i >= 0; i-- {
		in, done := p.Instrs[i], timings[i].CompletedAt >= 0
		switch {
		case in.Op == isa.OpFence && done:
			fenced = true
		case (in.Op == isa.OpCboClean || in.Op == isa.OpCboFlush) && done && fenced:
			coveredLines[in.Addr&^63] = true
		case writes(in.Op) && coveredLines[in.Addr&^63]:
			if _, ok := covered[in.Addr]; !ok {
				covered[in.Addr] = i
			}
		}
	}
	checked := map[uint64]bool{}
	for _, in := range p.Instrs {
		if !writes(in.Op) || checked[in.Addr] {
			continue
		}
		checked[in.Addr] = true
		got := nvmm(in.Addr)
		from, ok := covered[in.Addr]
		legal := !ok && got == 0
		for j := from; j < len(p.Instrs) && !legal; j++ {
			legal = writes(p.Instrs[j].Op) && p.Instrs[j].Addr == in.Addr && wrote[j] == got
		}
		switch {
		case !legal && ok:
			return fmt.Sprintf("word %#x: NVMM holds %#x, but instr %d's write of %#x was covered by a completed CBO.X and fence",
				in.Addr, got, from, wrote[from])
		case !legal:
			return fmt.Sprintf("word %#x: NVMM holds %#x, which no write of the program left", in.Addr, got)
		}
	}
	return ""
}
