package bench

import (
	"fmt"
	"testing"

	"skipit/internal/isa"
)

// TestFigureProgramsHoldNoSpareCapacity builds every Fig. 9/10/13 and
// ablation program shape and checks that each builder grew its slice once,
// by the program's exact length: a short count would reallocate mid-build,
// a long one would leave spare capacity.
func TestFigureProgramsHoldNoSpareCapacity(t *testing.T) {
	saved := LoopNops
	t.Cleanup(func() { LoopNops = saved })
	check := func(name string, p *isa.Program) {
		t.Helper()
		if len(p.Instrs) == 0 || cap(p.Instrs) != len(p.Instrs) {
			t.Errorf("%s: len %d, cap %d", name, len(p.Instrs), cap(p.Instrs))
		}
	}
	for _, nops := range []int{saved, 0} {
		LoopNops = nops
		for size := uint64(64); size <= 32768; size *= 2 {
			for _, threads := range []int{1, 2, 4, 8} {
				per := size / uint64(clampThreads(size, threads))
				for _, clean := range []bool{true, false} {
					shape := fmt.Sprintf("nops%d/size%d/threads%d/clean%v", nops, size, threads, clean)
					p, _, _ := buildSweep(0x1000, per, clean)
					check("fig9/"+shape, p)
					check("fig10/"+shape, buildWriteCboFenceRead(0x1000, per, clean))
					check("fig13/"+shape, buildRedundant(0x1000, per, 10, clean))
				}
			}
		}
	}
	p, _, _ := buildAblationSweep(4096)
	check("ablation-sweep", p)
	p, _ = buildAblationRedundant(512, 4)
	check("ablation-redundant", p)
}
