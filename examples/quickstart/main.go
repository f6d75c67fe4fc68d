// Quickstart: store a value, write it back with CBO.CLEAN, fence, and
// verify it reached the persistence domain — the Fig. 5(c) pattern — on the
// cycle-accurate simulator, with and without Skip It for a batch of
// redundant writebacks.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"skipit"
)

// report runs the three demonstrations.
func report(w io.Writer) {
	// 1. The basic durability chain: store -> CBO.CLEAN -> FENCE.
	sys := skipit.NewSystem(1)
	prog := skipit.NewProgram().
		Store(0x1000, 42).
		CboClean(0x1000).
		Fence().
		Build()
	if _, err := sys.Run([]*skipit.Program{prog}, 1_000_000); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(w, "after store+clean+fence: NVMM[0x1000] = %d (want 42)\n",
		skipit.NVMMValue(sys, 0x1000))

	// 2. Without the writeback, the store stays volatile: a crash loses it.
	sys2 := skipit.NewSystem(1)
	if _, err := sys2.Run([]*skipit.Program{
		skipit.NewProgram().Store(0x2000, 7).Build()}, 1_000_000); err != nil {
		log.Fatal(err)
	}
	sys2.Crash(false)
	fmt.Fprintf(w, "after store+crash (no writeback): NVMM[0x2000] = %d (want 0)\n",
		skipit.NVMMValue(sys2, 0x2000))

	// 3. Skip It drops redundant writebacks in the L1 (§6). Issue one real
	// clean and ten redundant ones; compare the flush unit's statistics.
	for _, skipIt := range []bool{true, false} {
		cfg := skipit.DefaultSystemConfig(1)
		cfg.L1.Flush.SkipIt = skipIt
		s := skipit.NewSystemWithConfig(cfg)
		b := skipit.NewProgram().Store(0x3000, 1).CboClean(0x3000).Fence()
		for i := 0; i < 10; i++ {
			b.CboClean(0x3000)
		}
		b.Fence()
		if _, err := s.Run([]*skipit.Program{b.Build()}, 1_000_000); err != nil {
			log.Fatal(err)
		}
		st := s.L1s[0].FlushUnit().Stats()
		fmt.Fprintf(w, "skipit=%-5v: %2d CBO.CLEAN offered, %2d dropped by the skip bit, "+
			"%d RootReleases reached the L2\n",
			skipIt, st.Offered, st.SkipDropped, st.RootReleases)
	}
}

func main() { report(os.Stdout) }
