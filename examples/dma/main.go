// DMA consistency (§1, §2.5): a device reading buffers straight from main
// memory sees stale data unless the CPU explicitly writes its cached copy
// back first. The "device" here reads the simulated DRAM directly — exactly
// what a non-coherent DMA engine does — while the CPU prepares a buffer in
// its writeback caches.
package main

import (
	"fmt"
	"io"
	"os"

	"skipit"
)

const bufBase = 0x4000
const bufLines = 8

// deviceRead models a DMA engine pulling the buffer from main memory,
// bypassing the CPU caches.
func deviceRead(sys *skipit.System) []uint64 {
	out := make([]uint64, bufLines)
	for i := range out {
		out[i] = skipit.NVMMValue(sys, bufBase+uint64(i)*64)
	}
	return out
}

func prepare(withClean bool) *skipit.Program {
	b := skipit.NewProgram()
	for i := 0; i < bufLines; i++ {
		b.Store(bufBase+uint64(i)*64, uint64(100+i))
	}
	if withClean {
		for i := 0; i < bufLines; i++ {
			b.CboClean(bufBase + uint64(i)*64)
		}
	}
	b.Fence()
	return b.Build()
}

func run(w io.Writer, withClean bool) {
	sys := skipit.NewSystem(1)
	if _, err := sys.Run([]*skipit.Program{prepare(withClean)}, 1_000_000); err != nil {
		panic(err)
	}
	got := deviceRead(sys)
	ok := true
	for i, v := range got {
		if v != uint64(100+i) {
			ok = false
		}
	}
	mode := "store + fence only      "
	if withClean {
		mode = "store + CBO.CLEAN + fence"
	}
	fmt.Fprintf(w, "%s -> device sees %v", mode, got)
	if ok {
		fmt.Fprintln(w, "  (complete: DMA-safe)")
	} else {
		fmt.Fprintln(w, "  (STALE: the buffer is still in the CPU caches)")
	}
}

// report prepares the buffer without and with the explicit clean.
func report(w io.Writer) {
	fmt.Fprintln(w, "device performs DMA reads from main memory, bypassing CPU caches:")
	run(w, false) // fence alone orders, but does not write anything back
	run(w, true)  // explicit clean makes the buffer visible to the device
}

func main() { report(os.Stdout) }
