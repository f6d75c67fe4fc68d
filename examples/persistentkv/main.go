// Persistent key-value store: the §7.4 software stack end to end. A
// lock-free hash table runs a mixed workload from two simulated threads
// under the automatic persistence algorithm, once per flush-elision scheme;
// the virtual-time throughputs show why eliding redundant writebacks matters
// and where Skip It lands against the software schemes. As in the figure
// runs, each thread draws from its own random stream and the threads take
// turns one operation at a time in one goroutine, so the output repeats
// exactly from run to run.
package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"

	"skipit"
)

const (
	threads   = 2
	keyRange  = 4096
	opsPerThr = 10_000
	updatePct = 10
)

func run(w io.Writer, name string, mkPolicy func(h *skipit.Hierarchy, alloc *skipit.Allocator) skipit.Policy) {
	h := skipit.NewHierarchy(threads)
	alloc := skipit.NewAllocator(1 << 20)
	env := &skipit.PersistEnv{Pol: mkPolicy(h, alloc), Mode: skipit.Automatic}
	kv := skipit.NewHashTable(env, alloc, 512)

	// Prefill half the key range.
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < keyRange/2; {
		if kv.Insert(0, uint64(rng.Intn(keyRange))+1) {
			n++
		}
	}

	rngs := make([]*rand.Rand, threads)
	for tid := range rngs {
		rngs[tid] = rand.New(rand.NewSource(int64(tid) + 42))
	}
	for i := 0; i < opsPerThr; i++ {
		for tid, r := range rngs {
			key := uint64(r.Intn(keyRange)) + 1
			switch roll := r.Intn(200); {
			case roll < updatePct:
				kv.Insert(tid, key)
			case roll < 2*updatePct:
				kv.Delete(tid, key)
			default:
				kv.Contains(tid, key)
			}
		}
	}

	ops := float64(threads * opsPerThr)
	fmt.Fprintf(w, "  %-18s %8.3f Mops/s\n", name, ops/h.MaxSeconds()/1e6)
}

// report runs the workload under each of the five schemes.
func report(w io.Writer) {
	fmt.Fprintf(w, "persistent hash table, %d threads, %d%% updates, automatic persistence:\n",
		threads, updatePct)
	run(w, "plain", func(h *skipit.Hierarchy, _ *skipit.Allocator) skipit.Policy {
		return skipit.NewPlainPolicy(h)
	})
	run(w, "flit-adjacent", func(h *skipit.Hierarchy, _ *skipit.Allocator) skipit.Policy {
		return skipit.NewFliTAdjacentPolicy(h)
	})
	run(w, "flit-hash", func(h *skipit.Hierarchy, alloc *skipit.Allocator) skipit.Policy {
		const entries = 1 << 20
		return skipit.NewFliTHashPolicy(h, entries, alloc.Alloc(entries*8))
	})
	run(w, "link-and-persist", func(h *skipit.Hierarchy, _ *skipit.Allocator) skipit.Policy {
		return skipit.NewLinkAndPersistPolicy(h)
	})
	run(w, "skipit", func(h *skipit.Hierarchy, _ *skipit.Allocator) skipit.Policy {
		return skipit.NewSkipItPolicy(h)
	})
}

func main() { report(os.Stdout) }
