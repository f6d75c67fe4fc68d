package skipit_test

import (
	"fmt"
	"os"

	"skipit"
)

// The canonical durability chain of Fig. 5(c): a store becomes durable once
// a writeback of its line and a subsequent fence have completed.
func Example_durability() {
	sys := skipit.NewSystem(1)
	prog := skipit.NewProgram().
		Store(0x1000, 42).
		CboClean(0x1000).
		Fence().
		Build()
	if _, err := sys.Run([]*skipit.Program{prog}, 1_000_000); err != nil {
		panic(err)
	}
	sys.Crash(false) // power loss: caches gone, NVMM survives
	fmt.Println(skipit.NVMMValue(sys, 0x1000))
	// Output: 42
}

// Skip It drops redundant writebacks of persisted lines in the L1 (§6.1):
// ten redundant CBO.CLEANs produce a single RootRelease to the L2.
func Example_skipIt() {
	sys := skipit.NewSystem(1)
	b := skipit.NewProgram().Store(0x1000, 1).CboClean(0x1000).Fence()
	for i := 0; i < 10; i++ {
		b.CboClean(0x1000)
	}
	b.Fence()
	if _, err := sys.Run([]*skipit.Program{b.Build()}, 1_000_000); err != nil {
		panic(err)
	}
	st := sys.L1s[0].FlushUnit().Stats()
	fmt.Printf("dropped=%d rootreleases=%d\n", st.SkipDropped, st.RootReleases)
	// Output: dropped=10 rootreleases=1
}

// The behavioral layer runs real lock-free data structures over a simulated
// cache hierarchy with virtual per-thread clocks (§7.4).
func Example_persistentSet() {
	h := skipit.NewHierarchy(1)
	alloc := skipit.NewAllocator(1 << 20)
	env := &skipit.PersistEnv{Pol: skipit.NewSkipItPolicy(h), Mode: skipit.Automatic}
	set := skipit.NewBST(env, alloc)

	set.Insert(0, 7)
	fmt.Println(set.Contains(0, 7), set.Contains(0, 8), set.Delete(0, 7), set.Contains(0, 7))
	fmt.Println(h.Clock(0) > 0) // every access charged virtual cycles
	// Output:
	// true false true false
	// true
}

// Tracing streams every event of the hierarchy as it happens, one line
// each: the cycle, the component, the event and the line address, then the
// transaction id, the cause and the event's named arg. Here a store misses
// and acquires its line; the flush writes it back (the skip-audit records
// show why a writeback was issued) through the L2 to DRAM.
func Example_tracing() {
	sys := skipit.NewSystem(1)
	sys.TraceTo(skipit.NewTextTrace(os.Stdout))
	prog := skipit.NewProgram().Store(0x1000, 1).CboFlush(0x1000).Fence().Build()
	if _, err := sys.Run([]*skipit.Program{prog}, 1_000_000); err != nil {
		panic(err)
	}
	// Output:
	//        1  l1[0]    store-miss           0x1000  txn=1
	//        2  l1[0]    acquire              0x1000  txn=1 NtoT
	//       72  mem      mem-read             0x1000  txn=1
	//       72  l2       grant                0x1000  txn=1 client=0
	//       78  l1[0]    grant                0x1000  txn=1 client=0
	//       81  l1[0]    grant-ack            0x1000  txn=1
	//       85  flush[0] cbo-enqueue          0x1000  txn=2 flush depth=1
	//       86  flush[0] fshr-alloc           0x1000  txn=2 flush fshr=0
	//       88  flush[0] root-release         0x1000  txn=2 flush client=0
	//       88  flush[0] skip-audit           0x1000  txn=2 dirty-line issued=1
	//      101  l2       root-release         0x1000  txn=2 flush client=0
	//      101  l2       skip-audit           0x1000  txn=2 dirty-line issued=1
	//      109  mem      mem-write            0x1000  txn=2
	//      109  l2       root-release-ack     0x1000  txn=2 client=0
	//      112  flush[0] fshr-ack             0x1000  txn=2 flush latency=26
}
