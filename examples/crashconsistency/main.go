// Crash consistency: a persistent append-only log on NVMM. Each record is
// written, written back with CBO.CLEAN, and then the record count is
// updated, written back, and fenced — so a crash at any moment leaves a
// prefix of the log recoverable. The example crashes the machine mid-append
// and recovers from the persistence domain.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"skipit"
)

const (
	countAddr = 0x1000 // persistent record count
	logBase   = 0x2000 // records, one 64 B line each
)

func recordAddr(i int) uint64 { return logBase + uint64(i)*64 }

// appendRecords builds the program that appends records [from, to): write
// record, clean it, fence, then bump the durable count, clean, fence. The
// count update is ordered after the record's persistence, so the count never
// names an unpersisted record.
func appendRecords(from, to int) *skipit.Program {
	b := skipit.NewProgram()
	for i := from; i < to; i++ {
		b.Store(recordAddr(i), uint64(1000+i))
		b.CboClean(recordAddr(i))
		b.Fence()
		b.Store(countAddr, uint64(i+1))
		b.CboClean(countAddr)
		b.Fence()
	}
	return b.Build()
}

// report crashes the appender, recovers, and finishes the log.
func report(w io.Writer) {
	sys := skipit.NewSystem(1)

	// Run the appender but pull the plug after a fixed number of cycles —
	// long enough for some records, not all.
	sys.Cores[0].SetProgram(appendRecords(0, 20))
	const crashCycle = 1400
	for sys.Now() < crashCycle && !sys.Cores[0].Done() {
		sys.Step()
	}
	fmt.Fprintf(w, "power failure at cycle %d (appender mid-flight)\n", sys.Now())
	sys.Crash(false)

	// Recovery: the durable count tells us how many records are valid;
	// every one of them must be intact.
	count := int(skipit.NVMMValue(sys, countAddr))
	fmt.Fprintf(w, "recovered record count: %d\n", count)
	for i := 0; i < count; i++ {
		got := skipit.NVMMValue(sys, recordAddr(i))
		if got != uint64(1000+i) {
			log.Fatalf("CORRUPT: record %d = %d, want %d", i, got, 1000+i)
		}
	}
	fmt.Fprintf(w, "all %d counted records intact; records beyond the count are garbage by design\n", count)

	// The machine reboots and keeps appending from the recovered count.
	if _, err := sys.Run([]*skipit.Program{appendRecords(count, 20)}, 10_000_000); err != nil {
		log.Fatal(err)
	}
	sys.Crash(false) // even another crash cannot hurt now
	final := int(skipit.NVMMValue(sys, countAddr))
	fmt.Fprintf(w, "after recovery run + second crash: count = %d (want 20)\n", final)
	for i := 0; i < final; i++ {
		if skipit.NVMMValue(sys, recordAddr(i)) != uint64(1000+i) {
			log.Fatalf("CORRUPT record %d after recovery", i)
		}
	}
	fmt.Fprintln(w, "log fully recovered: crash consistency holds end to end")
}

func main() { report(os.Stdout) }
