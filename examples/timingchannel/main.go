// Timing channel mitigation (§1, §8): cache state left behind by a victim
// leaks which lines it touched — a flush+reload-style observation. Explicit
// flushes at the security boundary (as FaSe/MI6-style defenses do, with
// exactly the instructions this paper implements) close the channel.
//
// The example also demonstrates a real interaction the paper does not
// discuss: §6.1 drops a CBO.FLUSH that hits a clean line with the skip bit
// set — *without invalidating it*. That is sound for persistence (the data
// is already durable) but defeats flush-based timing-channel defenses: the
// victim's read-only footprint stays cached. Security-boundary flushing
// therefore needs Skip It disabled (or a non-droppable flush variant).
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"skipit"
)

const (
	line0 = 0x10000 // probed line for secret=0
	line1 = 0x20000 // probed line for secret=1
)

// run executes victim-then-attacker time-shared on one core and returns the
// attacker's probe latencies for both lines.
func run(secret int, mitigate, skipIt bool) (lat0, lat1 int64) {
	cfg := skipit.DefaultSystemConfig(1)
	cfg.L1.Flush.SkipIt = skipIt
	sys := skipit.NewSystemWithConfig(cfg)
	b := skipit.NewProgram()

	// Victim: secret-dependent access.
	if secret == 0 {
		b.Load(line0)
	} else {
		b.Load(line1)
	}
	b.Fence()

	// Security boundary (context switch): the OS flushes the shared
	// footprint before the attacker runs.
	if mitigate {
		b.CboFlush(line0).CboFlush(line1).Fence()
	}

	// Attacker: probe both lines and time each load.
	p0 := b.Mark()
	b.Load(line0)
	b.Fence()
	p1 := b.Mark()
	b.Load(line1)
	b.Fence()

	if _, err := sys.Run([]*skipit.Program{b.Build()}, 1_000_000); err != nil {
		log.Fatal(err)
	}
	t0 := sys.Cores[0].Timing(p0)
	t1 := sys.Cores[0].Timing(p1)
	return t0.CompletedAt - t0.IssuedAt, t1.CompletedAt - t1.IssuedAt
}

// guess applies the attacker's decision rule: a clearly faster probe is the
// line the victim touched.
func guess(lat0, lat1 int64) string {
	const margin = 10
	switch {
	case lat0+margin < lat1:
		return "attacker infers secret=0"
	case lat1+margin < lat0:
		return "attacker infers secret=1"
	}
	return "indistinguishable (channel closed)"
}

func show(w io.Writer, label string, mitigate, skipIt bool) {
	fmt.Fprintln(w, label)
	for secret := 0; secret <= 1; secret++ {
		l0, l1 := run(secret, mitigate, skipIt)
		fmt.Fprintf(w, "  real secret=%d: probe latencies %3d / %3d cycles -> %s\n",
			secret, l0, l1, guess(l0, l1))
	}
}

// report probes both secrets without mitigation, then with boundary flushes
// under Skip It on and off.
func report(w io.Writer) {
	show(w, "no mitigation (victim state survives the context switch):", false, true)
	show(w, "boundary CBO.FLUSH with Skip It ON — §6.1 drops the flush of the clean victim line, so it stays cached and STILL leaks:", true, true)
	show(w, "boundary CBO.FLUSH with Skip It OFF — the flush really invalidates:", true, false)
}

func main() { report(os.Stdout) }
