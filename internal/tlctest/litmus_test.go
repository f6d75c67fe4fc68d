package tlctest

import (
	"path/filepath"
	"testing"

	"skipit/internal/chaos"
	"skipit/internal/sim"
	"skipit/internal/trace"
)

// The litmus tests replay the two races PR 3 fixed, as directed episodes:
// once against the fixed code (must pass, and must actually traverse the
// race window), and once with the fix reverted via a mutation knob (the
// scoreboard must fire, and the shrunk repro must replay).

// race1Script is the L1 discipline race: an Acquire issued while the same
// block's dirty ReleaseData is still crawling down a chaos-delayed C
// channel. With the discipline intact the Acquire waits for the ReleaseAck;
// with the bug armed the Acquire overtakes the Release on A and the L2
// grants the stale pre-write line.
func race1Script(bug bool) Script {
	s := Script{
		Agents:        2,
		Addrs:         []uint64{episodeAddr(0), episodeAddr(1)},
		Init:          []uint64{0x11, 0x22},
		AgentSeeds:    []int64{101, 202},
		CycleLimit:    20_000,
		WatchdogLimit: 5_000,
		Ops: []Op{
			{Agent: 0, Kind: OpWrite, Addr: 0, Val: 0xA1},
			{Agent: 0, Kind: OpReleaseN, Addr: 0},
			{Agent: 0, Kind: OpAcquireB, Addr: 0},
			{Agent: 1, Kind: OpAcquireB, Addr: 0, Delay: 800},
		},
		Schedule: chaos.Schedule{Faults: []chaos.Fault{
			{Cycle: 0, Kind: chaos.LinkDelay, Core: 0, Channel: 2, Duration: 2000, Extra: 40},
		}},
	}
	s.Bug.AcquireWhileReleasePending = bug
	return s
}

// race2Script is the L2 RootRelease-vs-eviction race: agent 0 flushes its
// dirty line but the RootReleaseFlushData sits in the FSHR-arbitration
// window (HoldC) while agent 1's acquires evict the line. Reaching the
// window needs the ProbeDuringFlushHold relaxation — with the §5.4.1
// flush_rdy discipline intact the evict probe would wait for the
// RootRelease and C-channel FIFO would land the data on a still-valid
// line — so the evict probe finds agent 0 already locally invalidated,
// answers NtoN, and the L2 drops the line. The flush data then arrives for
// an absent line. The fixed L2 captures it for a DRAM write-through; the
// drop mutation reverts that. Addresses are three aliases of L2 set 0
// against two ways.
func race2Script(drop bool) Script {
	s := Script{
		Agents:        2,
		Addrs:         []uint64{episodeAddr(0), episodeAddr(2), episodeAddr(4)},
		Init:          []uint64{0x11, 0x22, 0x33},
		AgentSeeds:    []int64{303, 404},
		CycleLimit:    30_000,
		WatchdogLimit: 5_000,
		Ops: []Op{
			{Agent: 0, Kind: OpWrite, Addr: 0, Val: 0xF1},
			{Agent: 0, Kind: OpFlush, Addr: 0, HoldC: 120},
			{Agent: 1, Kind: OpAcquireT, Addr: 1, Delay: 90},
			{Agent: 1, Kind: OpAcquireT, Addr: 2},
		},
		DropRootReleaseRaceData: drop,
	}
	s.Bug.ProbeDuringFlushHold = true
	return s
}

func TestLitmusRace1Fixed(t *testing.T) {
	fail, st := RunScript(race1Script(false))
	if fail != nil {
		t.Fatalf("fixed-discipline litmus failed: %s (cycle %d)", fail.Message, fail.Cycle)
	}
	if st.Releases == 0 || st.Grants < 3 {
		t.Fatalf("litmus did not exercise the release/reacquire path: %+v", st)
	}
}

func TestLitmusRace1Mutation(t *testing.T) {
	s := race1Script(true)
	fail, _ := RunScript(s)
	if fail == nil {
		t.Fatal("reverting the acquire-while-release-pending discipline did not fire the scoreboard")
	}
	if fail.Kind != "violation" || fail.Violation == nil || fail.Violation.Kind != "value" {
		t.Fatalf("expected a value violation (stale grant), got: %+v", fail)
	}

	shrunk, runs := ShrinkScript(s, "violation", 200)
	if len(shrunk.Schedule.Faults) > len(s.Schedule.Faults) || len(shrunk.Ops) > len(s.Ops) {
		t.Fatalf("shrinking grew the script (%d runs)", runs)
	}
	// The race needs at least the write, the release and the racing
	// acquire; ddmin must keep it failing.
	sfail, _ := RunScript(shrunk)
	if sfail == nil || sfail.Kind != "violation" {
		t.Fatalf("shrunk script no longer fails: %+v", sfail)
	}

	path := filepath.Join(t.TempDir(), "race1.tlc.json")
	if err := WriteRepro(path, Repro{Script: shrunk, Failure: sfail}); err != nil {
		t.Fatal(err)
	}
	rep, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	rfail, _ := RunScript(rep.Script)
	if rfail == nil || rfail.Kind != "violation" || rfail.Violation.Kind != "value" {
		t.Fatalf("replayed artifact does not reproduce the violation: %+v", rfail)
	}
	if rfail.Cycle != sfail.Cycle {
		t.Fatalf("replay is not cycle-identical: %d vs %d", rfail.Cycle, sfail.Cycle)
	}
}

// TestCommittedArtifactReplays pins the committed race1 artifact, the
// shrunk value violation TestLitmusRace1Mutation produces: the replay must
// reproduce the recorded failure kind, cycle and violation kind,
// bit-identically, on every machine.
func TestCommittedArtifactReplays(t *testing.T) {
	rep, err := LoadRepro("testdata/race1.tlc.json")
	if err != nil {
		t.Fatal(err)
	}
	want := rep.Failure
	if want == nil || want.Kind != "violation" || want.Violation == nil || want.Violation.Kind != "value" {
		t.Fatalf("artifact should record a value violation: %+v", want)
	}
	got, _ := RunScript(rep.Script)
	if got == nil {
		t.Fatal("replay ran clean")
	}
	if got.Kind != want.Kind || got.Cycle != want.Cycle || got.Violation == nil || got.Violation.Kind != want.Violation.Kind {
		t.Fatalf("replay diverged: got %+v, recorded %+v", got, want)
	}
}

func TestLitmusRace2Fixed(t *testing.T) {
	var rec *trace.Recorder
	fail, st := runScript(race2Script(false), true, func(sys *sim.System) {
		sys.EnableFlightRecorder(1024)
		rec = sys.FlightRecorder()
	})
	if fail != nil {
		t.Fatalf("fixed-L2 litmus failed: %s (cycle %d)", fail.Message, fail.Cycle)
	}
	// The whole point of the script is to traverse the race branch: the
	// RootRelease data must have arrived for an already-evicted line.
	if st.RootReleaseRaces == 0 {
		t.Fatalf("litmus did not reach the RootRelease-vs-eviction race window: %+v", st)
	}
	// The L2 writes the carried data through to DRAM, and its skip-audit
	// record names the race as the cause.
	var races uint64
	for _, d := range rec.Dump() {
		for _, e := range d.Events {
			if d.Component == "l2" && e.Code == "skip-audit" && e.Cause == "root-release-race" && e.Arg == 1 {
				races++
			}
		}
	}
	if races != st.RootReleaseRaces {
		t.Fatalf("l2 recorded %d root-release-race skip-audits, want one per race (%d)", races, st.RootReleaseRaces)
	}
}

func TestLitmusRace2Mutation(t *testing.T) {
	s := race2Script(true)
	fail, st := RunScript(s)
	if fail == nil {
		t.Fatal("dropping the raced RootRelease writeback did not fire the scoreboard")
	}
	if fail.Kind != "violation" || fail.Violation == nil || fail.Violation.Kind != "durability" {
		t.Fatalf("expected a durability violation (lost writeback), got: %+v", fail)
	}
	if st.RootReleaseRaces == 0 {
		t.Fatalf("mutation fired without traversing the race window: %+v", st)
	}

	shrunk, _ := ShrinkScript(s, "violation", 200)
	sfail, _ := RunScript(shrunk)
	if sfail == nil || sfail.Kind != "violation" {
		t.Fatalf("shrunk script no longer fails: %+v", sfail)
	}

	path := filepath.Join(t.TempDir(), "race2.tlc.json")
	if err := WriteRepro(path, Repro{Script: shrunk, Failure: sfail}); err != nil {
		t.Fatal(err)
	}
	rep, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	rfail, _ := RunScript(rep.Script)
	if rfail == nil || rfail.Kind != "violation" || rfail.Violation.Kind != "durability" {
		t.Fatalf("replayed artifact does not reproduce the violation: %+v", rfail)
	}
}
