package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"skipit/internal/bench"
	"skipit/internal/ds"
	"skipit/internal/persist"
	"skipit/internal/sim"
	"skipit/internal/sweep"
)

func TestUnitPercentilesNeedAHundredUnits(t *testing.T) {
	var ms []float64
	for i := 1; i <= minUnits-1; i++ {
		ms = append(ms, float64(i))
	}
	if _, _, err := unitPercentiles(ms); err == nil {
		t.Fatalf("%d units: want an error, a 90th percentile needs %d", len(ms), minUnits)
	}
	ms = append(ms, minUnits)
	p50, p90, err := unitPercentiles(ms)
	if err != nil {
		t.Fatal(err)
	}
	// internal/stats interpolates linearly between closest ranks: over
	// 1..100 the median is 50.5 and the 90th percentile 90.1.
	if p50 != 50.5 || math.Abs(p90-90.1) > 1e-9 {
		t.Fatalf("p50, p90 = %v, %v; want 50.5, 90.1", p50, p90)
	}
}

// TestFailedFracBase pins the base: every attempted unit, a baseline record
// no job produced counting as one more failed attempt.
func TestFailedFracBase(t *testing.T) {
	rec := func(name string, cycles float64) sweep.Record {
		return sweep.Record{Group: "g", Name: name, Fingerprint: "f", Cycles: cycles}
	}
	base := []sweep.Record{rec("a", 1), rec("b", 2), rec("c", 3), rec("d", 4)}
	p := figPass{
		keys: []string{"g/a", "g/b", "g/c"},
		results: []sweep.JobResult{
			{Group: "g", Record: rec("a", 1)},
			{Group: "g", Err: errors.New("timed out")},
			{Group: "g", Record: rec("c", 3.5)},
		},
	}
	attempted, failed, reasons := p.check(base)
	if attempted != 4 || failed != 3 {
		t.Fatalf("attempted %d, failed %d (%v); want 4 and 3: b errored, c differs, d missing", attempted, failed, reasons)
	}
	if got := failedFrac(failed, attempted); got != 0.75 {
		t.Fatalf("failed_frac %v, want 0.75", got)
	}
	if got := failedFrac(0, 0); got != 1 {
		t.Fatalf("failed_frac with nothing attempted is %v, want 1", got)
	}
}

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{
		{10, 30}, {20, 40}, // overlap: cover 10..40
		{25, 35},   // inside the union already
		{90, 120},  // sticks out past the parent's end: covers 90..100
		{-5, 5},    // starts before the parent: covers 0..5
		{200, 300}, // outside the parent
	}
	if got := selfTime(parent, children); got != 100-30-10-5 {
		t.Fatalf("self time %d, want %d", got, 100-30-10-5)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children %d, want 100", got)
	}
}

// TestSeedChangesOnlySocDensePrograms: the seed moves soc_dense's addresses
// and values, and nothing about the work: the simulated cycles and every
// counter of the same rounds match across seeds.
func TestSeedChangesOnlySocDensePrograms(t *testing.T) {
	a1, err := newSocInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := newSocInputs(1)
	b, _ := newSocInputs(2)
	if !reflect.DeepEqual(a1.rounds, a2.rounds) {
		t.Fatal("the same seed built different programs")
	}
	if reflect.DeepEqual(a1.rounds[0].progs, b.rounds[0].progs) || a1.rounds[0].value == b.rounds[0].value {
		t.Fatal("seeds 1 and 2 built the same programs")
	}
	run := func(in *socInputs) ([]int64, map[string]uint64) {
		var m measurement
		sys := sim.New(sim.DefaultConfig(socCores))
		log := runRounds(runStepper{sys}, sys, in, 0, 6, &m, nil, laneSoC)
		if m.failed > 0 {
			t.Fatalf("rounds failed their checks: %v", m.failures)
		}
		return log.cycles, sys.Snapshot().Counters
	}
	b.golden = a1.golden // the golden table must hold for any seed
	cyclesA, countersA := run(a1)
	cyclesB, countersB := run(b)
	if !reflect.DeepEqual(cyclesA, cyclesB) || !reflect.DeepEqual(countersA, countersB) {
		t.Fatalf("seeds 1 and 2 simulated different work: cycles %v vs %v", cyclesA, cyclesB)
	}
	if jobs := figJobs(cycleFigures); len(jobs) != 65 {
		t.Fatalf("figs_cycle has %d jobs, want the 65 quick-mode cycle-accurate points", len(jobs))
	}
	if jobs := figJobs(persistFigures); len(jobs) != 141 {
		t.Fatalf("figs_persist has %d jobs, want the 141 quick-mode §7.4 points", len(jobs))
	}
}

// TestFigPassMatchesBaseline runs Fig. 9's jobs through the timed runner,
// two workers reporting progress at once, and checks them against the
// committed baseline.
func TestFigPassMatchesBaseline(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil { // the baseline path is relative to the repository root
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	jobs := figJobs(map[string]bool{"9": true})
	base, err := figBaseline(jobs)
	if err != nil {
		t.Fatal(err)
	}
	p := runFigPass(jobs, true, newSpanRecorder(10))
	if attempted, failed, reasons := p.check(base); attempted != len(jobs) || failed != 0 {
		t.Fatalf("%d of %d jobs failed: %v", failed, attempted, reasons)
	}
	if n := len(p.snapshots().coreCounts); n != len(jobs) {
		t.Fatalf("%d snapshots from %d one-system jobs", n, len(jobs))
	}
	for i := range jobs {
		if p.runMS(i) <= 0 {
			t.Fatalf("job %d has no run time", i)
		}
	}
}

// guardSetup runs two soc_dense rounds through System.Run and returns what
// the stepping-driver guard compares against.
func guardSetup(t *testing.T) (*socInputs, *sim.System, roundLog) {
	t.Helper()
	in, err := newSocInputs(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	var m measurement
	sys, _ := warmSystem(in, &m)
	log := runRounds(runStepper{sys}, sys, in, socWarmRounds, 2, &m, nil, laneSoC)
	return in, sys, log
}

func TestComponentGuardCatchesSkippedL2Tick(t *testing.T) {
	in, want, wantLog := guardSetup(t)
	for _, plant := range []bool{false, true} {
		var m measurement
		sys, _ := warmSystem(in, &m)
		d := newComponentDriver(sys, nil)
		if plant {
			d.skipL2TickAt = sys.Now() + 500
		}
		got := runRounds(d, sys, in, socWarmRounds, 2, &m, nil, laneSoC)
		counters := sys.Snapshot().Counters
		counters["sim.skipped_cycles"] += uint64(d.skipped)
		err := guardRounds("component driver", want, wantLog, got, d.now, counters)
		if plant && err == nil {
			t.Fatal("one skipped L2 tick went past the identity guard")
		}
		if !plant && err != nil {
			t.Fatalf("faithful component driver failed the guard: %v", err)
		}
	}
}

func TestSimDriverPassesGuard(t *testing.T) {
	in, want, wantLog := guardSetup(t)
	var m measurement
	sys, _ := warmSystem(in, &m)
	d := newSimDriver(sys, nil)
	got := runRounds(d, sys, in, socWarmRounds, 2, &m, nil, laneSoC)
	if err := guardRounds("sim driver", want, wantLog, got, sys.Now(), sys.Snapshot().Counters); err != nil {
		t.Fatal(err)
	}
}

func TestPersistGuardCatchesDroppedFlush(t *testing.T) {
	bench.SetQuick()
	defer func(n int) { bench.PersistOpsPerThr = n }(bench.PersistOpsPerThr)
	bench.PersistOpsPerThr = 300
	c := persistConfig{ds.NameHash, persist.Automatic, bench.PolicyPlain, 20, bench.FliTDefaultTable}
	for _, plant := range []bool{false, true} {
		d := newPersistDriver(nil)
		if plant {
			d.dropFlush = 10
		}
		err := guardPersist(c, d.run(c))
		if plant && err == nil {
			t.Fatal("one dropped Policy.Flush went past the identity guard")
		}
		if !plant && err != nil {
			t.Fatalf("faithful persist driver failed the guard: %v", err)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the code and BENCHMARK.json naming the
// same metrics, in the same order, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	m := measurement{setupS: []float64{1}, passWallS: []float64{1}, peakHeap: []float64{1}, attempted: minUnits}
	for i := 0; i < minUnits; i++ {
		m.unitMS = append(m.unitMS, 1)
	}
	res, err := m.endToEnd()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.metrics) != len(spec.EndToEnd) {
		t.Fatalf("untraced run prints %d metrics, BENCHMARK.json lists %d", len(res.metrics), len(spec.EndToEnd))
	}
	for i, e := range spec.EndToEnd {
		if res.metrics[i].name != e.Name || res.metrics[i].unit != e.Unit {
			t.Errorf("end_to_end[%d]: BENCHMARK.json %s %s, code %s %s", i, e.Name, e.Unit, res.metrics[i].name, res.metrics[i].unit)
		}
	}
	if len(perLayer) != len(spec.PerLayer) {
		t.Fatalf("traced run prints %d metrics, BENCHMARK.json lists %d", len(perLayer), len(spec.PerLayer))
	}
	for i, e := range spec.PerLayer {
		if perLayer[i].name != e.Name || perLayer[i].unit != e.Unit {
			t.Errorf("per_layer[%d]: BENCHMARK.json %s %s, code %s %s", i, e.Name, e.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errs strings.Builder
	if code := run([]string{"-workload", "nope"}, &out, &errs); code != 2 || out.Len() != 0 {
		t.Fatalf("unknown workload: exit %d, stdout %q", code, out.String())
	}
}
