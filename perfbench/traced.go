package main

import (
	"fmt"
	"runtime"

	"skipit/internal/sim"
	"skipit/internal/stats"
	"skipit/internal/sweep"
)

// maxSpans bounds the layer-call and operation spans a traced run keeps;
// workload and unit spans are always kept.
const maxSpans = 200_000

// Rounds of the traced soc_dense drivers: socTraceRounds on soc_dense
// itself, socProbeRounds where the SoC probe only fills in the layers the
// traced workload does not reach.
const (
	socTraceRounds = 40
	socProbeRounds = 12
)

// newProbeReps sim.New calls per core count; the per-layer New metrics are
// medians over them.
const newProbeReps = 20

// perLayer lists every per_layer metric of BENCHMARK.json, in the order the
// traced run prints them, with its unit.
var perLayer = []struct{ name, unit string }{
	{"sweep.job_run_ms_p50", "ms"},
	{"sweep.queue_wait_ms_p50", "ms"},
	{"sweep.worker_busy_frac", "ratio"},
	{"sim.new_ms_1core", "ms"},
	{"sim.new_ms_8core", "ms"},
	{"sim.new_allocs", "count"},
	{"sim.new_kb", "KB"},
	{"sim.new_share", "ratio"},
	{"sim.step_ns_per_ticked_cycle", "ns"},
	{"sim.ff_ns_per_call", "ns"},
	{"sim.ff_share", "ratio"},
	{"sim.ticked_cycles", "cycles"},
	{"sim.skipped_cycles", "cycles"},
	{"sim.ff_skip_ratio", "ratio"},
	{"boom.tick_ns", "ns"},
	{"boom.next_event_ns", "ns"},
	{"l1.tick_ns", "ns"},
	{"l1.next_event_ns", "ns"},
	{"l2.tick_ns", "ns"},
	{"l2.next_event_ns", "ns"},
	{"mem.tick_ns", "ns"},
	{"mem.next_event_ns", "ns"},
	{"tilelink.next_event_ns", "ns"},
	{"core.committed", "count"},
	{"core.nack_retries", "count"},
	{"core.fence_drain_stall_cycles", "cycles"},
	{"l1.loads", "count"},
	{"l1.load_hit_rate", "ratio"},
	{"l1.nacks", "count"},
	{"l1.writebacks", "count"},
	{"flush.offered", "count"},
	{"flush.skip_rate", "ratio"},
	{"flush.data_writebacks", "count"},
	{"flush.stall_fshr_full_cycles", "cycles"},
	{"l2.acquires", "count"},
	{"l2.root_release_skips", "count"},
	{"l2.probes_sent", "count"},
	{"l2.evictions", "count"},
	{"mem.reads", "count"},
	{"mem.writes", "count"},
	{"pool.hit_rate", "ratio"},
	{"ds.contains_ns_p50", "ns"},
	{"ds.insert_ns_p50", "ns"},
	{"ds.delete_ns_p50", "ns"},
	{"ds.self_share", "ratio"},
	{"persist.load_calls_per_op", "calls/op"},
	{"persist.store_calls_per_op", "calls/op"},
	{"persist.flush_calls_per_op", "calls/op"},
	{"persist.fence_calls_per_op", "calls/op"},
	{"persist.load_ns", "ns"},
	{"persist.flush_ns", "ns"},
	{"persist.prefill_share", "ratio"},
	{"memsim.accesses", "count"},
	{"memsim.l1_hit_rate", "ratio"},
	{"memsim.coherence_misses", "count"},
	{"memsim.flush_drop_rate", "ratio"},
	{"memsim.flush_writes", "count"},
	{"trace.overhead_pct", "%"},
}

// tracedRun is the traced run of a workload. Every traced run prints every
// per-layer metric. A layer the workload exercises is measured on the
// workload; the others come from fixed probes: the SoC probe (soc_dense
// rounds through System.Run and both stepping drivers), the cycle probe (one
// figs_cycle pass through sweep.Runner), the persist probe (the persist loop
// driver over persistProbeConfigs) and the New probe (sim.New per core
// count). Both stepping drivers and the persist driver pass their identity
// guards, or the run aborts.
func tracedRun(workload string, seed int64, seconds float64, rec *spanRecorder) (result, error) {
	rec.nameLane(laneMain, workload)
	for l := 0; l < figWorkers; l++ {
		rec.nameLane(laneWorker0+l, fmt.Sprintf("sweep worker %d", l))
	}
	var m measurement
	got := map[string]metricValue{}
	put := func(ms ...metricValue) {
		for _, v := range ms {
			got[v.name] = v
		}
	}

	newMS, newMetrics := newProbe()
	put(newMetrics...)

	in, err := newSocInputs(seed)
	if err != nil {
		return result{}, err
	}
	rounds := socProbeRounds
	if workload == "soc_dense" {
		rounds = socTraceRounds
	}
	t0 := now()
	soc, err := runSocProbe(in, rounds, &m, rec)
	if err != nil {
		return result{}, err
	}
	rec.add("soc probe", "workload", laneMain, t0, now())
	put(soc.componentMetrics()...)
	put(soc.stepMetrics()...)
	put(soc.cycleMetrics()...)
	put(snapshotMetrics(soc.plainDelta)...)
	if workload == "soc_dense" {
		put(overhead(float64(soc.plain.hostTotal()), float64(soc.compLog.hostTotal())))
	}

	cycleJobs := figJobs(cycleFigures)
	cycleBase, err := figBaseline(cycleJobs)
	if err != nil {
		return result{}, err
	}
	warm := runFigPass(cycleJobs, true, nil)
	m.count(warm.check(cycleBase))
	snaps := warm.snapshots()

	var traced []figPass
	switch workload {
	case "figs_cycle":
		var ov metricValue
		traced, ov = figPhases(cycleJobs, cycleBase, seconds, &m, rec)
		put(ov)
		put(cycleCounts(snaps.cycles-snaps.skipped, snaps.skipped)...)
		put(snapshotMetrics(snaps.counters)...)
		put(newShare(newMS, snaps, traced))
	case "figs_persist":
		persistJobs := figJobs(persistFigures)
		persistBase, err := figBaseline(persistJobs)
		if err != nil {
			return result{}, err
		}
		var ov metricValue
		traced, ov = figPhases(persistJobs, persistBase, seconds, &m, rec)
		put(ov)
	}
	if workload != "figs_cycle" {
		probe := runFigPass(cycleJobs, false, rec)
		m.count(probe.check(cycleBase))
		put(newShare(newMS, snaps, []figPass{probe}))
		if workload == "soc_dense" {
			traced = []figPass{probe}
		}
	}
	put(sweepMetrics(traced)...)

	t0 = now()
	pd, err := runPersistProbe(persistProbeConfigs, rec)
	if err != nil {
		return result{}, err
	}
	rec.add("persist probe", "workload", laneMain, t0, now())
	m.attempted += len(persistProbeConfigs)
	put(pd.metrics()...)

	res := result{attempted: m.attempted, failed: m.failed, failures: m.failures}
	for _, want := range perLayer {
		v, ok := got[want.name]
		if !ok || v.unit != want.unit {
			return result{}, fmt.Errorf("traced run measured no %s in %s", want.name, want.unit)
		}
		res.metrics = append(res.metrics, v)
	}
	if len(got) != len(perLayer) {
		return result{}, fmt.Errorf("traced run measured %d metrics, perLayer lists %d", len(got), len(perLayer))
	}
	return res, nil
}

// figPhases runs a figure workload's Runner runs untraced and then traced,
// each for three tenths of the budget. It returns the traced runs and
// trace.overhead_pct from the two median run times.
func figPhases(jobs []sweep.Job, base []sweep.Record, seconds float64, m *measurement,
	rec *spanRecorder) ([]figPass, metricValue) {
	var plainWall, tracedWall []float64
	var traced []figPass
	for _, r := range []*spanRecorder{nil, rec} {
		b := newBudget(0.3*seconds, 1, 0)
		t0 := now()
		name := "traced passes"
		if r == nil {
			name = "untraced passes"
		}
		for pass := 0; b.another(pass, 0); pass++ {
			p := runFigPass(jobs, false, r)
			m.count(p.check(base))
			if r == nil {
				plainWall = append(plainWall, float64(p.wallNS))
			} else {
				tracedWall = append(tracedWall, float64(p.wallNS))
				traced = append(traced, p)
			}
		}
		rec.add(name, "workload", laneMain, t0, now())
	}
	return traced, overhead(stats.Median(plainWall), stats.Median(tracedWall))
}

func overhead(plain, traced float64) metricValue {
	return metricValue{"trace.overhead_pct", 100 * (traced - plain) / plain, "%", "(traced against untraced wall time)"}
}

// sweepMetrics are the sweep.Runner's per-layer metrics over traced passes.
func sweepMetrics(passes []figPass) []metricValue {
	var run, wait []float64
	var busy, capacity float64
	for i := range passes {
		p := &passes[i]
		for j := range p.startNS {
			run = append(run, p.runMS(j))
			wait = append(wait, float64(p.startNS[j])/1e6)
			busy += p.runMS(j)
		}
		capacity += figWorkers * float64(p.wallNS) / 1e6
	}
	jobs := fmt.Sprintf("(%d jobs)", len(run))
	return []metricValue{
		{"sweep.job_run_ms_p50", stats.Median(run), "ms", jobs},
		{"sweep.queue_wait_ms_p50", stats.Median(wait), "ms", jobs},
		{"sweep.worker_busy_frac", busy / capacity, "ratio", fmt.Sprintf("(of %d workers x %.0f ms)", figWorkers, capacity/figWorkers)},
	}
}

// newShare estimates sim.New's share of the cycle-accurate jobs' time: each
// system a pass builds (one snapshot each) costs the New probe's median for
// its core count, against the passes' mean summed job time.
func newShare(newMS map[int]float64, snaps snapshotTotals, passes []figPass) metricValue {
	newTotal := 0.0
	for _, cores := range snaps.coreCounts {
		newTotal += newMS[cores]
	}
	jobTotal := 0.0
	for i := range passes {
		for j := range passes[i].startNS {
			jobTotal += passes[i].runMS(j)
		}
	}
	jobTotal /= float64(len(passes))
	return metricValue{"sim.new_share", newTotal / jobTotal, "ratio",
		fmt.Sprintf("(%d systems, %.1f ms of New in %.1f ms of jobs)", len(snaps.coreCounts), newTotal, jobTotal)}
}

// newProbe times sim.New for every core count the figures use, and counts
// the heap allocations of one 1-core New. The core counts take turns, so
// garbage collection and host noise fall on all of them alike; the first
// round is a warm-up and not kept.
func newProbe() (map[int]float64, []metricValue) {
	ms := map[int][]float64{}
	for i := 0; i <= newProbeReps; i++ {
		for cores := 1; cores <= 8; cores++ {
			t0 := now()
			sim.New(sim.DefaultConfig(cores))
			if i > 0 {
				ms[cores] = append(ms[cores], float64(now()-t0)/1e6)
			}
		}
	}
	newMS := map[int]float64{}
	for cores, v := range ms {
		newMS[cores] = stats.Median(v)
	}
	allocs, bytes := newAllocs()
	return newMS, []metricValue{
		{"sim.new_ms_1core", newMS[1], "ms", fmt.Sprintf("(median of %d)", newProbeReps)},
		{"sim.new_ms_8core", newMS[8], "ms", fmt.Sprintf("(median of %d)", newProbeReps)},
		{"sim.new_allocs", allocs, "count", "(one 1-core New)"},
		{"sim.new_kb", bytes / 1e3, "KB", "(one 1-core New)"},
	}
}

// newAllocs counts the heap allocations and bytes of one 1-core sim.New.
func newAllocs() (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sim.New(sim.DefaultConfig(1))
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}
