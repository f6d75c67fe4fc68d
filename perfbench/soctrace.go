package main

import (
	"fmt"
	"sort"

	"skipit/internal/sim"
)

// socProbe is the traced soc_dense run: the same rounds three times, each on
// a freshly warmed system: through System.Run (untraced), through the
// component driver, and through the sim driver. The identity guards then
// demand that both drivers reproduced System.Run exactly.
type socProbe struct {
	plain      roundLog
	plainDelta map[string]uint64 // Snapshot counters over the rounds, System.Run
	comp       *componentDriver
	compLog    roundLog
	simd       *simDriver
}

func runSocProbe(in *socInputs, rounds int, m *measurement, rec *spanRecorder) (*socProbe, error) {
	p := &socProbe{}
	rec.nameLane(laneSoC, "soc_dense rounds")

	sysA, _ := warmSystem(in, m)
	before := sysA.Snapshot().Counters
	t0 := now()
	p.plain = runRounds(runStepper{sysA}, sysA, in, socWarmRounds, rounds, m, rec, laneSoC)
	rec.add("System.Run rounds", "workload", laneMain, t0, now())
	after := sysA.Snapshot().Counters
	p.plainDelta = map[string]uint64{}
	for k, v := range after {
		p.plainDelta[k] = v - before[k]
	}

	sysB, _ := warmSystem(in, m)
	p.comp = newComponentDriver(sysB, rec)
	t0 = now()
	p.compLog = runRounds(p.comp, sysB, in, socWarmRounds, rounds, m, rec, laneSoC)
	rec.add("component-driver rounds", "workload", laneMain, t0, now())
	compCounters := sysB.Snapshot().Counters
	compCounters["sim.skipped_cycles"] += uint64(p.comp.skipped)
	if err := guardRounds("component driver", sysA, p.plain, p.compLog, p.comp.now, compCounters); err != nil {
		return nil, err
	}

	sysC, _ := warmSystem(in, m)
	p.simd = newSimDriver(sysC, rec)
	t0 = now()
	simLog := runRounds(p.simd, sysC, in, socWarmRounds, rounds, m, rec, laneSoC)
	rec.add("sim-driver rounds", "workload", laneMain, t0, now())
	if err := guardRounds("sim driver", sysA, p.plain, simLog, sysC.Now(), sysC.Snapshot().Counters); err != nil {
		return nil, err
	}
	return p, nil
}

// guardRounds is the identity guard for a stepping driver: against
// System.Run on the same warmed start state and rounds, the driver must
// report the same per-round cycles, end on the same cycle, and leave every
// Snapshot counter identical.
func guardRounds(driver string, want *sim.System, wantLog, got roundLog, gotNow int64, gotCounters map[string]uint64) error {
	for i := range wantLog.cycles {
		if wantLog.cycles[i] != got.cycles[i] || wantLog.done[i] != got.done[i] {
			return fmt.Errorf("identity guard: %s round %d took %d cycles (done at %d), System.Run took %d (done at %d)",
				driver, i, got.cycles[i], got.done[i], wantLog.cycles[i], wantLog.done[i])
		}
	}
	if gotNow != want.Now() {
		return fmt.Errorf("identity guard: %s ended at cycle %d, System.Run at %d", driver, gotNow, want.Now())
	}
	return sameCounters(driver, want.Snapshot().Counters, gotCounters)
}

func sameCounters(driver string, want, got map[string]uint64) error {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if want[k] != got[k] {
			return fmt.Errorf("identity guard: %s leaves counter %s at %d, System.Run at %d", driver, k, got[k], want[k])
		}
	}
	return nil
}

// hostTotal sums a round log's host time.
func (l roundLog) hostTotal() int64 {
	var t int64
	for _, h := range l.hostNS {
		t += h
	}
	return t
}

// componentMetrics are the per-component host costs, per ticked cycle.
func (p *socProbe) componentMetrics() []metricValue {
	note := fmt.Sprintf("(per ticked cycle, %d of %d cycles sampled)", p.comp.sampled, p.comp.ticked)
	var out []metricValue
	for _, c := range []struct {
		name string
		call int
	}{
		{"boom.tick_ns", callCoreTick}, {"boom.next_event_ns", callCoreNext},
		{"l1.tick_ns", callL1Tick}, {"l1.next_event_ns", callL1Next},
		{"l2.tick_ns", callL2Tick}, {"l2.next_event_ns", callL2Next},
		{"mem.tick_ns", callMemTick}, {"mem.next_event_ns", callMemNext},
		{"tilelink.next_event_ns", callPortNext},
	} {
		out = append(out, metricValue{c.name, p.comp.perTicked(c.call), "ns", note})
	}
	return out
}

// stepMetrics are the sim driver's Step and FastForward costs.
func (p *socProbe) stepMetrics() []metricValue {
	d := p.simd
	return []metricValue{
		{"sim.step_ns_per_ticked_cycle", d.stepNSPerCycle(), "ns", fmt.Sprintf("(%d of %d steps sampled)", d.sampledSteps, d.steps)},
		{"sim.ff_ns_per_call", d.ffNSPerCall(), "ns", fmt.Sprintf("(%d of %d calls sampled)", d.sampledFF, d.ffCalls)},
		{"sim.ff_share", d.ffShare(), "ratio", "(of Step plus FastForward time)"},
	}
}

// cycleMetrics are the simulated cycle counts of the probe's rounds.
func (p *socProbe) cycleMetrics() []metricValue {
	skipped := float64(p.simd.skippedAtEnd - p.simd.skippedAtStart)
	return cycleCounts(float64(p.simd.steps), skipped)
}

func cycleCounts(ticked, skipped float64) []metricValue {
	return []metricValue{
		{"sim.ticked_cycles", ticked, "cycles", ""},
		{"sim.skipped_cycles", skipped, "cycles", ""},
		{"sim.ff_skip_ratio", ratio(skipped, ticked+skipped), "ratio", fmt.Sprintf("(of %.0f simulated cycles)", ticked+skipped)},
	}
}

// snapshotMetrics are the simulated-work counts a host-only change must
// leave identical, from Snapshot counters summed over some runs.
func snapshotMetrics(c map[string]uint64) []metricValue {
	count := func(name, key string) metricValue {
		return metricValue{name, float64(c[key]), "count", ""}
	}
	rate := func(name, num, den string) metricValue {
		return metricValue{name, ratio(float64(c[num]), float64(c[den])), "ratio", fmt.Sprintf("(of %d %s)", c[den], den)}
	}
	pool := c["pool.hits"] + c["pool.misses"]
	return []metricValue{
		count("core.committed", "core.committed"),
		count("core.nack_retries", "core.nack_retries"),
		{"core.fence_drain_stall_cycles", float64(c["core.fence_drain_stall_cycles"]), "cycles", ""},
		count("l1.loads", "l1.loads"),
		rate("l1.load_hit_rate", "l1.load_hits", "l1.loads"),
		count("l1.nacks", "l1.nacks"),
		count("l1.writebacks", "l1.writebacks"),
		count("flush.offered", "flush.offered"),
		rate("flush.skip_rate", "flush.skip_dropped", "flush.offered"),
		count("flush.data_writebacks", "flush.data_writebacks"),
		{"flush.stall_fshr_full_cycles", float64(c["flush.stall_fshr_full_cycles"]), "cycles", ""},
		count("l2.acquires", "l2.acquires"),
		count("l2.root_release_skips", "l2.root_release_skips"),
		count("l2.probes_sent", "l2.probes_sent"),
		count("l2.evictions", "l2.evictions"),
		count("mem.reads", "mem.reads"),
		count("mem.writes", "mem.writes"),
		{"pool.hit_rate", ratio(float64(c["pool.hits"]), float64(pool)), "ratio", fmt.Sprintf("(of %d pool gets)", pool)},
	}
}
