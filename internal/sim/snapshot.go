package sim

import (
	"strings"

	"skipit/internal/metrics"
)

// Snapshot captures every instrument in the SoC-wide registry at the current
// cycle and enriches it with aggregates and derived metrics:
//
//   - per-instance counters keep their registry keys ("l1[0].writebacks");
//   - instance-indexed counters are additionally summed into an aggregate
//     key with the index stripped ("l1.writebacks" = Σᵢ "l1[i].writebacks"),
//     so component totals can be read without knowing the core count;
//   - Derived holds ratios the paper's evaluation reports directly: the
//     Skip It elimination rate (§6), L1 hit rates, and DRAM write
//     amplification;
//   - Series carries the sampler's time series when sampling is enabled.
func (s *System) Snapshot() metrics.Snapshot {
	snap := s.reg.Snapshot(s.now)

	// Two-phase so the ranged map is never written mid-iteration: entries
	// added during a range may or may not be visited in that same loop, so
	// the single-pass version's output depended on map iteration order.
	agg := make(map[string]uint64)
	for key, v := range snap.Counters {
		if a, ok := aggregateKey(key); ok {
			agg[a] += v
		}
	}
	for a, v := range agg {
		snap.Counters[a] += v
	}

	c := snap.Counters
	ratio := func(num, den uint64) (float64, bool) {
		if den == 0 {
			return 0, false
		}
		return float64(num) / float64(den), true
	}
	if r, ok := ratio(c["flush.skip_dropped"], c["flush.offered"]); ok {
		snap.Derived["skip_rate"] = r
	}
	if r, ok := ratio(c["flush.skip_dropped"], c["flush.skip_dropped"]+c["flush.data_writebacks"]); ok {
		snap.Derived["writebacks_eliminated_pct"] = 100 * r
	}
	if r, ok := ratio(c["mem.writes"], c["l1.writebacks"]+c["flush.data_writebacks"]); ok {
		snap.Derived["dram_write_amplification"] = r
	}
	if r, ok := ratio(c["l1.load_hits"], c["l1.loads"]); ok {
		snap.Derived["l1_load_hit_rate"] = r
	}
	if r, ok := ratio(c["l1.store_hits"], c["l1.stores"]); ok {
		snap.Derived["l1_store_hit_rate"] = r
	}

	// Host-throughput view of the run (see fastforward.go): what fraction
	// of simulated cycles the next-event clock skipped and — when the
	// system has run — simulated cycles per host second. The latter is
	// host-dependent by nature; it lives only in snapshots and metrics
	// sidecars, never in the sweep records.
	if r, ok := ratio(c["sim.skipped_cycles"], uint64(s.now)); ok && s.now > 0 {
		snap.Derived["ff_skipped_cycle_ratio"] = r
	}
	if s.hostNanos > 0 && s.now > 0 {
		snap.Derived["host_sim_cycles_per_sec"] = float64(s.now) / (float64(s.hostNanos) / 1e9)
	}

	if s.sampler != nil {
		snap.Series = s.sampler.Snapshots()
	}
	return snap
}

// aggregateKey maps an instance-indexed counter key ("flush[2].offered") to
// its component aggregate ("flush.offered"). Keys without an instance index
// report ok=false.
func aggregateKey(key string) (string, bool) {
	open := strings.IndexByte(key, '[')
	if open < 0 {
		return "", false
	}
	close := strings.IndexByte(key[open:], ']')
	if close < 0 {
		return "", false
	}
	return key[:open] + key[open+close+1:], true
}
