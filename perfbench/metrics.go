package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"skipit/internal/stats"
)

// minUnits is the smallest unit count a run may report percentiles over: the
// 90th percentile then has at least ten samples beyond it.
const minUnits = 100

// metricValue is one printed metric. note carries what the JSON cannot: a
// sample count, or the base a ratio is taken over.
type metricValue struct {
	name  string
	value float64
	unit  string
	note  string
}

// result is what one run prints: the metrics as lines, then the JSON object.
type result struct {
	attempted, failed int
	metrics           []metricValue
	failures          []string // the first few failure reasons
}

func (r result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// print writes one line per metric, then the JSON object as the last line.
func (r result) print(w io.Writer) error {
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]jsonMetric{}}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-32s %16.6f %-10s %s\n", m.name, m.value, m.unit, m.note)
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// unitPercentiles returns the median and 90th percentile of the per-unit
// times, refusing fewer than minUnits samples.
func unitPercentiles(unitMS []float64) (p50, p90 float64, err error) {
	if len(unitMS) < minUnits {
		return 0, 0, fmt.Errorf("%d units measured, need at least %d for a 90th percentile", len(unitMS), minUnits)
	}
	return stats.Percentile(unitMS, 50), stats.Percentile(unitMS, 90), nil
}

// failedFrac is the share of attempted units whose output check failed,
// errored or timed out. Every attempted unit counts in the base, whether it
// was timed or not.
func failedFrac(failed, attempted int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// measurement is what an untraced run collects for the end-to-end metrics.
type measurement struct {
	setupS     []float64 // one per set-up repetition
	passWallS  []float64 // one per timed pass of the workload's fixed size
	unitMS     []float64 // one per timed unit
	attempted  int
	failed     int
	simCycles  float64 // simulated cycles the timed passes covered
	allocBytes uint64  // heap bytes allocated over the timed units
	peakHeap   []float64
	failures   []string // the first few failure reasons, for stderr
}

// fail counts one failed unit, keeping its reason if it is among the first.
func (m *measurement) fail(err error) {
	m.failed++
	if len(m.failures) < 10 {
		m.failures = append(m.failures, err.Error())
	}
}

// endToEnd turns a measurement into the end-to-end metrics.
func (m *measurement) endToEnd() (result, error) {
	p50, p90, err := unitPercentiles(m.unitMS)
	if err != nil {
		return result{}, err
	}
	wall := 0.0
	for _, w := range m.passWallS {
		wall += w
	}
	units := fmt.Sprintf("(%d units)", len(m.unitMS))
	r := result{attempted: m.attempted, failed: m.failed, failures: m.failures}
	r.metrics = []metricValue{
		{"setup_s", stats.Median(m.setupS), "s", fmt.Sprintf("(median of %d set-ups)", len(m.setupS))},
		{"wall_s", stats.Median(m.passWallS), "s", fmt.Sprintf("(median of %d passes)", len(m.passWallS))},
		{"unit_ms_p50", p50, "ms", units},
		{"unit_ms_p90", p90, "ms", units},
		{"sim_mcycles_per_s", m.simCycles / wall / 1e6, "Mcycles/s", fmt.Sprintf("(%.0f cycles)", m.simCycles)},
		{"alloc_mb_per_unit", float64(m.allocBytes) / float64(len(m.unitMS)) / 1e6, "MB", units},
		{"peak_heap_mb", stats.Median(m.peakHeap) / 1e6, "MB", fmt.Sprintf("(median of %d per-pass peaks)", len(m.peakHeap))},
	}
	return r, nil
}

// heapState reads the two allocator figures the end-to-end metrics use.
// ReadMemStats stops the world briefly; callers take it only at unit
// boundaries.
func heapState() (totalAlloc, heapInuse uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.HeapInuse
}

// budget decides when a timed phase stops: after at least minPasses passes
// and minUnits units, it starts another pass only if one more pass, at the
// mean pass time so far, still ends within the budget.
type budget struct {
	start     int64
	seconds   float64
	minPasses int
	minUnits  int
}

func newBudget(seconds float64, minPasses, minUnits int) budget {
	return budget{start: now(), seconds: seconds, minPasses: minPasses, minUnits: minUnits}
}

func (b budget) another(passes, units int) bool {
	if passes < b.minPasses || units < b.minUnits {
		return true
	}
	elapsed := float64(now()-b.start) / 1e9
	return elapsed+elapsed/float64(passes) <= b.seconds
}
