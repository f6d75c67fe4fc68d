package main

import (
	"fmt"
	"strings"
	"sync"

	"skipit/internal/bench"
	"skipit/internal/metrics"
	"skipit/internal/sweep"
)

// figWorkers is the sweep.Runner's worker count on the figure workloads: the
// host's two vCPUs.
const figWorkers = 2

// figsSetupReps is how often a run builds its job list; setup_s is the
// median.
const figsSetupReps = 300

// The figure workloads' tokens in bench.Figures.
var (
	cycleFigures   = map[string]bool{"9": true, "10": true, "11": true, "12": true, "13": true, "ablations": true}
	persistFigures = map[string]bool{"14": true, "15": true, "16": true}
)

// baselineFile is the committed quick-mode result store every figure record
// must match at tolerance 0, relative to the repository root, the
// benchmark's working directory.
const baselineFile = "BENCH_quick.json"

// figJobs builds a figure workload's quick-mode job list. The cycle-accurate
// list leaves out the §7.3 analytic commercial-model points of Figs. 11 and
// 12, which run no simulator.
func figJobs(tokens map[string]bool) []sweep.Job {
	bench.SetQuick()
	var jobs []sweep.Job
	for _, j := range bench.FigureJobs(true, tokens) {
		if isModelPoint(j.Group, j.Name) {
			continue
		}
		jobs = append(jobs, j)
	}
	return jobs
}

func isModelPoint(group, name string) bool {
	return (group == "fig11" || group == "fig12") && !strings.HasPrefix(name, "sonicboom/")
}

// figBaseline loads the committed records of the given jobs' groups, less
// the commercial-model points.
func figBaseline(jobs []sweep.Job) ([]sweep.Record, error) {
	f, err := sweep.LoadFile(baselineFile)
	if err != nil {
		return nil, err
	}
	groups := map[string]bool{}
	for _, j := range jobs {
		groups[j.Group] = true
	}
	var recs []sweep.Record
	for _, r := range f.Records {
		if groups[r.Group] && !isModelPoint(r.Group, r.Name) {
			recs = append(recs, r)
		}
	}
	return recs, nil
}

// figPass is one timed pass of a job list through sweep.Runner.
type figPass struct {
	keys      []string // per job: group/name, the record's identity
	wallNS    int64
	startNS   []int64 // per job: "running" event, relative to the pass start
	endNS     []int64 // per job: "done" or "failed" event, relative to the pass start
	results   []sweep.JobResult
	allocB    uint64 // heap bytes allocated during the pass
	peakHeapB uint64 // highest HeapInuse at a job boundary
}

func (p *figPass) runMS(i int) float64 { return float64(p.endNS[i]-p.startNS[i]) / 1e6 }

// runFigPass runs the jobs once through the in-process runner, timing every
// job from its Progress events and sampling the heap at each job's end.
// With a recorder, each job becomes a span on its worker's lane.
func runFigPass(jobs []sweep.Job, snaps bool, rec *spanRecorder) figPass {
	p := figPass{startNS: make([]int64, len(jobs)), endNS: make([]int64, len(jobs))}
	for _, j := range jobs {
		p.keys = append(p.keys, j.Group+"/"+j.Name)
	}
	var mu sync.Mutex
	lanes := make([]int, len(jobs))
	busy := make([]bool, figWorkers)
	alloc0, _ := heapState()
	start := now()
	r := sweep.Runner{Workers: figWorkers, WithSnapshots: snaps, Progress: func(ev sweep.ProgressEvent) {
		t := now()
		var inuse uint64
		if ev.State != "running" {
			_, inuse = heapState()
		}
		mu.Lock()
		defer mu.Unlock()
		switch ev.State {
		case "running":
			p.startNS[ev.Index] = t - start
			for l := range busy {
				if !busy[l] {
					busy[l], lanes[ev.Index] = true, l
					break
				}
			}
		case "done", "failed":
			p.endNS[ev.Index] = t - start
			p.peakHeapB = max(p.peakHeapB, inuse)
			busy[lanes[ev.Index]] = false
			rec.add(ev.Group+"/"+ev.Name, "unit", laneWorker0+lanes[ev.Index], start+p.startNS[ev.Index], t)
		}
	}}
	p.results = r.Run(jobs)
	p.wallNS = now() - start
	alloc1, _ := heapState()
	p.allocB = alloc1 - alloc0
	return p
}

// check compares the pass's records to the baseline at tolerance 0 and
// returns the failed jobs' count and reasons. A job fails when it errored,
// or when its record is not exactly the baseline's; a baseline record no
// job produced fails too.
func (p *figPass) check(base []sweep.Record) (attempted, failed int, reasons []string) {
	cmp := sweep.Compare(base, sweep.Records(p.results), 0)
	status := map[string]sweep.Status{}
	for _, d := range cmp.Deltas {
		status[d.Name] = d.Status
	}
	seen := map[string]bool{}
	for i, res := range p.results {
		key := p.keys[i]
		attempted++
		switch {
		case res.Err != nil:
			failed++
			reasons = append(reasons, res.Err.Error())
		case status[key] != sweep.StatusOK:
			failed++
			reasons = append(reasons, fmt.Sprintf("%s: %s against %s", key, status[key], baselineFile))
		}
		seen[key] = true
	}
	for _, b := range base {
		if key := b.Group + "/" + b.Name; !seen[key] {
			attempted++
			failed++
			reasons = append(reasons, fmt.Sprintf("%s: in %s but not produced", key, baselineFile))
		}
	}
	return attempted, failed, reasons
}

// recordCycles sums the pass's simulated cycles as its records state them:
// the memsim virtual cycles of the slowest thread, for the §7.4 points.
func (p *figPass) recordCycles() float64 {
	total := 0.0
	for _, res := range p.results {
		total += res.Record.Cycles
	}
	return total
}

// snapshotTotals sums what the pass's per-system snapshots hold: simulated
// cycles, fast-forwarded cycles, every counter, and the core count of each
// system.
type snapshotTotals struct {
	cycles, skipped float64
	counters        map[string]uint64
	coreCounts      []int
}

func (p *figPass) snapshots() snapshotTotals {
	t := snapshotTotals{counters: map[string]uint64{}}
	for _, res := range p.results {
		for _, ls := range res.Snaps {
			t.add(ls.Snapshot)
		}
	}
	return t
}

func (t *snapshotTotals) add(s metrics.Snapshot) {
	t.cycles += float64(s.Cycle)
	t.skipped += float64(s.Counters["sim.skipped_cycles"])
	cores := 0
	for k, v := range s.Counters {
		t.counters[k] += v
		if strings.HasPrefix(k, "core[") && strings.HasSuffix(k, "].committed") {
			cores++
		}
	}
	t.coreCounts = append(t.coreCounts, cores)
}

// figWorkload is one figure workload's fixed inputs.
type figWorkload struct {
	tokens map[string]bool
	// cycleAccurate marks the SoC figures, whose simulated cycles come from
	// the systems' snapshots rather than from the records.
	cycleAccurate bool
	// runsPerPass Runner runs over the job list make one timed pass, the
	// workload's fixed size: enough for a pass to last seconds, so that each
	// pass time averages over the host's bursts of contention.
	runsPerPass int
}

var (
	figsCycle   = figWorkload{tokens: cycleFigures, cycleAccurate: true, runsPerPass: 10}
	figsPersist = figWorkload{tokens: persistFigures, runsPerPass: 1}
)

// run is the untraced figure run: build the job list figsSetupReps times,
// then time passes until the budget is spent. The cycle-accurate workload
// first makes one untimed Runner run that collects snapshots, for its
// simulated cycle count.
func (w figWorkload) run(seconds float64) (result, error) {
	var m measurement
	var jobs []sweep.Job
	for rep := 0; rep < figsSetupReps; rep++ {
		t0 := now()
		jobs = figJobs(w.tokens)
		m.setupS = append(m.setupS, float64(now()-t0)/1e9)
	}
	base, err := figBaseline(jobs)
	if err != nil {
		return result{}, err
	}
	var cyclesPerPass float64
	if w.cycleAccurate {
		warm := runFigPass(jobs, true, nil)
		m.count(warm.check(base))
		cyclesPerPass = warm.snapshots().cycles
	}
	b := newBudget(seconds, 1, minUnits)
	for pass := 0; b.another(pass, len(m.unitMS)); pass++ {
		var wall int64
		var peak uint64
		for k := 0; k < w.runsPerPass; k++ {
			p := runFigPass(jobs, false, nil)
			m.count(p.check(base))
			wall += p.wallNS
			for i := range jobs {
				m.unitMS = append(m.unitMS, p.runMS(i))
			}
			m.allocBytes += p.allocB
			peak = max(peak, p.peakHeapB)
			if w.cycleAccurate {
				m.simCycles += cyclesPerPass
			} else {
				m.simCycles += p.recordCycles()
			}
		}
		m.passWallS = append(m.passWallS, float64(wall)/1e9)
		m.peakHeap = append(m.peakHeap, float64(peak))
	}
	return m.endToEnd()
}

// count books a pass's check into the measurement.
func (m *measurement) count(attempted, failed int, reasons []string) {
	m.attempted += attempted
	m.failed += failed
	for _, r := range reasons {
		if len(m.failures) < 10 {
			m.failures = append(m.failures, r)
		}
	}
}
