// Package sweep is the experiment-orchestration subsystem behind every
// figure, ablation, and perf gate in this repository. The paper's evaluation
// (§7) is a large grid of independent measurements — each one a
// self-contained, deterministic, single-goroutine sim.System or memsim
// hierarchy (DESIGN.md §3.1) — which makes the grid embarrassingly parallel.
//
// The package provides three pieces:
//
//   - Job: one named measurement (a figure point, an ablation cell) carrying
//     a canonical config fingerprint (see Fingerprint), so the gate can tell
//     a changed configuration from a changed result.
//   - Runner: a bounded worker pool that measures each distinct
//     configuration (each distinct fingerprint) once per run, concurrently,
//     copies that result to every later job sharing the fingerprint, and
//     collects results in submission order, so the output is bit-identical
//     to serial execution. Jobs that share set-up work name one Shared and
//     run as a group that does the set-up once. Nothing outlives a run: the
//     next run measures afresh.
//   - Compare: the regression gate — a delta table between a baseline File
//     (BENCH_quick.json) and the current records, failing on any cycle-count
//     change beyond a tolerance, in either direction, on any derived-metric
//     change, and on fingerprint drift, which means the baseline must be
//     refreshed.
package sweep

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"

	"skipit/internal/metrics"
)

// Sink receives the labeled metrics snapshot of every completed
// cycle-accurate measurement run inside a job. Each job gets its own sink
// (or nil when snapshots are not being collected), so concurrent jobs never
// share mutable state — this replaces the former bench.SnapshotSink
// package-global, which was a data race under a parallel runner.
type Sink func(label string, snap metrics.Snapshot)

// Job is one named, fingerprinted measurement.
type Job struct {
	// Group names the figure the record belongs to ("fig09", …).
	Group string
	// Name identifies the point within its group ("flush/size64/threads1").
	// (Group, Name) must be unique across a sweep.
	Name string
	// Series and X are plotting metadata: the CSV series label and x value.
	Series string
	X      string
	// Fingerprint is the canonical hash of everything that determines this
	// job's result (see Fingerprint): two jobs with one non-empty
	// fingerprint must return equal Outcomes, and Runner measures only the
	// first of them. Compare fails on a record whose fingerprint differs
	// from the baseline's.
	Fingerprint string
	// Shared, when non-nil, names set-up work this job shares with other
	// jobs of the run: Run gets its part of it through Take, and the
	// Runner runs the distinct-fingerprint jobs naming one Shared as a
	// group (see Shared). A job whose fingerprint an earlier job has is
	// not run, so it takes nothing.
	Shared *Shared
	// Run performs the measurement. The sink may be nil. Run must be
	// self-contained: it owns every simulator instance it creates and
	// touches no shared mutable state outside its Shared, so jobs can run
	// on any goroutine.
	Run func(sink Sink) (Outcome, error)
}

// Outcome is what a job's Run returns.
type Outcome struct {
	Cycles  float64            // primary gated metric (virtual cycles)
	Sigma   float64            // dispersion across repetitions
	Reps    int                // repetition count behind Cycles
	Derived map[string]float64 // secondary metrics (mops, sizes, rates, …)
}

// Record is one measured result: a job's outcome plus its identity. Records
// are deliberately free of wall-clock metadata so a re-run of an unchanged
// configuration produces byte-identical result files.
type Record struct {
	Group       string             `json:"group"`
	Name        string             `json:"name"`
	Fingerprint string             `json:"fingerprint"`
	Series      string             `json:"series,omitempty"`
	X           string             `json:"x,omitempty"`
	Cycles      float64            `json:"cycles"`
	Sigma       float64            `json:"sigma,omitempty"`
	Reps        int                `json:"reps"`
	Derived     map[string]float64 `json:"derived,omitempty"`
}

// LabeledSnapshot pairs a measurement-run label with its metrics snapshot.
type LabeledSnapshot struct {
	Label    string           `json:"label"`
	Snapshot metrics.Snapshot `json:"snapshot"`
}

// JobResult is the runner's per-job output, in submission order.
type JobResult struct {
	Group  string
	Record Record
	// Snaps holds the labeled snapshots the job emitted, in emission order.
	Snaps []LabeledSnapshot
	Err   error
}

// Runner executes jobs on a bounded worker pool. The zero value runs with
// GOMAXPROCS workers and no snapshot collection. Workers take jobs only
// roughly in submission order: each job (or group) waits for a free worker
// on its own goroutine, and the Go scheduler need not wake the waiters in
// the order they started; the goroutine started last often runs first.
// Only results, not start times, follow submission order. A group of jobs
// naming one Shared never runs its jobs concurrently, so a run's
// parallelism is capped at its groups plus its ungrouped jobs, and on a
// host with more workers than that its wall time is bounded by its longest
// group rather than its longest job.
type Runner struct {
	// Workers bounds concurrent jobs; <= 0 means GOMAXPROCS.
	Workers int
	// WithSnapshots gives each job a collecting sink; otherwise jobs run
	// with a nil sink and emit nothing.
	WithSnapshots bool
	// Progress, when non-nil, receives a ProgressEvent at every job state
	// transition (running, done, failed). It is invoked from worker
	// goroutines and must be safe for concurrent use. Observability only:
	// it must not mutate jobs or results.
	Progress func(ev ProgressEvent)
}

// ProgressEvent is one job state transition, for timing each job from
// outside the runner.
type ProgressEvent struct {
	// Index is the job's position in the submitted slice.
	Index int
	Group string
	Name  string
	// State is "running", "done", or "failed".
	State string
}

// Run executes the jobs and returns one result per job, in submission order
// regardless of completion order. Each job owns its whole simulator, so the
// records are bit-identical to what serial execution produces; only
// wall-clock time depends on Workers. Errors (including recovered panics)
// are captured per job, never propagated across jobs.
//
// Only the first job of each non-empty fingerprint runs. The jobs that run
// and name one Shared run as a group, back to back on one worker, starting
// at the first one's turn; every other job runs alone. Once every job has
// finished, each later job sharing a fingerprint gets a copy of its first
// job's result (cycles, error, and deep copies of the derived metrics and
// snapshots) under its own group, name, series and x, in submission order,
// with its own running and done (or failed) events.
func (r Runner) Run(jobs []Job) []JobResult {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]JobResult, len(jobs))
	// first[i] is the job whose result jobs[i] takes: the earliest job with
	// the same non-empty fingerprint, else i itself.
	first := make([]int, len(jobs))
	byFingerprint := make(map[string]int, len(jobs))
	// groups lists each Shared's takers, the jobs that run and name it, in
	// submission order.
	var groups map[*Shared][]int
	for i := range jobs {
		results[i].Group = jobs[i].Group
		first[i] = i
		if fp := jobs[i].Fingerprint; fp != "" {
			if j, ok := byFingerprint[fp]; ok {
				first[i] = j
				continue
			}
			byFingerprint[fp] = i
		}
		if s := jobs[i].Shared; s != nil {
			if groups == nil {
				groups = make(map[*Shared][]int)
			}
			groups[s] = append(groups[s], i)
		}
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range jobs {
		s := jobs[i].Shared
		if first[i] != i || s != nil && groups[s][0] != i {
			continue // a copy, or a group member that runs at its first one's turn
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if s == nil {
				r.runOne(jobs, results, i)
				return
			}
			group := groups[s]
			s.begin(len(group))
			defer s.drop()
			for _, k := range group {
				r.runOne(jobs, results, k)
			}
		}()
	}
	wg.Wait()
	for i, j := range first {
		if j == i {
			continue
		}
		r.notify(i, jobs[i], "running")
		copyResult(&results[i], &results[j], jobs[i])
		r.notifyEnd(i, jobs[i], results[i].Err)
	}
	return results
}

// runOne runs jobs[i] into results[i] between its running and its done (or
// failed) event.
func (r Runner) runOne(jobs []Job, results []JobResult, i int) {
	r.notify(i, jobs[i], "running")
	runJob(jobs[i], &results[i], r.WithSnapshots)
	r.notifyEnd(i, jobs[i], results[i].Err)
}

// copyResult gives job the measured result src of an earlier job with the
// same fingerprint. The copy shares no map or slice with src.
func copyResult(dst, src *JobResult, job Job) {
	dst.Err = src.Err
	if src.Err == nil {
		dst.Record = src.Record
		dst.Record.Group, dst.Record.Name = job.Group, job.Name
		dst.Record.Series, dst.Record.X = job.Series, job.X
		dst.Record.Derived = maps.Clone(src.Record.Derived)
	}
	for _, ls := range src.Snaps {
		dst.Snaps = append(dst.Snaps, LabeledSnapshot{Label: ls.Label, Snapshot: cloneSnapshot(ls.Snapshot)})
	}
}

// cloneSnapshot returns a deep copy of s.
func cloneSnapshot(s metrics.Snapshot) metrics.Snapshot {
	c := s
	c.Counters = maps.Clone(s.Counters)
	c.Gauges = maps.Clone(s.Gauges)
	c.Derived = maps.Clone(s.Derived)
	if s.Histograms != nil {
		c.Histograms = make(map[string]metrics.HistogramSnapshot, len(s.Histograms))
		for k, hs := range s.Histograms {
			hs.Bounds = slices.Clone(hs.Bounds)
			hs.Buckets = slices.Clone(hs.Buckets)
			c.Histograms[k] = hs
		}
	}
	if s.Series != nil {
		c.Series = make([]metrics.SeriesSnapshot, len(s.Series))
		for i, ss := range s.Series {
			ss.Cycles = slices.Clone(ss.Cycles)
			ss.Values = slices.Clone(ss.Values)
			ss.Deltas = slices.Clone(ss.Deltas)
			c.Series[i] = ss
		}
	}
	return c
}

// notify delivers one progress event, if a listener is installed.
func (r Runner) notify(index int, job Job, state string) {
	if r.Progress == nil {
		return
	}
	r.Progress(ProgressEvent{Index: index, Group: job.Group, Name: job.Name, State: state})
}

// notifyEnd delivers a job's last event: failed when it ended with err,
// else done.
func (r Runner) notifyEnd(index int, job Job, err error) {
	state := "done"
	if err != nil {
		state = "failed"
	}
	r.notify(index, job, state)
}

// runJob executes one job, converting panics (the measure harnesses panic on
// simulator timeouts) into per-job errors so one bad point cannot take down
// a half-finished sweep.
func runJob(job Job, res *JobResult, withSnaps bool) {
	defer func() {
		if p := recover(); p != nil {
			res.Err = fmt.Errorf("sweep: job %s/%s panicked: %v", job.Group, job.Name, p)
		}
	}()
	var sink Sink
	if withSnaps {
		sink = func(label string, snap metrics.Snapshot) {
			res.Snaps = append(res.Snaps, LabeledSnapshot{Label: label, Snapshot: snap})
		}
	}
	out, err := job.Run(sink)
	if err != nil {
		res.Err = fmt.Errorf("sweep: job %s/%s: %w", job.Group, job.Name, err)
		return
	}
	res.Record = Record{
		Group:       job.Group,
		Name:        job.Name,
		Fingerprint: job.Fingerprint,
		Series:      job.Series,
		X:           job.X,
		Cycles:      out.Cycles,
		Sigma:       out.Sigma,
		Reps:        out.Reps,
		Derived:     out.Derived,
	}
}

// FirstError returns the first failed result, or nil.
func FirstError(results []JobResult) error {
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}

// Records extracts the records of the successful results, in order.
func Records(results []JobResult) []Record {
	out := make([]Record, 0, len(results))
	for i := range results {
		if results[i].Err == nil {
			out = append(out, results[i].Record)
		}
	}
	return out
}
