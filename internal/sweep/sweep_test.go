package sweep

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"skipit/internal/metrics"
	"skipit/internal/sim"
)

// constJob returns a job whose outcome is derived only from its inputs.
func constJob(group, name string, cycles float64) Job {
	return Job{
		Group: group, Name: name, Fingerprint: Fingerprint(group, name),
		Run: func(sink Sink) (Outcome, error) {
			if sink != nil {
				sink(name, metrics.Snapshot{Cycle: int64(cycles)})
			}
			return Outcome{Cycles: cycles, Reps: 1}, nil
		},
	}
}

func TestRunnerPreservesSubmissionOrder(t *testing.T) {
	var jobs []Job
	for i := 0; i < 20; i++ {
		jobs = append(jobs, constJob("g", fmt.Sprintf("p%02d", i), float64(i)))
	}
	for _, workers := range []int{1, 4} {
		r := Runner{Workers: workers}
		results := r.Run(jobs)
		if len(results) != len(jobs) {
			t.Fatalf("workers=%d: %d results", workers, len(results))
		}
		for i, res := range results {
			if res.Err != nil || res.Record.Name != jobs[i].Name || res.Record.Cycles != float64(i) {
				t.Fatalf("workers=%d: slot %d holds %+v", workers, i, res)
			}
		}
	}
}

// The parallel runner must be bit-identical to serial execution: snapshots
// and records included.
func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	var jobs []Job
	for i := 0; i < 12; i++ {
		jobs = append(jobs, constJob("g", fmt.Sprintf("p%02d", i), float64(i*i)))
	}
	serial := Runner{Workers: 1, WithSnapshots: true}.Run(jobs)
	parallel := Runner{Workers: 6, WithSnapshots: true}.Run(jobs)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel results diverged from serial:\n%+v\nvs\n%+v", serial, parallel)
	}
}

// Two jobs that each wait for the other to start can only finish if the
// runner genuinely overlaps them — the parallelism the tentpole promises.
func TestRunnerOverlapsJobs(t *testing.T) {
	a, b := make(chan struct{}), make(chan struct{})
	meet := func(mine, theirs chan struct{}) (Outcome, error) {
		close(mine)
		select {
		case <-theirs:
			return Outcome{Cycles: 1, Reps: 1}, nil
		case <-time.After(10 * time.Second):
			return Outcome{}, errors.New("peer never started: jobs ran serially")
		}
	}
	jobs := []Job{
		{Group: "g", Name: "a", Run: func(Sink) (Outcome, error) { return meet(a, b) }},
		{Group: "g", Name: "b", Run: func(Sink) (Outcome, error) { return meet(b, a) }},
	}
	results := Runner{Workers: 2}.Run(jobs)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
}

// Every run measures every point: running the same jobs twice executes each
// job twice, and the second run reports what the second execution measured.
// Nothing carries over from one run to the next.
func TestRunnerMeasuresEveryRun(t *testing.T) {
	var mu sync.Mutex
	runs := map[string]int{}
	counted := func(name string) Job {
		return Job{
			Group: "g", Name: name, Fingerprint: Fingerprint("g", name),
			Run: func(Sink) (Outcome, error) {
				mu.Lock()
				defer mu.Unlock()
				runs[name]++
				return Outcome{Cycles: float64(runs[name]), Reps: 1}, nil
			},
		}
	}
	jobs := []Job{counted("a"), counted("b")}
	for pass := 1; pass <= 2; pass++ {
		for _, res := range (Runner{Workers: 2}).Run(jobs) {
			if res.Err != nil || res.Record.Cycles != float64(pass) {
				t.Fatalf("pass %d: %s holds %+v, want cycles %d", pass, res.Record.Name, res, pass)
			}
		}
	}
	if runs["a"] != 2 || runs["b"] != 2 {
		t.Fatalf("jobs ran %v times over two runs, want 2 each", runs)
	}
}

// Without WithSnapshots a job gets a nil sink and its result holds no
// snapshots; with it, each job's snapshots come back in emission order.
func TestRunnerSnapshotsOnlyWhenAsked(t *testing.T) {
	emit := func(sawNil *bool) Job {
		return Job{
			Group: "g", Name: "p", Fingerprint: "f",
			Run: func(sink Sink) (Outcome, error) {
				*sawNil = sink == nil
				if sink != nil {
					sink("first", metrics.Snapshot{Cycle: 1})
					sink("second", metrics.Snapshot{Cycle: 2})
				}
				return Outcome{Cycles: 1, Reps: 1}, nil
			},
		}
	}
	var sawNil bool
	res := Runner{}.Run([]Job{emit(&sawNil)})[0]
	if !sawNil || res.Snaps != nil {
		t.Fatalf("without WithSnapshots: nil sink %v, snaps %+v", sawNil, res.Snaps)
	}
	res = Runner{WithSnapshots: true}.Run([]Job{emit(&sawNil)})[0]
	var labels []string
	for _, s := range res.Snaps {
		labels = append(labels, s.Label)
	}
	if sawNil || !reflect.DeepEqual(labels, []string{"first", "second"}) {
		t.Fatalf("with WithSnapshots: nil sink %v, labels %v", sawNil, labels)
	}
}

// A job that succeeds goes running then done, and every event names its
// job's index, group and name and the sweep's total.
func TestRunnerProgressRunningThenDone(t *testing.T) {
	jobs := []Job{constJob("g", "a", 1), constJob("h", "b", 2), constJob("g", "c", 3)}
	var mu sync.Mutex
	states := map[int][]string{}
	runner := Runner{
		Workers: 2,
		Progress: func(ev ProgressEvent) {
			mu.Lock()
			defer mu.Unlock()
			if ev.Total != len(jobs) || ev.Group != jobs[ev.Index].Group || ev.Name != jobs[ev.Index].Name {
				t.Errorf("event %+v does not describe job %d of %d", ev, ev.Index, len(jobs))
			}
			states[ev.Index] = append(states[ev.Index], ev.State)
		},
	}
	if err := FirstError(runner.Run(jobs)); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if want := []string{"running", "done"}; !reflect.DeepEqual(states[i], want) {
			t.Errorf("job %d progress states %v, want %v", i, states[i], want)
		}
	}
}

func TestRunnerCapturesErrorsAndPanics(t *testing.T) {
	jobs := []Job{
		{Group: "g", Name: "boom", Run: func(Sink) (Outcome, error) { panic("sim: cycle limit exceeded") }},
		{Group: "g", Name: "err", Run: func(Sink) (Outcome, error) { return Outcome{}, errors.New("nope") }},
		constJob("g", "fine", 3),
	}
	results := Runner{}.Run(jobs)
	if results[0].Err == nil || results[1].Err == nil || results[2].Err != nil {
		t.Fatalf("error routing wrong: %v / %v / %v", results[0].Err, results[1].Err, results[2].Err)
	}
	// Failed jobs leave no record behind.
	if got := Records(results); len(got) != 1 || got[0].Name != "fine" {
		t.Fatalf("Records = %+v", got)
	}
}

// TestRunnerHangErrorReachesProgress pins the path a simulator watchdog trip
// takes through the runner: the Progress hook sees the job go running then
// failed, and the *sim.HangError keeps its type in JobResult.Err so callers
// can still pull out the structured report.
func TestRunnerHangErrorReachesProgress(t *testing.T) {
	report := &sim.HangReport{Cycle: 12345, Reason: "no-progress", Window: 500, MemOutstanding: 3}
	job := Job{
		Group: "g", Name: "wedge", Fingerprint: "fpW",
		Run: func(Sink) (Outcome, error) { return Outcome{}, &sim.HangError{Report: report} },
	}
	var mu sync.Mutex
	var states []string
	runner := Runner{
		Workers: 1,
		Progress: func(ev ProgressEvent) {
			mu.Lock()
			states = append(states, ev.State)
			mu.Unlock()
		},
	}
	results := runner.Run([]Job{job})
	if want := []string{"running", "failed"}; !reflect.DeepEqual(states, want) {
		t.Fatalf("progress states %v, want %v", states, want)
	}
	var hang *sim.HangError
	if !errors.As(results[0].Err, &hang) || hang.Report != report {
		t.Fatalf("hang lost its type or report through the runner: %v", results[0].Err)
	}
}
