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

func TestRunnerStoreSkipAndForce(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	runs := 0
	job := Job{
		Group: "g", Name: "p", Fingerprint: Fingerprint("v1"),
		Run: func(Sink) (Outcome, error) {
			runs++
			return Outcome{Cycles: 10, Reps: 1}, nil
		},
	}
	if res := (&Runner{Store: st}).Run([]Job{job}); res[0].Cached || res[0].Err != nil {
		t.Fatalf("first run: %+v", res[0])
	}
	// Same fingerprint: served from the store, not re-measured.
	if res := (&Runner{Store: st}).Run([]Job{job}); !res[0].Cached || res[0].Record.Cycles != 10 {
		t.Fatalf("second run not cached: %+v", res[0])
	}
	if runs != 1 {
		t.Fatalf("job ran %d times", runs)
	}
	// -force overrides the hit.
	if res := (&Runner{Store: st, Force: true}).Run([]Job{job}); res[0].Cached {
		t.Fatal("Force run served from store")
	}
	if runs != 2 {
		t.Fatalf("job ran %d times after force", runs)
	}
	// A changed fingerprint misses.
	job.Fingerprint = Fingerprint("v2")
	(&Runner{Store: st}).Run([]Job{job})
	if runs != 3 {
		t.Fatalf("changed fingerprint did not re-run (runs=%d)", runs)
	}
}

func TestRunnerCapturesErrorsAndPanics(t *testing.T) {
	jobs := []Job{
		{Group: "g", Name: "boom", Run: func(Sink) (Outcome, error) { panic("sim: cycle limit exceeded") }},
		{Group: "g", Name: "err", Run: func(Sink) (Outcome, error) { return Outcome{}, errors.New("nope") }},
		constJob("g", "fine", 3),
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	results := (&Runner{Store: st}).Run(jobs)
	if results[0].Err == nil || results[1].Err == nil || results[2].Err != nil {
		t.Fatalf("error routing wrong: %v / %v / %v", results[0].Err, results[1].Err, results[2].Err)
	}
	if got := Records(results); len(got) != 1 || got[0].Name != "fine" {
		t.Fatalf("Records = %+v", got)
	}
	// Failed jobs must not pollute the store.
	if recs := st.Records("g"); len(recs) != 1 || recs[0].Name != "fine" {
		t.Fatalf("store holds %+v", recs)
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
