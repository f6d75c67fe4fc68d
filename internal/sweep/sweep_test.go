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

// Every run measures every distinct point: running the same jobs twice
// executes each job twice, and the second run reports what the second
// execution measured. Nothing carries over from one run to the next.
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
// job's index, group and name. Copies of a measured job (d and e share a's
// fingerprint) do too, last and in index order.
func TestRunnerProgressRunningThenDone(t *testing.T) {
	jobs := []Job{constJob("g", "a", 1), constJob("h", "b", 2), constJob("g", "c", 3),
		constJob("g", "d", 1), constJob("g", "e", 1)}
	jobs[3].Fingerprint, jobs[4].Fingerprint = jobs[0].Fingerprint, jobs[0].Fingerprint
	var mu sync.Mutex
	states := map[int][]string{}
	var last []string
	runner := Runner{
		Workers: 2,
		Progress: func(ev ProgressEvent) {
			mu.Lock()
			defer mu.Unlock()
			if ev.Group != jobs[ev.Index].Group || ev.Name != jobs[ev.Index].Name {
				t.Errorf("event %+v does not describe job %d", ev, ev.Index)
			}
			states[ev.Index] = append(states[ev.Index], ev.State)
			last = append(last, ev.Name+" "+ev.State)
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
	if want := []string{"d running", "d done", "e running", "e done"}; !reflect.DeepEqual(last[len(last)-4:], want) {
		t.Errorf("last events %v, want %v", last[len(last)-4:], want)
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

// dupJobs returns jobs a, b, c, d and e: b and d share a's fingerprint, e has
// none, and each run is counted in runs. Every job emits one snapshot and
// returns one derived metric.
func dupJobs(runs map[string]int, mu *sync.Mutex, err error) []Job {
	job := func(name, fp string) Job {
		return Job{
			Group: "g-" + name, Name: name, Series: "s-" + name, X: "x-" + name, Fingerprint: fp,
			Run: func(sink Sink) (Outcome, error) {
				mu.Lock()
				runs[name]++
				mu.Unlock()
				if sink != nil {
					sink("label", metrics.Snapshot{Cycle: 7,
						Counters:   map[string]uint64{"c": 1},
						Histograms: map[string]metrics.HistogramSnapshot{"h": {Count: 1, Buckets: []uint64{1, 0}}},
						Series:     []metrics.SeriesSnapshot{{Key: "c", Values: []uint64{1}}},
					})
				}
				if err != nil && name == "a" {
					return Outcome{}, err
				}
				return Outcome{Cycles: 42, Sigma: 1.5, Reps: 3, Derived: map[string]float64{"mops": 2}}, nil
			},
		}
	}
	return []Job{job("a", "fa"), job("b", "fa"), job("c", "fc"), job("d", "fa"), job("e", "")}
}

// Jobs that share a fingerprint run once per run; each later one gets the
// first one's outcome under its own identity. Jobs without a fingerprint
// always run.
func TestRunnerMeasuresEachFingerprintOnce(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		runs := map[string]int{}
		jobs := dupJobs(runs, &mu, nil)
		jobs = append(jobs, jobs[4])
		jobs[5].Name = "f"
		results := Runner{Workers: workers, WithSnapshots: true}.Run(jobs)
		if want := map[string]int{"a": 1, "c": 1, "e": 2}; !reflect.DeepEqual(runs, want) {
			t.Fatalf("workers=%d: jobs ran %v, want %v", workers, runs, want)
		}
		for i, res := range results {
			j := jobs[i]
			want := Record{Group: j.Group, Name: j.Name, Fingerprint: j.Fingerprint, Series: j.Series, X: j.X,
				Cycles: 42, Sigma: 1.5, Reps: 3, Derived: map[string]float64{"mops": 2}}
			if res.Err != nil || res.Group != j.Group || !reflect.DeepEqual(res.Record, want) {
				t.Errorf("workers=%d: job %d result %+v, want record %+v", workers, i, res, want)
			}
			if len(res.Snaps) != 1 || res.Snaps[0].Label != "label" || res.Snaps[0].Snapshot.Counters["c"] != 1 {
				t.Errorf("workers=%d: job %d snapshots %+v", workers, i, res.Snaps)
			}
		}
	}
}

// A copied result shares no map or slice with the result it was copied from:
// editing one result's derived metrics or snapshot leaves all others alone.
func TestRunnerCopiesShareNothing(t *testing.T) {
	var mu sync.Mutex
	run := func() []JobResult {
		return Runner{Workers: 2, WithSnapshots: true}.Run(dupJobs(map[string]int{}, &mu, nil))
	}
	for i := range 5 {
		results, want := run(), run()
		results[i].Record.Derived["mops"] = -1
		results[i].Record.Derived["extra"] = 1
		snap := results[i].Snaps[0].Snapshot
		snap.Counters["c"] = 99
		snap.Histograms["h"].Buckets[0] = 99
		snap.Series[0].Values[0] = 99
		for j := range results {
			if j != i && !reflect.DeepEqual(results[j], want[j]) {
				t.Fatalf("editing result %d changed result %d: %+v", i, j, results[j])
			}
		}
	}
}

// The first job's error reaches every job sharing its fingerprint, and each
// copy reports failed.
func TestRunnerCopiesCarryTheError(t *testing.T) {
	var mu sync.Mutex
	boom := errors.New("boom")
	failed := map[string]bool{}
	runner := Runner{Workers: 2, Progress: func(ev ProgressEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.State == "failed" {
			failed[ev.Name] = true
		}
	}}
	results := runner.Run(dupJobs(map[string]int{}, &mu, boom))
	for i, name := range []string{"a", "b", "c", "d", "e"} {
		err, wantErr := results[i].Err, name == "a" || name == "b" || name == "d"
		if wantErr && !errors.Is(err, boom) || !wantErr && err != nil {
			t.Errorf("job %s: error %v, want boom: %v", name, err, wantErr)
		}
		if failed[name] != wantErr {
			t.Errorf("job %s: failed event %v, want %v", name, failed[name], wantErr)
		}
	}
	if got := Records(results); len(got) != 2 || got[0].Name != "c" || got[1].Name != "e" {
		t.Fatalf("Records = %+v, want c and e", got)
	}
}
