package bench

import (
	"reflect"
	"testing"

	"skipit/internal/ds"
	"skipit/internal/persist"
	"skipit/internal/sweep"
)

// The whole point of the sweep runner: records (and snapshots) from a
// parallel run are bit-identical to a serial run of the same jobs.
func TestJobsDeterministicAcrossWorkerCounts(t *testing.T) {
	small(t)
	build := func() []sweep.Job {
		jobs := Fig9Jobs("fig09", false)
		jobs = append(jobs, Fig13Jobs([]int{1, 2}, 4)...)
		return jobs
	}
	serial := sweep.Runner{Workers: 1, WithSnapshots: true}.Run(build())
	parallel := sweep.Runner{Workers: 4, WithSnapshots: true}.Run(build())
	if err := sweep.FirstError(serial); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sweep.Records(serial), sweep.Records(parallel)) {
		t.Fatal("parallel records diverged from serial")
	}
	for i := range serial {
		// host_sim_cycles_per_sec is wall-clock derived and documented as
		// host-dependent; every simulated metric must still match exactly.
		for _, res := range [][]sweep.LabeledSnapshot{serial[i].Snaps, parallel[i].Snaps} {
			for _, ls := range res {
				delete(ls.Snapshot.Derived, "host_sim_cycles_per_sec")
			}
		}
		if !reflect.DeepEqual(serial[i].Snaps, parallel[i].Snaps) {
			t.Fatalf("job %d snapshots diverged between serial and parallel", i)
		}
	}
}

// Two different figures running concurrently with live snapshot sinks: the
// scenario that raced on the old bench.SnapshotSink package-global. Run
// under -race (CI does) this fails loudly if any shared mutable state is
// left in the measurement path.
func TestParallelFiguresNoRace(t *testing.T) {
	small(t)
	jobs := append(Fig9Jobs("fig09", false), Fig13Jobs([]int{1}, 4)...)
	results := sweep.Runner{Workers: 2, WithSnapshots: true}.Run(jobs)
	if err := sweep.FirstError(results); err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		if len(res.Snaps) == 0 {
			t.Fatalf("job %s emitted no snapshots", res.Record.Name)
		}
	}
}

// The §7.4 harness interleaves thread operations deterministically: two runs
// of one configuration must agree to the bit, or the tolerance-0 gate could
// never pass.
func TestPersistConfigDeterministic(t *testing.T) {
	small(t)
	a := RunPersistConfig(ds.NameHash, persist.Automatic, PolicySkipIt, 20, FliTDefaultTable)
	b := RunPersistConfig(ds.NameHash, persist.Automatic, PolicySkipIt, 20, FliTDefaultTable)
	if a != b {
		t.Fatalf("identical configs measured differently:\n%+v\n%+v", a, b)
	}
	if a.Cycles <= 0 {
		t.Fatalf("non-positive gated cycles: %+v", a)
	}
}

// Persist jobs carry the virtual-cycle metric for gating and throughput as
// a derived metric.
func TestPersistJobOutcome(t *testing.T) {
	small(t)
	recs := runRecords(t, Fig16Jobs(Prefills{}, []uint64{64, 4096}))
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	for _, rec := range recs {
		if rec.Cycles <= 0 || rec.Derived["mops"] <= 0 {
			t.Fatalf("record = %+v", rec)
		}
	}
}

// The next-event clock changes host time only: every cycle-accurate figure
// job must give the same record single-stepping as fast-forwarding.
func TestFigureJobsIdenticalWithoutFastForward(t *testing.T) {
	small(t)
	saved := FastForward
	t.Cleanup(func() { FastForward = saved })
	run := func(ff bool) []sweep.Record {
		FastForward = ff
		jobs := Fig9Jobs("fig09", false)
		jobs = append(jobs, Fig10Jobs(ThreadCounts)...)
		jobs = append(jobs, Fig13Jobs(ThreadCounts, 10)...)
		jobs = append(jobs, AblationJobs()...)
		results := sweep.Runner{}.Run(jobs)
		if err := sweep.FirstError(results); err != nil {
			t.Fatal(err)
		}
		return sweep.Records(results)
	}
	stepped, skipped := run(false), run(true)
	if len(stepped) != len(skipped) {
		t.Fatalf("%d records single-stepping, %d fast-forwarding", len(stepped), len(skipped))
	}
	for i := range stepped {
		if !reflect.DeepEqual(stepped[i], skipped[i]) {
			t.Errorf("%s/%s: single-stepping %+v, fast-forwarding %+v",
				stepped[i].Group, stepped[i].Name, stepped[i], skipped[i])
		}
	}
}

// Every job across all figures must have a unique (group, name) and a
// non-empty fingerprint — the invariants Compare matches records by.
func TestJobIdentityInvariants(t *testing.T) {
	small(t)
	var jobs []sweep.Job
	jobs = append(jobs, Fig9Jobs("fig09", false)...)
	jobs = append(jobs, Fig10Jobs(ThreadCounts)...)
	jobs = append(jobs, ComparativeJobs("fig11", 1)...)
	jobs = append(jobs, ComparativeJobs("fig12", 8)...)
	jobs = append(jobs, Fig13Jobs(ThreadCounts, 10)...)
	jobs = append(jobs, Fig14Jobs(Prefills{})...)
	jobs = append(jobs, Fig15Jobs(Prefills{}, []int{0, 50})...)
	jobs = append(jobs, Fig16Jobs(Prefills{}, []uint64{64, 4096})...)
	jobs = append(jobs, AblationJobs()...)
	seen := map[string]bool{}
	for _, j := range jobs {
		key := j.Group + "/" + j.Name
		if seen[key] {
			t.Errorf("duplicate job %s", key)
		}
		seen[key] = true
		if j.Fingerprint == "" {
			t.Errorf("job %s has no fingerprint", key)
		}
		if j.Group == "" || j.Name == "" {
			t.Errorf("job with empty identity: %+v", j)
		}
	}
	if len(jobs) < 100 {
		t.Fatalf("suspiciously small full grid: %d jobs", len(jobs))
	}
}

// sweep.Runner measures each fingerprint once and copies the outcome to the
// other jobs that share it, which is sound only if a fingerprint determines
// the whole Outcome, derived metrics included. Run every job of every
// shared fingerprint directly and require equal outcomes.
func TestEqualFingerprintsGiveEqualOutcomes(t *testing.T) {
	small(t)
	jobs := FigureJobs(true, nil)
	var order []string
	groups := map[string][]sweep.Job{}
	for _, j := range jobs {
		if len(groups[j.Fingerprint]) == 0 {
			order = append(order, j.Fingerprint)
		}
		groups[j.Fingerprint] = append(groups[j.Fingerprint], j)
	}
	shared := 0
	for _, fp := range order {
		group := groups[fp]
		if len(group) < 2 {
			continue
		}
		shared++
		first, err := group[0].Run(nil)
		if err != nil {
			t.Fatalf("%s/%s: %v", group[0].Group, group[0].Name, err)
		}
		for _, j := range group[1:] {
			out, err := j.Run(nil)
			if err != nil {
				t.Fatalf("%s/%s: %v", j.Group, j.Name, err)
			}
			if !reflect.DeepEqual(out, first) {
				t.Errorf("%s/%s and %s/%s share fingerprint %s but measured\n%+v\n%+v",
					group[0].Group, group[0].Name, j.Group, j.Name, fp, first, out)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two jobs share a fingerprint; the test checks nothing")
	}
}

// sweep.Runner runs the §7.4 jobs that share a prefill key as one group: one
// of them prefills, and the others rebuild the structure by replay and run
// on a copy of the warm state. Every job must measure through the Runner
// exactly what it measures run directly, which prefills afresh. The quick
// list measures 121 distinct points over 64 prefill keys.
func TestSharedPrefillEqualsFreshPrefill(t *testing.T) {
	small(t)
	jobs := FigureJobs(true, map[string]bool{"14": true, "15": true, "16": true})
	results := sweep.Runner{Workers: 4}.Run(jobs)
	measured := map[string]bool{}
	shareds := map[*sweep.Shared]bool{}
	for i, j := range jobs {
		if measured[j.Fingerprint] {
			continue
		}
		measured[j.Fingerprint] = true
		shareds[j.Shared] = true
		res := results[i]
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		fresh, err := j.Run(nil)
		if err != nil {
			t.Fatalf("%s/%s: %v", j.Group, j.Name, err)
		}
		rec := res.Record
		got := sweep.Outcome{Cycles: rec.Cycles, Sigma: rec.Sigma, Reps: rec.Reps, Derived: rec.Derived}
		if !reflect.DeepEqual(got, fresh) {
			t.Errorf("%s/%s: through the Runner %+v, prefilled afresh %+v", j.Group, j.Name, got, fresh)
		}
	}
	if len(measured) != 121 || len(shareds) != 64 || shareds[nil] {
		t.Fatalf("%d measured jobs over %d Shareds (nil among them: %v), want 121 over 64",
			len(measured), len(shareds), shareds[nil])
	}
}
