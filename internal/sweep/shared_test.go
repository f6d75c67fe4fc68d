package sweep

import (
	"errors"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// takeCounts counts a Shared's builds and copies.
type takeCounts struct {
	builds, clones atomic.Int32
}

// takeJob returns a job that takes a []int{7} from s, bumps its first
// element and reports it as cycles: 8 unless the job was handed a value an
// earlier taker had already changed. fail, when non-nil, runs inside the
// build and may panic.
func takeJob(name string, s *Shared, c *takeCounts, fail func()) Job {
	return Job{
		Group: "g", Name: name, Fingerprint: Fingerprint("g", name), Shared: s,
		Run: func(Sink) (Outcome, error) {
			v := Take(s, func() []int {
				c.builds.Add(1)
				if fail != nil {
					fail()
				}
				return []int{7}
			}, func(v []int) []int {
				c.clones.Add(1)
				return slices.Clone(v)
			})
			v[0]++
			return Outcome{Cycles: float64(v[0]), Reps: 1}, nil
		},
	}
}

// holds reports whether s holds a value or expects Takes.
func (s *Shared) holds() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.made || s.value != nil || s.left != 0
}

// Every Run builds each group's value once, hands the group's last job the
// original and every other job a copy, and leaves no Shared holding
// anything. A second Run over the same jobs builds afresh.
func TestSharedBuildsOncePerRun(t *testing.T) {
	var s1, s2 Shared
	var c1, c2 takeCounts
	jobs := []Job{
		takeJob("a1", &s1, &c1, nil), takeJob("b1", &s2, &c2, nil), constJob("g", "c", 8),
		takeJob("a2", &s1, &c1, nil), takeJob("b2", &s2, &c2, nil), takeJob("a3", &s1, &c1, nil),
	}
	for run := 1; run <= 2; run++ {
		results := Runner{Workers: 2}.Run(jobs)
		for i, res := range results {
			if res.Err != nil || res.Record.Cycles != 8 {
				t.Errorf("run %d: job %s holds %+v, want cycles 8", run, jobs[i].Name, res)
			}
		}
		if got := [4]int32{c1.builds.Load(), c1.clones.Load(), c2.builds.Load(), c2.clones.Load()}; got != [4]int32{1, 2, 1, 1} {
			t.Errorf("run %d: builds and copies (a, a, b, b) = %v, want [1 2 1 1]", run, got)
		}
		if s1.holds() || s2.holds() {
			t.Errorf("run %d: a Shared still holds a value after Run returned", run)
		}
		c1, c2 = takeCounts{}, takeCounts{}
	}
}

// A job that copies another's fingerprint does not run, so it takes
// nothing: the group's last job still gets the original.
func TestSharedCopiedJobIsNoTaker(t *testing.T) {
	var s Shared
	var c takeCounts
	jobs := []Job{takeJob("a1", &s, &c, nil), takeJob("a2", &s, &c, nil), takeJob("dup", &s, &c, nil)}
	jobs[2].Fingerprint = jobs[0].Fingerprint
	results := Runner{Workers: 2}.Run(jobs)
	if err := FirstError(results); err != nil {
		t.Fatal(err)
	}
	if b, k := c.builds.Load(), c.clones.Load(); b != 1 || k != 1 {
		t.Fatalf("%d builds and %d copies, want 1 and 1: the copied job counted as a taker", b, k)
	}
	if got := results[2].Record; got.Name != "dup" || got.Cycles != 8 {
		t.Fatalf("copied job's record %+v", got)
	}
}

// A build that panics fails its own job only: the group's next job builds
// the value, and every job gets its own record or error. A job that fails
// before it takes leaves the value held, and the Runner drops it when the
// group ends.
func TestSharedPanickingBuildPassesToNextTaker(t *testing.T) {
	var s Shared
	var c takeCounts
	var once sync.Once
	fail := func() { once.Do(func() { panic("prefill failed") }) }
	early := Job{Group: "g", Name: "a4", Fingerprint: Fingerprint("g", "a4"), Shared: &s,
		Run: func(Sink) (Outcome, error) { return Outcome{}, errors.New("failed before taking") }}
	jobs := []Job{takeJob("a1", &s, &c, fail), takeJob("a2", &s, &c, fail), takeJob("a3", &s, &c, fail), early}
	results := Runner{Workers: 2}.Run(jobs)
	if results[0].Err == nil || results[3].Err == nil {
		t.Fatalf("failed jobs report %v and %v", results[0].Err, results[3].Err)
	}
	for _, res := range results[1:3] {
		if res.Err != nil || res.Record.Cycles != 8 {
			t.Errorf("job %s holds %+v, want cycles 8", res.Record.Name, res)
		}
	}
	if b, k := c.builds.Load(), c.clones.Load(); b != 2 || k != 2 {
		t.Errorf("%d builds (one panicked) and %d copies, want 2 and 2", b, k)
	}
	if s.holds() {
		t.Error("the Shared still holds a value after Run returned")
	}
}

// Outside a Runner, Take builds every time and copies nothing, as does a
// nil Shared.
func TestSharedOutsideRunnerOnlyBuilds(t *testing.T) {
	var s Shared
	var c takeCounts
	job := takeJob("a", &s, &c, nil)
	for range 2 {
		if out, err := job.Run(nil); err != nil || out.Cycles != 8 {
			t.Fatalf("direct run gave %+v, %v", out, err)
		}
	}
	if v := Take(nil, func() int { return 3 }, func(int) int { return -1 }); v != 3 {
		t.Fatalf("nil Shared took %d, want 3", v)
	}
	if b, k := c.builds.Load(), c.clones.Load(); b != 2 || k != 0 {
		t.Fatalf("%d builds and %d copies, want 2 and 0", b, k)
	}
}

// Takers on several goroutines each get a value equal to the one built,
// while the taker that got the original changes it: every copy is made
// under the lock, before the original can reach the last taker. Run under
// -race, a copy made after Take returned is reported.
func TestSharedConcurrentTakersCopyUnderLock(t *testing.T) {
	const takers = 8
	var s Shared
	s.begin(takers)
	want := []int{1, 2, 3, 4}
	var built *int // the original's first element, set under the lock
	var originals atomic.Int32
	var wg sync.WaitGroup
	for g := range takers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := Take(&s, func() []int {
				v := slices.Clone(want)
				built = &v[0]
				return v
			}, slices.Clone[[]int])
			if !slices.Equal(v, want) {
				t.Errorf("taker %d got %v, want %v", g, v, want)
			}
			if &v[0] != built {
				return
			}
			originals.Add(1)
			for i := range 1000 {
				v[i%len(v)] = -i
			}
		}()
	}
	wg.Wait()
	if n := originals.Load(); n != 1 {
		t.Fatalf("%d takers got the original, want 1", n)
	}
	if s.holds() {
		t.Fatalf("%d takers left the Shared holding a value", takers)
	}
}

// A group's jobs run back to back: no other job of the run starts between
// the first one's start and the last one's end on the same worker, so with
// one worker the group's events are consecutive and in submission order.
func TestSharedGroupRunsBackToBack(t *testing.T) {
	var s Shared
	var c takeCounts
	jobs := []Job{
		takeJob("a1", &s, &c, nil), constJob("g", "x", 8), takeJob("a2", &s, &c, nil),
		constJob("g", "y", 8), takeJob("a3", &s, &c, nil),
	}
	var mu sync.Mutex
	var events []string
	runner := Runner{Workers: 1, Progress: func(ev ProgressEvent) {
		mu.Lock()
		defer mu.Unlock()
		events = append(events, ev.Name+" "+ev.State)
	}}
	if err := FirstError(runner.Run(jobs)); err != nil {
		t.Fatal(err)
	}
	i := slices.Index(events, "a1 running")
	want := []string{"a1 running", "a1 done", "a2 running", "a2 done", "a3 running", "a3 done"}
	if i < 0 || i+len(want) > len(events) || !reflect.DeepEqual(events[i:i+len(want)], want) {
		t.Fatalf("events %v, want the a jobs' events consecutive: %v", events, want)
	}
}
