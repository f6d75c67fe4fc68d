package bench

import (
	"strings"
	"testing"

	"skipit/internal/ds"
	"skipit/internal/metrics"
	"skipit/internal/persist"
	"skipit/internal/sweep"
)

// small shrinks every knob for fast tests and restores on cleanup.
func small(t *testing.T) {
	t.Helper()
	savedReps, savedSizes, savedThreads, savedOps := Reps, Sizes, ThreadCounts, PersistOpsPerThr
	savedList, savedHash, savedTree := ListKeys, HashKeys, TreeKeys
	Reps = 1
	Sizes = []uint64{64, 1024}
	ThreadCounts = []int{1, 2}
	PersistOpsPerThr = 300
	ListKeys, HashKeys, TreeKeys = 64, 256, 256
	t.Cleanup(func() {
		Reps, Sizes, ThreadCounts, PersistOpsPerThr = savedReps, savedSizes, savedThreads, savedOps
		ListKeys, HashKeys, TreeKeys = savedList, savedHash, savedTree
	})
}

// runRecords runs the jobs through the sweep runner and returns their
// records by name, failing the test on any job error.
func runRecords(t *testing.T, jobs []sweep.Job) map[string]sweep.Record {
	t.Helper()
	results := sweep.Runner{}.Run(jobs)
	if err := sweep.FirstError(results); err != nil {
		t.Fatal(err)
	}
	recs := map[string]sweep.Record{}
	for _, r := range sweep.Records(results) {
		recs[r.Name] = r
	}
	return recs
}

// cycles returns the named record's cycles, failing the test when the jobs
// produced no such record.
func cycles(t *testing.T, recs map[string]sweep.Record, name string) float64 {
	t.Helper()
	r, ok := recs[name]
	if !ok {
		t.Fatalf("no record %q", name)
	}
	return r.Cycles
}

func TestFig9ShapeAndScaling(t *testing.T) {
	small(t)
	recs := runRecords(t, Fig9Jobs("fig09", false))
	if len(recs) != len(Sizes)*len(ThreadCounts) {
		t.Fatalf("%d records", len(recs))
	}
	for _, r := range recs {
		if r.Cycles <= 0 {
			t.Fatalf("non-positive latency: %+v", r)
		}
	}
	// More data takes longer at fixed threads.
	if cycles(t, recs, "flush/size1024/threads1") <= cycles(t, recs, "flush/size64/threads1") {
		t.Fatal("latency not increasing with size")
	}
	// More threads never slower at the largest size.
	if cycles(t, recs, "flush/size1024/threads2") > cycles(t, recs, "flush/size1024/threads1") {
		t.Fatal("two threads slower than one")
	}
}

func TestFig9SingleLineBand(t *testing.T) {
	// §7.2 anchor: one-line CBO.X lands near 100 cycles.
	lat := SweepOnce(nil, 64, 1, false)
	if lat < 60 || lat > 200 {
		t.Fatalf("single-line flush latency %.0f, want ~100", lat)
	}
	clean := SweepOnce(nil, 64, 1, true)
	// §7.2: clean and flush are equivalent in isolation.
	if ratio := clean / lat; ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("clean/flush isolation ratio %.2f, want ~1", ratio)
	}
}

func TestFig10CleanBeatsFlush(t *testing.T) {
	small(t)
	recs := runRecords(t, Fig10Jobs([]int{1}))
	clean := cycles(t, recs, "clean/size1024/threads1")
	flush := cycles(t, recs, "flush/size1024/threads1")
	if !(flush > clean) {
		t.Fatalf("flush (%.0f) not slower than clean (%.0f) on re-read workload", flush, clean)
	}
}

func TestFig13SkipItWins(t *testing.T) {
	small(t)
	recs := runRecords(t, Fig13Jobs([]int{1}, 10))
	naive := cycles(t, recs, "naive/size1024/threads1")
	skip := cycles(t, recs, "skipit/size1024/threads1")
	gain := (naive - skip) / naive
	if gain < 0.05 {
		t.Fatalf("Skip It gain %.1f%% on redundant cleans, want >5%% (paper: 15-30%%)", gain*100)
	}
}

// TestAblationCoalescingCoalesces: the coalescing ablation's on-row merges
// CBOs into queued twins and finishes sooner for it; the off-row merges
// none.
func TestAblationCoalescingCoalesces(t *testing.T) {
	coalesced := map[string]uint64{}
	cycles := map[string]float64{}
	for _, j := range AblationJobs() {
		if j.Series != "coalescing" {
			continue
		}
		out, err := j.Run(func(_ string, snap metrics.Snapshot) { coalesced[j.X] = snap.Counters["flush.coalesced"] })
		if err != nil {
			t.Fatal(err)
		}
		cycles[j.X] = out.Cycles
	}
	if coalesced["on"] == 0 || coalesced["off"] != 0 {
		t.Fatalf("flush.coalesced: on %d, off %d; want on > 0, off 0", coalesced["on"], coalesced["off"])
	}
	if cycles["on"] >= cycles["off"] {
		t.Fatalf("coalescing on took %.0f cycles, off %.0f", cycles["on"], cycles["off"])
	}
}

// The paper's literal CBO.FLUSH variant of Figure 13 has no job, so this
// measures it directly: after the first flush the line is gone, and both
// modes resolve the redundant flushes at the L2.
func TestFig13FlushVariantFallsBackToL2Skip(t *testing.T) {
	naive := measureRedundant(nil, 1024, 1, 4, false, false)
	skip := measureRedundant(nil, 1024, 1, 4, true, false)
	// Skip It must not be slower.
	if skip > naive*1.05 {
		t.Fatalf("Skip It flush variant slower than naive: %.0f vs %.0f", skip, naive)
	}
}

func TestPersistConfigRelationships(t *testing.T) {
	small(t)
	base := RunPersistConfig(ds.NameHash, persist.Automatic, PolicyNone, 5, FliTDefaultTable)
	plain := RunPersistConfig(ds.NameHash, persist.Automatic, PolicyPlain, 5, FliTDefaultTable)
	skip := RunPersistConfig(ds.NameHash, persist.Automatic, PolicySkipIt, 5, FliTDefaultTable)
	if !(base.Mops > skip.Mops && skip.Mops > plain.Mops) {
		t.Fatalf("ordering violated: baseline %.3f, skipit %.3f, plain %.3f",
			base.Mops, skip.Mops, plain.Mops)
	}
	if plain.Flushes == 0 {
		t.Fatal("plain issued no flushes under automatic mode")
	}
	if skip.Elided == 0 {
		t.Fatal("Skip It elided nothing under automatic mode")
	}
}

func TestManualModeNearBaseline(t *testing.T) {
	small(t)
	base := RunPersistConfig(ds.NameHash, persist.Manual, PolicyNone, 5, FliTDefaultTable)
	skip := RunPersistConfig(ds.NameHash, persist.Manual, PolicySkipIt, 5, FliTDefaultTable)
	if skip.Mops < base.Mops*0.7 {
		t.Fatalf("manual+skipit %.3f far below baseline %.3f", skip.Mops, base.Mops)
	}
}

// §7.4: link-and-persist cannot be applied to the BST. Both grids that cross
// structures with elision schemes must leave out that pair, and only it.
func TestFig14SkipsLAPForBST(t *testing.T) {
	for _, jobs := range [][]sweep.Job{Fig14Jobs(Prefills{}), Fig15Jobs(Prefills{}, []int{0, 50})} {
		lap := map[string]bool{}
		for _, j := range jobs {
			structure, rest, _ := strings.Cut(j.Name, "/")
			if strings.Contains(rest, PolicyLinkAndPersist.String()) {
				lap[structure] = true
			}
		}
		for _, structure := range Structures() {
			if want := structure != ds.NameBST; lap[structure] != want {
				t.Errorf("%s: link-and-persist jobs on %s = %v, want %v",
					jobs[0].Group, structure, lap[structure], want)
			}
		}
	}
}
