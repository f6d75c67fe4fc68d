package bench

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"skipit/internal/sweep"
)

var updateWork = flag.Bool("update-work", false, "rewrite testdata/workcounts.txt from this build")

// workCounts is the simulator's host work on one figure group, summed over
// its jobs' snapshots: cycles ticked and skipped by the fast-forward clock,
// and tick calls made to the tiles (a core, its L1 and flush unit) and to the
// hub (the L2 and DRAM). Each is an exact count that repeats run for run,
// where host time drifts.
type workCounts struct {
	ticked, skipped, tileTicks, hubTicks uint64
}

var workColumns = []string{"ticked_cycles", "skipped_cycles", "tile_ticks", "hub_ticks"}

func (w workCounts) values() []uint64 {
	return []uint64{w.ticked, w.skipped, w.tileTicks, w.hubTicks}
}

// measureWork runs the quick cycle-accurate figure jobs, each fingerprint
// once (the runner copies the rest), and sums each group's work counts.
func measureWork(t *testing.T) map[string]workCounts {
	t.Helper()
	reps, sizes, threads, ops := Reps, Sizes, ThreadCounts, PersistOpsPerThr
	SetQuick()
	t.Cleanup(func() { Reps, Sizes, ThreadCounts, PersistOpsPerThr = reps, sizes, threads, ops })
	all := FigureJobs(true, map[string]bool{"9": true, "10": true, "11": true, "12": true, "13": true, "ablations": true})
	seen := map[string]bool{}
	var jobs []sweep.Job
	for _, j := range all {
		if !seen[j.Fingerprint] {
			seen[j.Fingerprint] = true
			jobs = append(jobs, j)
		}
	}
	results := sweep.Runner{WithSnapshots: true}.Run(jobs)
	if err := sweep.FirstError(results); err != nil {
		t.Fatal(err)
	}
	out := map[string]workCounts{}
	for _, r := range results {
		w := out[r.Group]
		for _, ls := range r.Snaps {
			skipped := ls.Snapshot.Counters["sim.skipped_cycles"]
			w.ticked += uint64(ls.Snapshot.Cycle) - skipped
			w.skipped += skipped
			w.tileTicks += uint64(ls.Snapshot.Derived["sim.tile_ticks"])
			w.hubTicks += uint64(ls.Snapshot.Derived["sim.hub_ticks"])
		}
		out[r.Group] = w
	}
	return out
}

// formatWork renders the counts as the committed file's text.
func formatWork(counts map[string]workCounts) []byte {
	var b bytes.Buffer
	b.WriteString("# Exact host work of the quick cycle-accurate figure jobs, summed per group\n")
	b.WriteString("# (each fingerprint once). TestWorkCounts fails when a count differs;\n")
	b.WriteString("# rewrite with: go test ./internal/bench -run TestWorkCounts -update-work\n")
	fmt.Fprintf(&b, "%-10s %s\n", "# group", strings.Join(workColumns, " "))
	groups := make([]string, 0, len(counts))
	for g := range counts {
		groups = append(groups, g)
	}
	slices.Sort(groups)
	for _, g := range groups {
		fmt.Fprintf(&b, "%-10s", g)
		for _, v := range counts[g].values() {
			fmt.Fprintf(&b, " %d", v)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// parseWork reads the committed file.
func parseWork(t *testing.T, data []byte) map[string]workCounts {
	t.Helper()
	out := map[string]workCounts{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 1+len(workColumns) {
			t.Fatalf("workcounts line %q: want a group and %d counts", line, len(workColumns))
		}
		var v [4]uint64
		for i := range v {
			n, err := strconv.ParseUint(f[i+1], 10, 64)
			if err != nil {
				t.Fatalf("workcounts line %q: %v", line, err)
			}
			v[i] = n
		}
		out[f[0]] = workCounts{ticked: v[0], skipped: v[1], tileTicks: v[2], hubTicks: v[3]}
	}
	return out
}

// TestWorkCounts gates the fast-forward clock and the per-part wakes on
// exact work counts (testdata/workcounts.txt). A count above the committed
// one is lost skipping: a conservative NextEvent, a wake refreshed too
// early, an extra ticked cycle. It changes no result, so no other test sees
// it. A count below the committed one is a gain the file must record, in the
// same commit, so the diff shows it. Either way the test prints the file
// this build measures.
func TestWorkCounts(t *testing.T) {
	got := measureWork(t)
	path := filepath.Join("testdata", "workcounts.txt")
	if *updateWork {
		if err := os.WriteFile(path, formatWork(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := parseWork(t, data)
	var rises, falls []string
	for g, w := range want {
		if _, ok := got[g]; !ok {
			rises = append(rises, fmt.Sprintf("group %s measured nothing", g))
		}
		for i, v := range got[g].values() {
			switch c := w.values()[i]; {
			case v > c:
				rises = append(rises, fmt.Sprintf("%s %s rose %d -> %d", g, workColumns[i], c, v))
			case v < c:
				falls = append(falls, fmt.Sprintf("%s %s fell %d -> %d", g, workColumns[i], c, v))
			}
		}
	}
	for g := range got {
		if _, ok := want[g]; !ok {
			falls = append(falls, fmt.Sprintf("group %s is new", g))
		}
	}
	slices.Sort(rises)
	slices.Sort(falls)
	if len(rises) > 0 {
		t.Errorf("host work rose:\n  %s", strings.Join(rises, "\n  "))
	}
	if len(falls) > 0 {
		t.Errorf("host work fell; commit the new counts with the change:\n  %s", strings.Join(falls, "\n  "))
	}
	if t.Failed() {
		t.Logf("this build measures (%s):\n%s", path, formatWork(got))
	}
}
