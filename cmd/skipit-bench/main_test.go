package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"skipit/internal/bench"
	"skipit/internal/metrics"
	"skipit/internal/sweep"
)

func labeled(label string, cycle int64) sweep.LabeledSnapshot {
	return sweep.LabeledSnapshot{Label: label, Snapshot: metrics.Snapshot{
		Cycle:    cycle,
		Counters: map[string]uint64{"l1.writebacks": uint64(cycle)},
	}}
}

// TestWriteSidecarKeepsSubmissionOrder: the sidecar lists every snapshot of
// the group, job by job in submission order and, within a job, in the order
// the job emitted them.
func TestWriteSidecarKeepsSubmissionOrder(t *testing.T) {
	dir := t.TempDir()
	results := []sweep.JobResult{
		{Group: "fig13", Snaps: []sweep.LabeledSnapshot{labeled("b", 2), labeled("a", 1)}},
		{Group: "fig13"},
		{Group: "fig13", Snaps: []sweep.LabeledSnapshot{labeled("c", 3)}},
	}
	if err := writeSidecar(dir, "fig13", results); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "fig13.metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got []sweep.LabeledSnapshot
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("sidecar is not a list of labeled snapshots: %v", err)
	}
	want := []sweep.LabeledSnapshot{labeled("b", 2), labeled("a", 1), labeled("c", 3)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sidecar = %+v, want %+v", got, want)
	}
}

// TestWriteSidecarSkipsGroupsWithoutSnapshots: the software-study figures
// emit no snapshots, so they get no sidecar file.
func TestWriteSidecarSkipsGroupsWithoutSnapshots(t *testing.T) {
	dir := t.TempDir()
	if err := writeSidecar(dir, "fig14", []sweep.JobResult{{Group: "fig14"}, {Group: "fig14"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig14.metrics.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("group without snapshots got a sidecar (stat: %v)", err)
	}
}

// TestWriteSidecarReportsUnwritableDir: a sidecar that cannot be created is
// an error naming its path.
func TestWriteSidecarReportsUnwritableDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "missing")
	results := []sweep.JobResult{{Group: "fig09", Snaps: []sweep.LabeledSnapshot{labeled("a", 1)}}}
	err := writeSidecar(dir, "fig09", results)
	if err == nil || !strings.Contains(err.Error(), filepath.Join(dir, "fig09.metrics.json")) {
		t.Fatalf("writeSidecar into a missing directory = %v, want an error naming the sidecar", err)
	}
}

// TestRenderRecord: throughput figures print Mops/s; the others print
// cycles, with the spread only when the point was repeated.
func TestRenderRecord(t *testing.T) {
	for _, tc := range []struct {
		name string
		fig  bench.Figure
		rec  sweep.Record
		want string
	}{
		{"mops", bench.Figure{Mops: true},
			sweep.Record{Series: "hashmap/skipit", X: "10%", Derived: map[string]float64{"mops": 1.23456}},
			"hashmap/skipit               10%                   1.235 Mops/s"},
		{"cycles", bench.Figure{},
			sweep.Record{Series: "flush", X: "64", Cycles: 1234.4, Reps: 1},
			"flush                    size=64               1234 cycles"},
		{"cycles with sigma", bench.Figure{},
			sweep.Record{Series: "flush", X: "64", Cycles: 1234, Sigma: 5.26, Reps: 3},
			"flush                    size=64               1234 cycles (sigma 5.3)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := renderRecord(tc.fig, tc.rec); got != tc.want {
				t.Fatalf("renderRecord = %q, want %q", got, tc.want)
			}
		})
	}
}
