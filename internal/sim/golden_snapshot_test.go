package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"skipit/internal/isa"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/snapshot.golden.json from this build")

// TestSnapshotMatchesGolden pins every key and value of a snapshot: each
// counter, gauge and histogram the SoC registers, the aggregates and derived
// metrics sim.Snapshot adds, and a sampler's series over every counter, for
// a fixed 2-core run. Only the host-time derived key is left out. A renamed,
// dropped or added instrument, or a moved value, fails here; a change that
// means to move them regenerates the file with -update.
func TestSnapshotMatchesGolden(t *testing.T) {
	s := New(DefaultConfig(2))
	s.EnableSampling(100)
	if _, err := s.Run([]*isa.Program{snapshotWorkload(), snapshotWorkload()}, runLimit); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	delete(snap.Derived, "host_sim_cycles_per_sec")
	got, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "snapshot.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("%s line %d: got %q, want %q", path, i+1, g, w)
		}
	}
}
