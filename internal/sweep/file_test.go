package sweep

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName("quick"))
	rec := Record{Group: "fig09", Name: "p", Fingerprint: "ab", Series: "1T", X: "64",
		Cycles: 100, Sigma: 1.5, Reps: 5, Derived: map[string]float64{"size": 64}}
	if err := WriteFile(path, File{Group: "quick", Records: []Record{rec}}); err != nil {
		t.Fatal(err)
	}
	f, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Records) != 1 {
		t.Fatalf("records = %+v", f.Records)
	}
	got := f.Records[0]
	if got.Cycles != 100 || got.Sigma != 1.5 || got.Derived["size"] != 64 || got.Series != "1T" || got.Fingerprint != "ab" {
		t.Fatalf("round-trip mangled record: %+v", got)
	}
}

// Identical sweeps must write byte-identical files: the determinism the
// N=1 vs N=GOMAXPROCS acceptance check relies on.
func TestWriteFileIsByteDeterministic(t *testing.T) {
	write := func(dir string) []byte {
		path := filepath.Join(dir, FileName("quick"))
		recs := []Record{
			{Group: "g", Name: "a", Fingerprint: "f1", Cycles: 1, Reps: 1},
			{Group: "g", Name: "b", Fingerprint: "f2", Cycles: 2, Reps: 1,
				Derived: map[string]float64{"z": 1, "a": 2}},
		}
		if err := WriteFile(path, File{Group: "quick", Records: recs}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if string(write(t.TempDir())) != string(write(t.TempDir())) {
		t.Fatal("two identical sweeps wrote different bytes")
	}
}

// A killed process may leave a partially-written file. WriteFile goes to a
// temp file and renames it into place, so the visible BENCH_*.json is always
// complete; a torn file from a pre-atomic writer is rejected on load and
// replaced whole by the next write.
func TestWriteFileReplacesTornFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName("quick"))
	// Simulate a torn write: valid prefix of a real result file, cut mid-record.
	torn := `{"schema_version":1,"group":"quick","records":[{"name":"p","fingerp`
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	var ce *CorruptError
	if _, err := LoadFile(path); !errors.As(err, &ce) {
		t.Fatalf("torn file load = %v, want *CorruptError", err)
	}
	if err := WriteFile(path, File{Group: "quick", Records: []Record{{Name: "p", Fingerprint: "ab", Cycles: 1, Reps: 1}}}); err != nil {
		t.Fatal(err)
	}
	f, err := LoadFile(path)
	if err != nil {
		t.Fatalf("rewritten file still unreadable: %v", err)
	}
	if len(f.Records) != 1 || f.Records[0].Name != "p" {
		t.Fatalf("rewritten file = %+v", f)
	}
}

// The atomic write never leaves its temp file behind on success, even when a
// crashed earlier write left one under the same name.
func TestWriteFileLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName("quick"))
	if err := os.WriteFile(path+".tmp", []byte(`{"schema_ver`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, File{Group: "quick", Records: []Record{{Name: "p", Fingerprint: "f", Cycles: 1, Reps: 1}}}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != FileName("quick") {
			t.Fatalf("unexpected file left in output dir: %s", e.Name())
		}
	}
}

func TestWriteFileStampsSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), FileName("quick"))
	if err := WriteFile(path, File{Group: "quick", Records: []Record{{Name: "p", Fingerprint: "f", Reps: 1}}}); err != nil {
		t.Fatal(err)
	}
	f, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.SchemaVersion != SchemaVersion || f.Group != "quick" || len(f.Records) != 1 {
		t.Fatalf("file = %+v", f)
	}
}

// Figures 11 and 12 share point names, so one result file holds the same
// name under two groups; only a repeat within a group is corrupt.
func TestValidateAllowsSameNameAcrossGroups(t *testing.T) {
	recs := []Record{
		{Group: "fig11", Name: "hash/skipit", Fingerprint: "f11", Cycles: 1, Reps: 1},
		{Group: "fig12", Name: "hash/skipit", Fingerprint: "f12", Cycles: 2, Reps: 1},
	}
	path := filepath.Join(t.TempDir(), FileName("quick"))
	if err := WriteFile(path, File{Group: "quick", Records: recs}); err != nil {
		t.Fatal(err)
	}
	f, err := LoadFile(path)
	if err != nil {
		t.Fatalf("same name in two groups rejected: %v", err)
	}
	if len(f.Records) != 2 {
		t.Fatalf("records = %+v", f.Records)
	}
}

// A write that cannot land reports the path it was writing and leaves
// nothing behind.
func TestWriteFileReportsUnwritableDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "absent")
	path := filepath.Join(dir, FileName("quick"))
	err := WriteFile(path, File{Group: "quick", Records: []Record{{Name: "p", Fingerprint: "f", Cycles: 1, Reps: 1}}})
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("WriteFile into a missing directory = %v, want an error naming %s", err, path)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("failed write created %s: %v", dir, err)
	}
}
