package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
)

// File is the on-disk shape of a sweep's records: BENCH_quick.json or
// BENCH_full.json.
type File struct {
	SchemaVersion int      `json:"schema_version"`
	Group         string   `json:"group"`
	Records       []Record `json:"records"`
}

// FileName returns the result file name for a sweep mode: BENCH_quick.json.
func FileName(mode string) string { return "BENCH_" + mode + ".json" }

// CorruptError is the typed diagnosis for a malformed result file: it names
// the file and the first offending field, so a truncated or schema-drifted
// baseline fails the gate with an actionable message instead of a panic or a
// silent pass. Detect it with errors.As.
type CorruptError struct {
	Path   string // the offending BENCH_*.json
	Field  string // JSON path of the first bad field ("records[3].cycles")
	Reason string // what is wrong with it
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("sweep: corrupt result file %s: field %s: %s", e.Path, e.Field, e.Reason)
}

// LoadFile reads one result file. A file whose schema version differs from
// SchemaVersion is rejected: its records predate the current measurement
// semantics and must all be re-measured. Truncated JSON, wrong field types,
// and structurally invalid records return a *CorruptError naming the file
// and field.
func LoadFile(path string) (File, error) {
	var f File
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		field := "(document)"
		var typeErr *json.UnmarshalTypeError
		if errors.As(err, &typeErr) {
			field = typeErr.Field
			if field == "" {
				field = "(document)"
			}
		}
		return File{}, &CorruptError{Path: path, Field: field, Reason: err.Error()}
	}
	if f.SchemaVersion != SchemaVersion {
		return File{}, fmt.Errorf("sweep: %s has schema version %d, want %d (stale baseline)",
			path, f.SchemaVersion, SchemaVersion)
	}
	if err := f.Validate(path); err != nil {
		return File{}, err
	}
	return f, nil
}

// Validate checks the structural invariants every well-formed result file
// holds — non-empty record names and fingerprints, unique names, finite
// non-negative cycle counts and repetition counts — and returns a
// *CorruptError naming path and the first offending field. A drifted or
// hand-edited baseline fails here rather than poisoning Compare.
func (f *File) Validate(path string) error {
	bad := func(i int, field, reason string) error {
		return &CorruptError{Path: path, Field: fmt.Sprintf("records[%d].%s", i, field), Reason: reason}
	}
	seen := make(map[string]bool, len(f.Records))
	for i, r := range f.Records {
		if r.Name == "" {
			return bad(i, "name", "empty")
		}
		k := r.Group + "/" + r.Name
		if seen[k] {
			return bad(i, "name", fmt.Sprintf("duplicate record %q", k))
		}
		seen[k] = true
		if r.Fingerprint == "" {
			return bad(i, "fingerprint", "empty (the gate could not tell a changed configuration)")
		}
		if math.IsNaN(r.Cycles) || math.IsInf(r.Cycles, 0) || r.Cycles < 0 {
			return bad(i, "cycles", fmt.Sprintf("not a finite non-negative number: %v", r.Cycles))
		}
		if r.Reps < 0 {
			return bad(i, "reps", fmt.Sprintf("negative: %d", r.Reps))
		}
	}
	return nil
}

// WriteFile writes one result file crash-safely, stamped with SchemaVersion.
// Output is deterministic: records keep their order, and no timestamps or
// host metadata are recorded. The bytes land in a temp file in the same
// directory, are synced, and are renamed into place, so a process killed
// mid-write never leaves a torn BENCH_*.json: readers see either the old
// complete file or the new complete file, and a stray .tmp from a previous
// crash is overwritten on the next write of the same path.
func WriteFile(path string, f File) error {
	f.SchemaVersion = SchemaVersion
	b, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	tmp := path + ".tmp"
	t, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("sweep: writing %s: %w", path, err)
	}
	if _, err := t.Write(b); err != nil {
		t.Close()
		os.Remove(tmp)
		return fmt.Errorf("sweep: writing %s: %w", path, err)
	}
	if err := t.Sync(); err != nil {
		t.Close()
		os.Remove(tmp)
		return fmt.Errorf("sweep: syncing %s: %w", path, err)
	}
	if err := t.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("sweep: closing %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("sweep: committing %s: %w", path, err)
	}
	return nil
}
