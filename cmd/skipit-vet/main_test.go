package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// finding mirrors the five fields cmd/ghannotate decodes from -json output.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// TestFindingsExitOneAsJSON: the determinism fixture's violations exit 1,
// and -json prints them as an array ghannotate can read, field for field.
func TestFindingsExitOneAsJSON(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "analysis", "testdata", "src", "internal", "sim")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", dir}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	dec.DisallowUnknownFields()
	var got []finding
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("-json output is not a list of findings: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("exit 1 with no findings")
	}
	var wallClock bool
	for _, f := range got {
		if filepath.Base(f.File) != "determinism.go" || f.Line <= 0 || f.Col <= 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
		if f.Analyzer == "determinism" && strings.Contains(f.Message, "wall-clock read time.Now") {
			wallClock = true
		}
	}
	if !wallClock {
		t.Errorf("no determinism finding for the fixture's time.Now among %+v", got)
	}
}

// TestCleanPackageExitsZero: a package with nothing to report exits 0 and,
// with -json, prints an empty array rather than null.
func TestCleanPackageExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "../ghannotate"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Fatalf("stdout = %q, want []", got)
	}
}

// TestFailuresExitTwo: a package that cannot be loaded, and a flag the
// command does not define, are failures, not findings.
func TestFailuresExitTwo(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"load failure", []string{"./no-such-package"}, "skipit-vet: "},
		{"unknown flag", []string{"-V=full"}, "flag provided but not defined: -V"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit = %d, want 2\nstderr: %s", code, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout = %q, want nothing", stdout.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Errorf("stderr = %q, want it to contain %q", stderr.String(), tc.want)
			}
		})
	}
}
