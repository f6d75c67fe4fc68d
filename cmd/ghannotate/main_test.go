package main

import (
	"strings"
	"testing"
)

func TestDedupIdenticalFindings(t *testing.T) {
	in := `[
		{"file": "/repo/internal/sim/sim.go", "line": 10, "col": 3, "analyzer": "hotalloc", "message": "allocation in hot path"},
		{"file": "/repo/internal/sim/sim.go", "line": 10, "col": 3, "analyzer": "hotalloc", "message": "allocation in hot path"},
		{"file": "/repo/internal/sim/sim.go", "line": 10, "col": 3, "analyzer": "detflow", "message": "allocation in hot path"},
		{"file": "/repo/internal/sim/sim.go", "line": 10, "col": 7, "analyzer": "hotalloc", "message": "allocation in hot path"}
	]`
	var out, errw strings.Builder
	if code := run(strings.NewReader(in), &out, &errw, "/repo"); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	lines := nonEmptyLines(out.String())
	if len(lines) != 3 {
		t.Fatalf("got %d annotations, want 3 (one duplicate dropped):\n%s", len(lines), out.String())
	}
	want := "::error file=internal/sim/sim.go,line=10,col=3,title=skipit-vet/hotalloc::allocation in hot path"
	if lines[0] != want {
		t.Errorf("first annotation:\n got %q\nwant %q", lines[0], want)
	}
	if !strings.Contains(errw.String(), "3 finding(s)") {
		t.Errorf("count on stderr reports raw total, want deduped: %q", errw.String())
	}
}

func TestDedupAcrossConcatenatedArrays(t *testing.T) {
	// Two skipit-vet invocations with overlapping patterns, outputs
	// concatenated; the overlap must annotate once. The second copy uses an
	// absolute path under the workspace while the first is already relative —
	// dedup happens after relativization, so they still collapse.
	in := `[
		{"file": "pkg/a.go", "line": 5, "col": 1, "analyzer": "poolown", "message": "pooled buffer leaks on a return path"}
	]
	[
		{"file": "/repo/pkg/a.go", "line": 5, "col": 1, "analyzer": "poolown", "message": "pooled buffer leaks on a return path"},
		{"file": "/repo/pkg/b.go", "line": 9, "col": 2, "analyzer": "hotalloc", "message": "allocation in a hot path"}
	]`
	var out, errw strings.Builder
	if code := run(strings.NewReader(in), &out, &errw, "/repo"); code != 1 {
		t.Fatalf("exit code = %d, want 1", code)
	}
	lines := nonEmptyLines(out.String())
	if len(lines) != 2 {
		t.Fatalf("got %d annotations, want 2:\n%s", len(lines), out.String())
	}
}

func TestCleanInputExitsZero(t *testing.T) {
	var out, errw strings.Builder
	if code := run(strings.NewReader("[]"), &out, &errw, "/repo"); code != 0 {
		t.Fatalf("exit code = %d, want 0", code)
	}
	if out.String() != "" {
		t.Errorf("unexpected output: %q", out.String())
	}
}

func TestMalformedInputExitsTwo(t *testing.T) {
	var out, errw strings.Builder
	if code := run(strings.NewReader("{not json"), &out, &errw, "/repo"); code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

func TestMessageEscaping(t *testing.T) {
	in := `[{"file": "a.go", "line": 1, "col": 1, "analyzer": "detflow", "message": "50% of\nruns"}]`
	var out, errw strings.Builder
	run(strings.NewReader(in), &out, &errw, "")
	if !strings.Contains(out.String(), "50%25 of%0Aruns") {
		t.Errorf("workflow-command characters not escaped: %q", out.String())
	}
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}
