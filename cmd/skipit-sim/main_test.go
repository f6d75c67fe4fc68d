package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"

	"skipit/internal/isa"
	"skipit/internal/metrics"
	"skipit/internal/sim"
	"skipit/internal/trace"
)

// flushPrograms gives each core a program that dirties size bytes of its own
// lines and then flushes them.
func flushPrograms(cores int, size uint64) []*isa.Program {
	progs := make([]*isa.Program, cores)
	for c := range progs {
		base := uint64(c) << 16
		b := isa.NewBuilder().StoreRegion(base, size, 64, 0xAB).Fence()
		for a := base; a < base+size; a += 64 {
			b.Cbo(a, false)
		}
		progs[c] = b.Fence().Build()
	}
	return progs
}

// runFlush runs flushPrograms on s and fails the test if the run does.
func runFlush(t *testing.T, s *sim.System, size uint64) {
	t.Helper()
	if _, err := s.Run(flushPrograms(len(s.Cores), size), 1_000_000); err != nil {
		t.Fatal(err)
	}
}

// chromeEvents decodes the Chrome trace document in raw, fails the test
// unless raw holds exactly that one document, and returns how many of its
// records are events rather than thread-name metadata.
func chromeEvents(t *testing.T, raw []byte) int {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	var doc struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		t.Fatalf("trace file holds more than one document (next: %v)", err)
	}
	events := 0
	for _, e := range doc.TraceEvents {
		if e.Phase != "M" {
			events++
		}
	}
	return events
}

// captureStdout runs f with os.Stdout sent to a file and returns what f
// printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = out
	defer func() { os.Stdout = stdout }()
	f()
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// firstEvent is a tracer that closes ch on the first event it sees.
type firstEvent struct {
	once sync.Once
	ch   chan struct{}
}

func (f *firstEvent) Emit(trace.Event) { f.once.Do(func() { close(f.ch) }) }

// TestFlushOnSignalDuringRun interrupts a run the way SIGINT does: the flush
// runs on the test goroutine while another goroutine steps the simulation.
// The flush starts only once the second run has traced its first event, and
// that run goes on tracing and recording for thousands of cycles, so under
// -race this covers the Chrome tracer's and the flight recorder's locks. The
// warm-up run has already traced events and filled the recorder, so what the
// test checks does not depend on where in the second run the flush lands.
func TestFlushOnSignalDuringRun(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(sim.DefaultConfig(2))
	s.EnableFlightRecorder(16)
	ct := trace.NewChromeTracer(f)
	s.SetTracer(ct)
	runFlush(t, s, 1<<10)

	// running goes ahead of ct, so the second run's first write to the
	// Chrome tracer comes after the gate opens.
	running := &firstEvent{ch: make(chan struct{})}
	s.SetTracer(trace.Multi{running, ct})
	done := make(chan error, 1)
	go func() {
		_, err := s.Run(flushPrograms(2, 16<<10), 10_000_000)
		done <- err
	}()
	select {
	case <-running.ch:
	case err := <-done:
		t.Fatalf("second run ended before tracing an event: %v", err)
	}
	var out strings.Builder
	flushOnSignal(&out, syscall.SIGINT, s, func() {
		if err := ct.Close(); err != nil {
			t.Error(err)
		}
	})
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if chromeEvents(t, raw) == 0 {
		t.Fatal("trace file holds no events")
	}

	banner, dump, ok := strings.Cut(out.String(), "flight recorder dump:\n")
	if !ok || !strings.HasPrefix(banner, "skipit-sim: interrupt: flushing") {
		t.Fatalf("signal output lacks its banner or the recorder dump:\n%s", out.String())
	}
	var rings []trace.RecDump
	if err := json.Unmarshal([]byte(dump), &rings); err != nil {
		t.Fatalf("recorder dump is not valid JSON: %v", err)
	}
	recorded := 0
	for _, r := range rings {
		recorded += len(r.Events)
	}
	if len(rings) == 0 || recorded == 0 {
		t.Fatalf("recorder dump holds %d rings and %d events, want both nonzero", len(rings), recorded)
	}
}

// TestFlushOnSignalWithoutRecorder: without -recorder the signal path still
// finishes the trace, once, and prints its banner but no dump.
func TestFlushOnSignalWithoutRecorder(t *testing.T) {
	s := sim.New(sim.DefaultConfig(1))
	finished := 0
	var out strings.Builder
	flushOnSignal(&out, syscall.SIGTERM, s, func() { finished++ })
	if finished != 1 {
		t.Fatalf("trace finished %d times, want 1", finished)
	}
	if got, want := out.String(), "skipit-sim: terminated: flushing trace and flight recorder\n"; got != want {
		t.Fatalf("signal output = %q, want %q", got, want)
	}
}

// TestSetupTracerDisabledWritesNothing: without -trace, -trace-out and
// -trace-format have no effect, so no trace file is created.
func TestSetupTracerDisabledWritesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	s := sim.New(sim.DefaultConfig(1))
	finish := setupTracer(s, false, "chrome", path)
	runFlush(t, s, 1<<10)
	finish()
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("untraced run left %s behind (stat: %v)", path, err)
	}
}

// TestSetupTracerChromeCleanupIsIdempotent: main defers the cleanup and the
// signal handler may call it too. The file holds exactly one document, with
// the run's events in it, however often the cleanup runs.
func TestSetupTracerChromeCleanupIsIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	s := sim.New(sim.DefaultConfig(1))
	finish := setupTracer(s, true, "chrome", path)
	runFlush(t, s, 1<<10)
	finish()
	finish()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if chromeEvents(t, raw) == 0 {
		t.Fatal("trace file holds no events")
	}
}

// TestSetupTracerTextStreamsEvents: the text format writes one line per
// event while the run goes, so the file is complete before any cleanup.
func TestSetupTracerTextStreamsEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.txt")
	s := sim.New(sim.DefaultConfig(1))
	setupTracer(s, true, "text", path)
	runFlush(t, s, 1<<10)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 16 {
		t.Fatalf("text trace holds %d lines, want one per event of a 16-line flush", len(lines))
	}
	for _, src := range []string{"l1[0]", "l2"} {
		if !strings.Contains(string(raw), " "+src+" ") {
			t.Errorf("text trace names no %s event", src)
		}
	}
}

// TestWriteMetricsMatchesSnapshot: the -metrics file decodes to the
// system's snapshot: the same cycle, instruments, derived rates and
// sampled series.
func TestWriteMetricsMatchesSnapshot(t *testing.T) {
	s := sim.New(sim.DefaultConfig(2))
	s.EnableSampling(100)
	runFlush(t, s, 1<<10)
	path := filepath.Join(t.TempDir(), "m.json")
	writeMetrics(s, path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got metrics.Snapshot
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("metrics file is not a snapshot: %v", err)
	}
	want := s.Snapshot()
	if len(want.Counters) == 0 || len(want.Series) == 0 {
		t.Fatalf("snapshot holds %d counters and %d series, want both nonzero", len(want.Counters), len(want.Series))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("metrics file differs from the system's snapshot:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestWriteMetricsDashWritesStdout: -metrics - prints the snapshot instead
// of writing a file.
func TestWriteMetricsDashWritesStdout(t *testing.T) {
	s := sim.New(sim.DefaultConfig(1))
	runFlush(t, s, 1<<10)
	out := captureStdout(t, func() { writeMetrics(s, "-") })
	var got metrics.Snapshot
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatalf("stdout is not a snapshot: %v\n%s", err, out)
	}
	if got.Cycle != s.Now() || got.Counters["l1.writebacks"] != s.Snapshot().Counters["l1.writebacks"] {
		t.Fatalf("stdout snapshot at cycle %d, want %d", got.Cycle, s.Now())
	}
}

// TestWriteMetricsIsDeterministic: two runs of one configuration write the
// same -metrics file, apart from the host's simulation speed.
func TestWriteMetricsIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	var docs [2]map[string]any
	for i := range docs {
		s := sim.New(sim.DefaultConfig(2))
		s.EnableSampling(50)
		runFlush(t, s, 2<<10)
		path := filepath.Join(dir, fmt.Sprintf("m%d.json", i))
		writeMetrics(s, path)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &docs[i]); err != nil {
			t.Fatal(err)
		}
		derived, ok := docs[i]["derived"].(map[string]any)
		if !ok {
			t.Fatalf("metrics file has no derived section: %s", raw)
		}
		if _, ok := derived["host_sim_cycles_per_sec"]; !ok {
			t.Fatal("metrics file has no host_sim_cycles_per_sec")
		}
		delete(derived, "host_sim_cycles_per_sec")
	}
	if !reflect.DeepEqual(docs[0], docs[1]) {
		t.Fatalf("two identical runs wrote different metrics:\n%v\n%v", docs[0], docs[1])
	}
}

// TestRunFilePrintsTimingsAndNVMM: assembly mode prints one timing row per
// instruction, the value each load returned, and the NVMM view of every
// touched line.
func TestRunFilePrintsTimingsAndNVMM(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prog.s")
	src := "sd 0x1000 42\ncbo.flush 0x1000 # persist it\nfence\nld 0x1000\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	s := sim.New(sim.DefaultConfig(1))
	out := captureStdout(t, func() { runFile(s, path) })

	table, nvmm, ok := strings.Cut(out, "\n\n")
	if !ok {
		t.Fatalf("output lacks the blank line between timings and NVMM:\n%s", out)
	}
	rows := strings.Split(table, "\n")
	if len(rows) != 5 || !strings.HasPrefix(rows[0], "idx") {
		t.Fatalf("timing table = %q, want a header and 4 rows", rows)
	}
	if !strings.HasSuffix(rows[4], "  = 42") {
		t.Errorf("load row %q does not show the loaded value 42", rows[4])
	}
	if want := "NVMM[0x1000] = 42\n"; nvmm != want {
		t.Errorf("NVMM view = %q, want %q", nvmm, want)
	}
}

// TestPrintHostStats: before any cycle runs the line carries no share (it
// would divide by zero); after a run it gives the share of cycles the
// next-event clock skipped.
func TestPrintHostStats(t *testing.T) {
	s := sim.New(sim.DefaultConfig(1))
	if got, want := captureStdout(t, func() { printHostStats(s) }), "host: 0 cycles simulated, 0 fast-forwarded\n"; got != want {
		t.Fatalf("idle system: %q, want %q", got, want)
	}
	runFlush(t, s, 1<<10)
	got := captureStdout(t, func() { printHostStats(s) })
	prefix := fmt.Sprintf("host: %d cycles simulated, %d fast-forwarded (", s.Now(), s.SkippedCycles())
	if s.Now() == 0 || !strings.HasPrefix(got, prefix) || !strings.HasSuffix(got, "%)\n") {
		t.Fatalf("after a run: %q, want %q…%%)", got, prefix)
	}
}
