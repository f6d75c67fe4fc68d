package metrics

import (
	"errors"
	"strings"
	"testing"
)

func TestPromKey(t *testing.T) {
	cases := []struct {
		key, family, labels string
	}{
		{"l1[0].writebacks", "skipit_l1_writebacks", `{instance="0"}`},
		{"flush[12].skip_dropped", "skipit_flush_skip_dropped", `{instance="12"}`},
		{"mem.inflight.depth", "skipit_mem_inflight_depth", ""},
		{"sim.watchdog_trips", "skipit_sim_watchdog_trips", ""},
	}
	for _, c := range cases {
		t.Run(c.key, func(t *testing.T) {
			family, labels := promKey(c.key)
			if family != c.family || labels != c.labels {
				t.Fatalf("promKey(%q) = (%q, %q), want (%q, %q)", c.key, family, labels, c.family, c.labels)
			}
		})
	}
}

// promSnapshot covers every section WritePrometheus renders: per-instance
// counters that fold into one family, a plain gauge, a derived ratio, and an
// instanced histogram with samples in its overflow bucket.
func promSnapshot() Snapshot {
	return Snapshot{
		Cycle: 4200,
		Counters: map[string]uint64{
			"l1[1].writebacks": 3,
			"l1[0].writebacks": 5,
			"mem.writes":       8,
		},
		Gauges:  map[string]int64{"l2.mshr_occupancy": 2},
		Derived: map[string]float64{"skip_rate": 0.75},
		Histograms: map[string]HistogramSnapshot{
			"flush[0].latency": {Count: 4, Sum: 1234, Bounds: []uint64{10, 100}, Buckets: []uint64{1, 2, 1}},
		},
	}
}

// TestWritePrometheusExposition pins the whole rendering: cycle first, then
// counters, gauges (derived ratios included) and histograms, each family
// sorted, instance indices as labels, histogram buckets cumulative and
// closed by +Inf, _sum and _count.
func TestWritePrometheusExposition(t *testing.T) {
	var sb strings.Builder
	if err := promSnapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE skipit_cycle gauge
skipit_cycle 4200
# TYPE skipit_l1_writebacks counter
skipit_l1_writebacks{instance="0"} 5
skipit_l1_writebacks{instance="1"} 3
# TYPE skipit_mem_writes counter
skipit_mem_writes 8
# TYPE skipit_derived_skip_rate gauge
skipit_derived_skip_rate 0.75
# TYPE skipit_l2_mshr_occupancy gauge
skipit_l2_mshr_occupancy 2
# TYPE skipit_flush_latency histogram
skipit_flush_latency_bucket{instance="0",le="10"} 1
skipit_flush_latency_bucket{instance="0",le="100"} 3
skipit_flush_latency_bucket{instance="0",le="+Inf"} 4
skipit_flush_latency_sum{instance="0"} 1234
skipit_flush_latency_count{instance="0"} 4
`
	if got := sb.String(); got != want {
		t.Fatalf("exposition differs:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestWritePrometheusDeterministic: map iteration order must not leak into
// the output, so repeated renders are byte-identical.
func TestWritePrometheusDeterministic(t *testing.T) {
	var first strings.Builder
	if err := promSnapshot().WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var again strings.Builder
		if err := promSnapshot().WritePrometheus(&again); err != nil {
			t.Fatal(err)
		}
		if again.String() != first.String() {
			t.Fatalf("render %d differs from the first:\n%s\nvs\n%s", i, again.String(), first.String())
		}
	}
}

// failAfter accepts n writes, then fails every later one; calls counts
// every Write attempted.
type failAfter struct{ n, calls int }

var errSink = errors.New("sink closed")

func (w *failAfter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > w.n {
		return 0, errSink
	}
	return len(p), nil
}

// TestWritePrometheusReportsWriteErrors: whichever write fails, the render
// stops there and returns the writer's error instead of truncating the
// exposition silently.
func TestWritePrometheusReportsWriteErrors(t *testing.T) {
	ok := &failAfter{n: 1 << 30}
	if err := promSnapshot().WritePrometheus(ok); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < ok.calls; n++ {
		w := &failAfter{n: n}
		if err := promSnapshot().WritePrometheus(w); !errors.Is(err, errSink) {
			t.Fatalf("write %d of %d failing: err = %v, want the writer's error", n+1, ok.calls, err)
		}
		if w.calls != n+1 {
			t.Fatalf("write %d of %d failing: render went on for %d writes", n+1, ok.calls, w.calls)
		}
	}
}
