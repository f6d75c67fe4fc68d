package metrics

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("l1[0]", "loads")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Get-or-create returns the same instrument.
	if r.Counter("l1[0]", "loads") != c {
		t.Fatal("second Counter call returned a different instance")
	}
	if got := r.CounterValue("l1[0].loads"); got != 5 {
		t.Fatalf("CounterValue = %d, want 5", got)
	}
	if got := r.CounterValue("no.such"); got != 0 {
		t.Fatalf("absent CounterValue = %d, want 0", got)
	}

	g := r.Gauge("l2", "mshr_occupancy")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("flush[0]", "latency", []uint64{10, 100, 1000})
	for i := 0; i < 90; i++ {
		h.Observe(5) // bucket <=10
	}
	for i := 0; i < 9; i++ {
		h.Observe(50) // bucket <=100
	}
	h.Observe(5000) // overflow

	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	if got := h.Quantile(0.50); got != 10 {
		t.Fatalf("p50 = %v, want 10 (bucket bound)", got)
	}
	if got := h.Quantile(0.95); got != 100 {
		t.Fatalf("p95 = %v, want 100", got)
	}
	if got := h.Quantile(1.0); got != 5000 {
		t.Fatalf("p100 = %v, want observed max 5000", got)
	}
	s := h.Snapshot()
	if s.Min != 5 || s.Max != 5000 {
		t.Fatalf("min/max = %d/%d, want 5/5000", s.Min, s.Max)
	}
	if len(s.Buckets) != len(s.Bounds)+1 {
		t.Fatalf("buckets = %d for %d bounds", len(s.Buckets), len(s.Bounds))
	}
	if s.Buckets[0] != 90 || s.Buckets[1] != 9 || s.Buckets[3] != 1 {
		t.Fatalf("bucket counts = %v", s.Buckets)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := newHistogram(nil)
	if h.Quantile(0.99) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	s := h.Snapshot()
	if s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

// TestConcurrentEmit exercises the registry from many goroutines under the
// race detector: counters, gauges, histograms, and snapshot reads all racing.
func TestConcurrentEmit(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("l1[0]", "loads")
			g := r.Gauge("l2", "depth")
			h := r.Histogram("flush[0]", "latency", nil)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(uint64(i % 512))
				if i%100 == 0 {
					_ = r.Snapshot(int64(i))
					_ = r.CounterValue("l1[0].loads")
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.CounterValue("l1[0].loads"); got != workers*perWorker {
		t.Fatalf("loads = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("flush[0]", "latency", nil).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

func TestSamplerSeriesAndDeltas(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mem", "writes")
	s := NewSampler(r, 10, "mem.writes")
	for now := int64(0); now <= 30; now++ {
		if now > 0 && now <= 25 {
			c.Inc() // 1 write per cycle for cycles 1..25
		}
		s.Tick(now)
	}
	series := s.Series()
	if len(series) != 1 {
		t.Fatalf("series = %d, want 1", len(series))
	}
	sr := series[0]
	wantCycles := []int64{0, 10, 20, 30}
	wantValues := []uint64{0, 10, 20, 25}
	wantDeltas := []uint64{0, 10, 10, 5}
	if len(sr.Cycles) != len(wantCycles) {
		t.Fatalf("cycles = %v", sr.Cycles)
	}
	for i := range wantCycles {
		if sr.Cycles[i] != wantCycles[i] || sr.Values[i] != wantValues[i] {
			t.Fatalf("sample %d = (%d, %d), want (%d, %d)",
				i, sr.Cycles[i], sr.Values[i], wantCycles[i], wantValues[i])
		}
	}
	for i, d := range sr.Deltas() {
		if d != wantDeltas[i] {
			t.Fatalf("deltas = %v, want %v", sr.Deltas(), wantDeltas)
		}
	}
}

func TestSamplerTracksAllCountersWhenUnconfigured(t *testing.T) {
	r := NewRegistry()
	r.Counter("a", "x").Inc()
	s := NewSampler(r, 5)
	s.Tick(0)
	r.Counter("b", "y").Add(3) // registered after first sample
	s.Tick(5)
	s.Sample(5) // duplicate cycle must not double-record
	got := s.Snapshots()
	if len(got) != 2 {
		t.Fatalf("series count = %d, want 2", len(got))
	}
	for _, sr := range got {
		if sr.Key == "b.y" {
			if len(sr.Cycles) != 1 || sr.Values[0] != 3 {
				t.Fatalf("late counter series = %+v", sr)
			}
		}
		if sr.Key == "a.x" && len(sr.Cycles) != 2 {
			t.Fatalf("a.x sampled %d times, want 2", len(sr.Cycles))
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("l1[0]", "writebacks").Add(42)
	r.Gauge("l2", "listbuffer").Set(3)
	r.Histogram("flush[0]", "latency", nil).Observe(100)
	snap := r.Snapshot(1234)
	snap.Derived["skip_rate"] = 0.5

	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cycle != 1234 || back.Counters["l1[0].writebacks"] != 42 {
		t.Fatalf("round trip = %+v", back)
	}
	if back.Derived["skip_rate"] != 0.5 {
		t.Fatalf("derived lost: %+v", back.Derived)
	}
	if back.Histograms["flush[0].latency"].Count != 1 {
		t.Fatalf("histogram lost: %+v", back.Histograms)
	}
}

// TestKeyValidation pins the registration-time guard: any component or name
// outside the key grammar (the one the skipit-vet metricname analyzer checks,
// and whose instance index sim.Snapshot strips to aggregate) must panic at
// the instrument's creation site, not surface later as a mis-summed
// aggregate.
func TestKeyValidation(t *testing.T) {
	valid := [][2]string{
		{"l1[0]", "writebacks"},
		{"l2", "listbuffer.depth"},
		{"flush[12]", "latency"},
		{"mem", "read_hits"},
	}
	for _, kv := range valid {
		r := NewRegistry()
		r.Counter(kv[0], kv[1])             //skipit:ignore metricname validation test exercises the runtime guard with table-driven keys
		r.Gauge(kv[0], kv[1]+".g")          //skipit:ignore metricname validation test exercises the runtime guard with table-driven keys
		r.Histogram(kv[0], kv[1]+".h", nil) //skipit:ignore metricname validation test exercises the runtime guard with table-driven keys
	}

	invalid := [][2]string{
		{"L1", "writebacks"},     // uppercase component
		{"l1[x]", "writebacks"},  // non-numeric instance
		{"l1[0]x", "writebacks"}, // trailing junk after instance
		{"", "writebacks"},       // empty component
		{"l1[0]", "Writebacks"},  // uppercase name
		{"l1[0]", "foo-bar"},     // dash in name
		{"l1[0]", ".loads"},      // leading dot
		{"l1[0]", "loads."},      // trailing dot
		{"l1[0]", ""},            // empty name
	}
	mustPanic := func(component, name string, create func(*Registry)) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("component=%q name=%q: expected panic, got none", component, name)
			}
		}()
		create(NewRegistry())
	}
	for _, kv := range invalid {
		component, name := kv[0], kv[1]
		mustPanic(component, name, func(r *Registry) { r.Counter(component, name) })        //skipit:ignore metricname validation test feeds deliberately bad keys
		mustPanic(component, name, func(r *Registry) { r.Gauge(component, name) })          //skipit:ignore metricname validation test feeds deliberately bad keys
		mustPanic(component, name, func(r *Registry) { r.Histogram(component, name, nil) }) //skipit:ignore metricname validation test feeds deliberately bad keys
	}

	// The guard runs only on the create branch: a steady-state lookup of an
	// existing instrument must not re-validate (hot-path cost is a map hit).
	r := NewRegistry()
	c := r.Counter("l1[0]", "loads")
	if r.Counter("l1[0]", "loads") != c {
		t.Fatal("lookup created a new instrument")
	}
}
