package metrics

import (
	"encoding/json"
	"fmt"
	"runtime"
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

// registerSoC registers instruments the way sim.New does, for cores in the
// given order: per core a run of counters, the shared "chaos" counters, a
// gauge named like one of the counters, and a histogram under a second
// component. It returns every instrument by kind and key.
func registerSoC(r *Registry, cores []int) map[string]any {
	got := map[string]any{}
	for _, i := range cores {
		l1, flush := fmt.Sprintf("l1[%d]", i), fmt.Sprintf("flush[%d]", i)
		for _, c := range []struct {
			comp, name string
			c          *Counter
		}{
			{l1, "loads", r.Counter(l1, "loads")},
			{l1, "stores", r.Counter(l1, "stores")},
			{l1, "load_hits", r.Counter(l1, "load_hits")},
			{l1, "store_hits", r.Counter(l1, "store_hits")},
			{l1, "nacks", r.Counter(l1, "nacks")},
			{l1, "writebacks", r.Counter(l1, "writebacks")},
			{"chaos", "ecc_flips", r.Counter("chaos", "ecc_flips")},
			{"chaos", "refetch_recoveries", r.Counter("chaos", "refetch_recoveries")},
			{flush, "offered", r.Counter(flush, "offered")},
			{flush, "enqueued", r.Counter(flush, "enqueued")},
			{flush, "skip_dropped", r.Counter(flush, "skip_dropped")},
		} {
			got["counter "+Key(c.comp, c.name)] = c.c
		}
		got["gauge "+Key(l1, "loads")] = r.Gauge(l1, "loads")
		got["gauge "+Key(flush, "queue_depth")] = r.Gauge(flush, "queue_depth")
		got["histogram "+Key(flush, "latency")] = r.Histogram(flush, "latency", nil)
	}
	return got
}

// TestGetOrCreateSharesEveryKey registers the instruments of eight cores
// (more counters than one block holds), then asks for every one again with
// the cores in reverse order: each call must return the first call's
// instrument, no two keys may share one, and the snapshot must list each
// key once with its own value.
func TestGetOrCreateSharesEveryKey(t *testing.T) {
	r := NewRegistry()
	first := registerSoC(r, []int{0, 1, 2, 3, 4, 5, 6, 7})
	again := registerSoC(r, []int{7, 6, 5, 4, 3, 2, 1, 0})
	seen := map[any]string{}
	for k, inst := range first {
		if again[k] != inst {
			t.Errorf("%s: a second caller got a different instrument", k)
		}
		if other, dup := seen[inst]; dup {
			t.Errorf("%s and %s share one instrument", k, other)
		}
		seen[inst] = k
	}
	n := uint64(0)
	counters := 0
	for k, inst := range first {
		if c, ok := inst.(*Counter); ok {
			n++
			c.Add(n)
			counters++
			if got := r.CounterValue(k[len("counter "):]); got != n {
				t.Errorf("CounterValue(%s) = %d, want %d", k, got, n)
			}
		}
	}
	snap := r.Snapshot(0)
	if len(snap.Counters) != counters || len(snap.Gauges) != 16 || len(snap.Histograms) != 8 {
		t.Fatalf("snapshot holds %d counters, %d gauges, %d histograms; want %d, 16, 8",
			len(snap.Counters), len(snap.Gauges), len(snap.Histograms), counters)
	}
	if keys := r.CounterKeys(); len(keys) != counters {
		t.Fatalf("CounterKeys lists %d keys, want %d", len(keys), counters)
	}
	for k, inst := range first {
		if c, ok := inst.(*Counter); ok && snap.Counters[k[len("counter "):]] != c.Value() {
			t.Errorf("snapshot %s = %d, want %d", k, snap.Counters[k[len("counter "):]], c.Value())
		}
	}
}

// TestRegisteringAllocatesNoObjectPerInstrument registers the instruments
// of eight cores in a fresh registry and checks that it costs a handful of
// block allocations, not several per instrument, and that looking them all
// up again allocates nothing.
func TestRegisteringAllocatesNoObjectPerInstrument(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cores := []int{0, 1, 2, 3, 4, 5, 6, 7}
	names := make([][2]string, len(cores)) // component names, made outside the count
	for i := range cores {
		names[i] = [2]string{fmt.Sprintf("l1[%d]", i), fmt.Sprintf("flush[%d]", i)}
	}
	register := func(r *Registry) {
		for _, n := range names {
			r.Counter(n[0], "loads")
			r.Counter(n[0], "stores")
			r.Counter(n[0], "nacks")
			r.Counter(n[0], "writebacks")
			r.Counter("chaos", "ecc_flips")
			r.Counter(n[1], "offered")
			r.Counter(n[1], "enqueued")
			r.Counter(n[1], "skip_dropped")
			r.Counter(n[1], "root_releases")
			r.Gauge(n[1], "queue_depth")
		}
	}
	r := NewRegistry()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	register(r)
	runtime.ReadMemStats(&after)
	// 73 counters and 8 gauges: two counter blocks, one gauge block, and
	// the doubling growth of the block and component tables.
	if n := after.Mallocs - before.Mallocs; n > 20 {
		t.Errorf("registering 81 instruments made %d allocations, want at most 20", n)
	}
	if n := testing.AllocsPerRun(5, func() { register(r) }); n != 0 {
		t.Errorf("looking up 81 registered instruments made %v allocations, want 0", n)
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
	// existing instrument must not re-validate.
	r := NewRegistry()
	c := r.Counter("l1[0]", "loads")
	if r.Counter("l1[0]", "loads") != c {
		t.Fatal("lookup created a new instrument")
	}
}
