// Package metrics is the simulator's unified telemetry layer, modeled on the
// RISC-V hardware performance monitor (HPM) counters the paper reads with
// RDCYCLE/RDINSTRET on its FPGA platforms (§7.1). Components register typed
// instruments — monotonic counters, gauges, and fixed-bucket cycle-latency
// histograms — under their instance name ("l1[0]", "flush[1]", "l2", "mem"),
// and harnesses read them back individually or as one JSON-serializable
// Snapshot.
//
// All instruments are safe for concurrent use: counters and gauges are single
// atomic words, histograms take a short mutex per observation. The cycle
// simulator itself is single-goroutine, and every harness reads a registry
// only after its run returns, on the run's own goroutine. Instruments stay
// atomic because a registry is meant to be shareable across goroutines, a
// contract TestConcurrentEmit pins under the race detector. Gauge.Set skips
// an unchanged level, so a component that sets its gauges every cycle pays a
// load, not a store, while the level holds.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Instrument keys are lower_snake components with an optional numeric
// instance index, and dot-separated lower_snake metric names. The index is
// what sim.Snapshot strips to sum a component's instances ("l1[0]" and
// "l1[1]" into "l1"), so it must be the only bracketed part of a key. These
// are the same rules the skipit-vet metricname analyzer enforces statically
// on call sites with literal arguments; the runtime check below catches
// computed names the analyzer cannot see.

// snakeByte reports whether b is in [a-z0-9_].
func snakeByte(b byte) bool {
	return 'a' <= b && b <= 'z' || '0' <= b && b <= '9' || b == '_'
}

// validComponent reports whether s matches ^[a-z0-9_]+(\[[0-9]+\])?$.
func validComponent(s string) bool {
	i := 0
	for i < len(s) && snakeByte(s[i]) {
		i++
	}
	if i == 0 {
		return false
	}
	if i == len(s) {
		return true
	}
	// The rest must be "[digits]".
	if s[i] != '[' || s[len(s)-1] != ']' || i+2 == len(s) {
		return false
	}
	for j := i + 1; j < len(s)-1; j++ {
		if s[j] < '0' || s[j] > '9' {
			return false
		}
	}
	return true
}

// validName reports whether s matches ^[a-z0-9_]+(\.[a-z0-9_]+)*$.
func validName(s string) bool {
	seg := 0 // bytes in the current dot-separated segment
	for i := 0; i < len(s); i++ {
		switch {
		case snakeByte(s[i]):
			seg++
		case s[i] == '.' && seg > 0:
			seg = 0
		default:
			return false
		}
	}
	return seg > 0
}

// validateKey panics on an instrument key outside the grammar above. It runs
// only on the create path of the get-or-create methods, so steady-state
// lookups never pay for it.
func validateKey(kind, component, name string) {
	if !validComponent(component) {
		panic(fmt.Sprintf("metrics: %s component %q invalid (want lower_snake with optional [index], e.g. \"l1[0]\")", kind, component))
	}
	if !validName(name) {
		panic(fmt.Sprintf("metrics: %s name %q invalid (want dot-separated lower_snake, e.g. \"writebacks\" or \"inflight.depth\")", kind, name))
	}
}

// Counter is a monotonically increasing event count (an HPM event counter).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous level — a queue depth, an occupancy — that moves
// both ways.
type Gauge struct {
	v atomic.Int64
}

// Set stores the current level. An unchanged level is not stored again.
func (g *Gauge) Set(v int64) {
	if g.v.Load() != v {
		g.v.Store(v)
	}
}

// Add moves the level by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket latency distribution. Bounds are inclusive
// upper bounds in ascending order; one implicit overflow bucket catches
// everything above the last bound. Observations are cycle counts.
type Histogram struct {
	mu     sync.Mutex
	bounds []uint64
	counts []uint64 // len(bounds)+1, last is overflow
	count  uint64
	sum    uint64
	min    uint64
	max    uint64
}

// DefaultCycleBounds is a power-of-two bucket layout spanning L1-hit to
// DRAM-roundtrip latencies, suitable for flush-latency histograms.
var DefaultCycleBounds = []uint64{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

func newHistogram(bounds []uint64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultCycleBounds
	}
	b := append([]uint64(nil), bounds...)
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.mu.Lock()
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v }) //skipit:ignore hotalloc sort.Search closure does not escape; the compiler keeps it on the stack
	h.counts[i]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the arithmetic mean of all observations (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper-bound estimate of the p-quantile (p in [0,1]):
// the smallest bucket bound b such that at least p of the observations are
// <= b. Observations in the overflow bucket report the observed maximum.
func (h *Histogram) Quantile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantileLocked(p)
}

func (h *Histogram) quantileLocked(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := p * float64(h.count)
	cum := uint64(0)
	for i, n := range h.counts {
		cum += n
		if float64(cum) >= rank {
			if i < len(h.bounds) {
				return float64(h.bounds[i])
			}
			return float64(h.max)
		}
	}
	return float64(h.max)
}

// HistogramSnapshot is the JSON view of one histogram.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	Mean    float64  `json:"mean"`
	P50     float64  `json:"p50"`
	P95     float64  `json:"p95"`
	P99     float64  `json:"p99"`
	Bounds  []uint64 `json:"bounds"`
	Buckets []uint64 `json:"buckets"` // len(bounds)+1; last is overflow
}

// Snapshot returns a consistent copy of the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{
		Count:   h.count,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
		P50:     h.quantileLocked(0.50),
		P95:     h.quantileLocked(0.95),
		P99:     h.quantileLocked(0.99),
		Bounds:  append([]uint64(nil), h.bounds...),
		Buckets: append([]uint64(nil), h.counts...),
	}
	if h.count > 0 {
		s.Mean = float64(h.sum) / float64(h.count)
	}
	return s
}

// Key joins a component instance name and a metric name into the registry key
// ("l1[0]" + "loads" -> "l1[0].loads").
func Key(component, name string) string { return component + "." + name }

// Registry holds every instrument of one simulated system, keyed by
// "component.metric". Instrument methods are get-or-create: the first caller
// allocates, later callers (and readers) share the same instrument.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter component.name, creating it on first use.
func (r *Registry) Counter(component, name string) *Counter {
	k := Key(component, name)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[k]
	if !ok {
		validateKey("counter", component, name)
		c = &Counter{}
		r.counters[k] = c
	}
	return c
}

// Gauge returns the gauge component.name, creating it on first use.
func (r *Registry) Gauge(component, name string) *Gauge {
	k := Key(component, name)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[k]
	if !ok {
		validateKey("gauge", component, name)
		g = &Gauge{}
		r.gauges[k] = g
	}
	return g
}

// Histogram returns the histogram component.name, creating it with the given
// bucket bounds on first use (nil bounds select DefaultCycleBounds). Bounds
// passed by later callers are ignored; the first registration wins.
func (r *Registry) Histogram(component, name string, bounds []uint64) *Histogram {
	k := Key(component, name)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[k]
	if !ok {
		validateKey("histogram", component, name)
		h = newHistogram(bounds)
		r.hists[k] = h
	}
	return h
}

// CounterValue reads a counter by full key, returning 0 when absent.
func (r *Registry) CounterValue(key string) uint64 {
	r.mu.Lock()
	c := r.counters[key]
	r.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// CounterKeys returns every registered counter key, sorted.
func (r *Registry) CounterKeys() []string {
	r.mu.Lock()
	keys := make([]string, 0, len(r.counters))
	for k := range r.counters {
		keys = append(keys, k)
	}
	r.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Snapshot captures every instrument's current value at the given cycle.
// Derived and Series start empty; System-level code fills them in.
func (r *Registry) Snapshot(cycle int64) Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Cycle:      cycle,
		Counters:   make(map[string]uint64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
		Derived:    make(map[string]float64),
	}
	for k, c := range r.counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range r.gauges {
		s.Gauges[k] = g.Value()
	}
	for k, h := range r.hists {
		s.Histograms[k] = h.Snapshot()
	}
	return s
}

// Snapshot is the aggregated, JSON-serializable report of one system's
// telemetry: raw instrument values plus derived metrics and sampled time
// series.
type Snapshot struct {
	Cycle      int64                        `json:"cycle"`
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Derived    map[string]float64           `json:"derived,omitempty"`
	Series     []SeriesSnapshot             `json:"series,omitempty"`
}
