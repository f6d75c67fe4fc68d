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
//
// Every system registers a few hundred instruments when it is built and is
// read back at most once, so registering is the cost that counts: it makes
// no key string, no map entry and no object per instrument. Instruments live
// in per-registry blocks, and a "component.metric" key is formed only when
// Snapshot, CounterValue or CounterKeys asks for it.
package metrics

import (
	"fmt"
	"slices"
	"sort"
	"strings"
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
	h := &Histogram{}
	h.init(bounds)
	return h
}

// init sets up an empty histogram over a sorted copy of bounds (nil selects
// DefaultCycleBounds). The bounds and the bucket counts share one array.
func (h *Histogram) init(bounds []uint64) {
	if len(bounds) == 0 {
		bounds = DefaultCycleBounds
	}
	n := len(bounds)
	buf := make([]uint64, 2*n+1)
	h.bounds, h.counts = buf[:n:n], buf[n:]
	copy(h.bounds, bounds)
	slices.Sort(h.bounds)
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

// Registry holds every instrument of one simulated system. An instrument is
// named by its component instance and metric name, and its key
// "component.metric" is formed only when Snapshot, CounterValue or
// CounterKeys asks for it. Instrument methods are get-or-create: the first
// caller registers, later callers (and readers) share the same instrument.
type Registry struct {
	mu       sync.Mutex
	counters family[Counter]
	gauges   family[Gauge]
	hists    family[Histogram]
	// keys holds CounterKeys' sorted answer until a counter is added: a
	// sampler over every counter asks at each sample.
	keys []string
}

// family holds one kind of instrument. Registering allocates nothing per
// instrument: each lives in a cell of the family's blocks, in registration
// order (cell i is blocks[i/blockLen][i%blockLen]), and a block never moves,
// so a handed-out instrument stays where it is. A cell also holds its metric
// name and the index of the cell its component registered before it, so a
// lookup walks one component's chain.
type family[T any] struct {
	blockLen int
	blocks   [][]cell[T]
	n        int
	// groups lists the components with an instrument here; last is the
	// index of the latest one looked up, tried first, as a component
	// registers its instruments one after another.
	groups []group
	last   int
}

// group is one component instance and the index of the last cell it
// registered.
type group struct {
	name string
	head int
}

// cell is one registered instrument with its metric name and the previous
// cell of its component (-1 at the component's first).
type cell[T any] struct {
	name string
	prev int
	inst T
}

// group returns the index in f.groups of component, or -1.
func (f *family[T]) group(component string) int {
	if f.last < len(f.groups) && f.groups[f.last].name == component {
		return f.last
	}
	for i := range f.groups {
		if f.groups[i].name == component {
			f.last = i
			return i
		}
	}
	return -1
}

func (f *family[T]) at(i int) *cell[T] { return &f.blocks[i/f.blockLen][i%f.blockLen] }

// find returns component.name, or nil, and the index in f.groups of
// component, or -1.
func (f *family[T]) find(component, name string) (*T, int) {
	g := f.group(component)
	if g < 0 {
		return nil, g
	}
	for i := f.groups[g].head; i >= 0; {
		c := f.at(i)
		if c.name == name {
			return &c.inst, g
		}
		i = c.prev
	}
	return nil, g
}

// get returns component.name, registering it (kind names it in a bad-key
// panic) when absent, and whether this call registered it.
func (f *family[T]) get(kind, component, name string) (*T, bool) {
	inst, g := f.find(component, name)
	if inst != nil {
		return inst, false
	}
	validateKey(kind, component, name)
	if g < 0 {
		f.groups = append(f.groups, group{name: component, head: -1})
		g = len(f.groups) - 1
		f.last = g
	}
	if f.n%f.blockLen == 0 {
		f.blocks = append(f.blocks, make([]cell[T], f.blockLen))
	}
	c := f.at(f.n)
	c.name, c.prev = name, f.groups[g].head
	f.groups[g].head = f.n
	f.n++
	return &c.inst, true
}

// each calls fn with the key and the instrument of every cell.
func (f *family[T]) each(fn func(key string, inst *T)) {
	for _, g := range f.groups {
		for i := g.head; i >= 0; {
			c := f.at(i)
			fn(Key(g.name, c.name), &c.inst)
			i = c.prev
		}
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: family[Counter]{blockLen: 64},
		gauges:   family[Gauge]{blockLen: 16},
		hists:    family[Histogram]{blockLen: 4},
	}
}

// Counter returns the counter component.name, creating it on first use.
func (r *Registry) Counter(component, name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, _ := r.counters.get("counter", component, name)
	return c
}

// Gauge returns the gauge component.name, creating it on first use.
func (r *Registry) Gauge(component, name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, _ := r.gauges.get("gauge", component, name)
	return g
}

// Histogram returns the histogram component.name, creating it with the given
// bucket bounds on first use (nil bounds select DefaultCycleBounds). Bounds
// passed by later callers are ignored; the first registration wins.
func (r *Registry) Histogram(component, name string, bounds []uint64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, created := r.hists.get("histogram", component, name)
	if created {
		h.init(bounds)
	}
	return h
}

// CounterValue reads a counter by full key, returning 0 when absent.
func (r *Registry) CounterValue(key string) uint64 {
	dot := strings.IndexByte(key, '.')
	if dot < 0 {
		return 0
	}
	r.mu.Lock()
	c, _ := r.counters.find(key[:dot], key[dot+1:])
	r.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// CounterKeys returns every registered counter key, sorted.
func (r *Registry) CounterKeys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.keys) != r.counters.n {
		r.keys = r.keys[:0]
		r.counters.each(func(key string, _ *Counter) { r.keys = append(r.keys, key) })
		sort.Strings(r.keys)
	}
	return slices.Clone(r.keys)
}

// Snapshot captures every instrument's current value at the given cycle.
// Derived and Series start empty; System-level code fills them in.
func (r *Registry) Snapshot(cycle int64) Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Cycle:      cycle,
		Counters:   make(map[string]uint64, r.counters.n),
		Gauges:     make(map[string]int64, r.gauges.n),
		Histograms: make(map[string]HistogramSnapshot, r.hists.n),
		Derived:    make(map[string]float64),
	}
	r.counters.each(func(key string, c *Counter) { s.Counters[key] = c.Value() })
	r.gauges.each(func(key string, g *Gauge) { s.Gauges[key] = g.Value() })
	r.hists.each(func(key string, h *Histogram) { s.Histograms[key] = h.Snapshot() })
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
