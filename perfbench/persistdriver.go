package main

import (
	"fmt"
	"math/rand"

	"skipit/internal/bench"
	"skipit/internal/ds"
	"skipit/internal/memsim"
	"skipit/internal/persist"
	"skipit/internal/stats"
)

// persistConfig is one §7.4 point, as bench.RunPersistConfig takes it.
type persistConfig struct {
	structure string
	mode      persist.Mode
	kind      bench.PolicyKind
	updatePct int
	flitTable uint64
}

func (c persistConfig) String() string {
	return fmt.Sprintf("%s/%s/%s/upd%d/table%d", c.structure, c.mode, c.kind, c.updatePct, c.flitTable)
}

// persistProbeConfigs is the persist loop driver's input: a fixed slice of
// the figs_persist grid covering every structure, persistence algorithm and
// elision scheme, update rates from 0 to 50%, and both a small and the
// default FliT table.
var persistProbeConfigs = []persistConfig{
	{ds.NameList, persist.Automatic, bench.PolicyPlain, 5, bench.FliTDefaultTable},
	{ds.NameList, persist.Manual, bench.PolicySkipIt, 20, bench.FliTDefaultTable},
	{ds.NameList, persist.NVTraverse, bench.PolicyLinkAndPersist, 5, bench.FliTDefaultTable},
	{ds.NameHash, persist.Automatic, bench.PolicyFliTAdjacent, 50, bench.FliTDefaultTable},
	{ds.NameHash, persist.NVTraverse, bench.PolicySkipIt, 5, bench.FliTDefaultTable},
	{ds.NameHash, persist.Manual, bench.PolicyNone, 5, bench.FliTDefaultTable},
	{ds.NameBST, persist.Automatic, bench.PolicyFliTHash, 5, 1 << 12},
	{ds.NameBST, persist.Manual, bench.PolicyPlain, 0, bench.FliTDefaultTable},
	{ds.NameBST, persist.NVTraverse, bench.PolicyFliTAdjacent, 20, bench.FliTDefaultTable},
	{ds.NameSkiplist, persist.Automatic, bench.PolicyLinkAndPersist, 50, bench.FliTDefaultTable},
	{ds.NameSkiplist, persist.Automatic, bench.PolicySkipIt, 0, bench.FliTDefaultTable},
	{ds.NameSkiplist, persist.Manual, bench.PolicyFliTHash, 5, bench.FliTDefaultTable},
}

// The Policy calls the wrapper counts.
const (
	polLoad = iota
	polStore
	polFlush
	polFence
	numPolCalls
)

var polNames = [numPolCalls]string{"persist.load", "persist.store", "persist.flush", "persist.fence"}

// timedPolicy wraps a persist.Policy, counting every call and, while an
// operation is instrumented, timing each one. It is otherwise transparent.
type timedPolicy struct {
	inner persist.Policy
	d     *persistDriver
}

func (p *timedPolicy) Name() string    { return p.inner.Name() }
func (p *timedPolicy) NodePad() uint64 { return p.inner.NodePad() }

func (p *timedPolicy) Load(tid int, addr uint64) {
	t := p.d.begin()
	p.inner.Load(tid, addr)
	p.d.end(polLoad, t)
}

func (p *timedPolicy) Store(tid int, addr uint64) {
	t := p.d.begin()
	p.inner.Store(tid, addr)
	p.d.end(polStore, t)
}

func (p *timedPolicy) Flush(tid int, addr uint64) {
	t := p.d.begin()
	if !p.d.counting || p.d.calls[polFlush] != p.d.dropFlush {
		p.inner.Flush(tid, addr)
	}
	p.d.end(polFlush, t)
}

func (p *timedPolicy) Fence(tid int) {
	t := p.d.begin()
	p.inner.Fence(tid)
	p.d.end(polFence, t)
}

// instrumentEvery instruments one measured operation in this many: its
// Policy calls are timed and it becomes a span with child spans. The other
// operations are timed whole, with no timer inside, for the latency
// percentiles.
const instrumentEvery = 16

// persistDriver runs §7.4 points the way bench.RunPersistConfig does, from
// the public constructors, with a timedPolicy between the data structure and
// the elision scheme.
type persistDriver struct {
	rec *spanRecorder

	counting     bool // in the measured phase: count Policy calls
	instrumented bool // the current operation times its Policy calls
	calls        [numPolCalls]int64
	timedCalls   [numPolCalls]int64
	callNS       [numPolCalls]int64
	children     []interval

	ops        int64
	opNS       map[string][]float64 // per op kind, uninstrumented ops only
	selfNS     int64                // instrumented ops: time outside Policy calls
	spanNS     int64                // instrumented ops: whole time
	prefillNS  int64
	measuredNS int64
	mem        memsim.Stats

	// dropFlush, when not negative, drops that Flush call (counted from the
	// start of the measured phases): a planted divergence the identity guard
	// must catch.
	dropFlush int64
}

func newPersistDriver(rec *spanRecorder) *persistDriver {
	return &persistDriver{rec: rec, opNS: map[string][]float64{}, dropFlush: -1}
}

func (d *persistDriver) begin() int64 {
	if !d.instrumented {
		return 0
	}
	return now()
}

func (d *persistDriver) end(call int, t int64) {
	if d.counting {
		d.calls[call]++
	}
	if !d.instrumented {
		return
	}
	e := now()
	d.timedCalls[call]++
	d.callNS[call] += e - t
	d.children = append(d.children, interval{t, e})
	d.rec.add(polNames[call], "layer", lanePersist, t, e)
}

// persistRow is what the identity guard compares with bench.PersistRow.
type persistRow struct {
	cycles          float64
	flushes, elided uint64
}

// run measures one point; it mirrors bench.runConfig step for step.
func (d *persistDriver) run(c persistConfig) persistRow {
	h := memsim.New(memsim.DefaultConfig(bench.PersistThreads))
	alloc := memsim.NewAllocator(1 << 20)
	var inner persist.Policy
	switch c.kind {
	case bench.PolicyPlain, bench.PolicyNone:
		inner = persist.NewPlain(h, false)
	case bench.PolicySkipIt:
		inner = persist.NewSkipIt(h, false)
	case bench.PolicyFliTAdjacent:
		inner = persist.NewFliT(h, true, 0, 0, false)
	case bench.PolicyFliTHash:
		base := alloc.Alloc(c.flitTable * 8)
		inner = persist.NewFliT(h, false, c.flitTable, base, false)
	case bench.PolicyLinkAndPersist:
		inner = persist.NewLinkAndPersist(h, false)
	}
	env := &persist.Env{Pol: &timedPolicy{inner: inner, d: d}, Mode: c.mode, NonPersistent: c.kind == bench.PolicyNone}
	var set ds.Set
	var keyRange uint64
	switch c.structure {
	case ds.NameList:
		set, keyRange = ds.NewLinkedList(env, alloc), 2*bench.ListKeys
	case ds.NameHash:
		set, keyRange = ds.NewHashTable(env, alloc, bench.HashBuckets), 2*bench.HashKeys
	case ds.NameBST:
		set, keyRange = ds.NewBST(env, alloc), 2*bench.TreeKeys
	case ds.NameSkiplist:
		set, keyRange = ds.NewSkiplist(env, alloc), 2*bench.TreeKeys
	}

	t0 := now()
	rng := rand.New(rand.NewSource(1))
	for n, target := 0, int(keyRange/2); n < target; {
		if set.Insert(0, uint64(rng.Int63n(int64(keyRange)))+1) {
			n++
		}
	}
	h.ResetClocks()
	t1 := now()
	d.prefillNS += t1 - t0

	d.counting = true
	rngs := make([]*rand.Rand, bench.PersistThreads)
	for tid := range rngs {
		rngs[tid] = rand.New(rand.NewSource(int64(tid)*7919 + 13))
	}
	for i := 0; i < bench.PersistOpsPerThr; i++ {
		for tid := 0; tid < bench.PersistThreads; tid++ {
			r := rngs[tid]
			key := uint64(r.Int63n(int64(keyRange))) + 1
			roll := r.Intn(200)
			d.instrumented = d.ops%instrumentEvery == instrumentEvery-1
			d.children = d.children[:0]
			s := now()
			var kind string
			switch {
			case roll < c.updatePct:
				kind = "insert"
				set.Insert(tid, key)
			case roll < 2*c.updatePct:
				kind = "delete"
				set.Delete(tid, key)
			default:
				kind = "contains"
				set.Contains(tid, key)
			}
			e := now()
			d.ops++
			if d.instrumented {
				d.spanNS += e - s
				d.selfNS += selfTime(interval{s, e}, d.children)
				d.rec.add("ds."+kind, "op", lanePersist, s, e)
			} else {
				d.opNS[kind] = append(d.opNS[kind], float64(e-s))
			}
		}
	}
	d.instrumented, d.counting = false, false
	d.measuredNS += now() - t1

	secs := h.MaxSeconds()
	st := h.Stats()
	d.mem.Accesses += st.Accesses
	d.mem.L1Hits += st.L1Hits
	d.mem.CoherenceMisses += st.CoherenceMisses
	d.mem.Flushes += st.Flushes
	d.mem.FlushDropsL1 += st.FlushDropsL1
	d.mem.FlushWrites += st.FlushWrites
	return persistRow{cycles: secs * h.Config().ClockMHz * 1e6, flushes: st.Flushes, elided: st.FlushDropsL1}
}

// runPersistProbe runs every probe point through the driver, each followed
// by the identity guard: the same point through bench.RunPersistConfig must
// give exactly the same cycles, flushes and elided flushes.
func runPersistProbe(configs []persistConfig, rec *spanRecorder) (*persistDriver, error) {
	bench.SetQuick()
	rec.nameLane(lanePersist, "persist loop driver")
	d := newPersistDriver(rec)
	for _, c := range configs {
		t0 := now()
		got := d.run(c)
		rec.add(c.String(), "unit", laneMain, t0, now())
		if err := guardPersist(c, got); err != nil {
			return nil, err
		}
	}
	return d, nil
}

func guardPersist(c persistConfig, got persistRow) error {
	want := bench.RunPersistConfig(c.structure, c.mode, c.kind, c.updatePct, c.flitTable)
	if got.cycles != want.Cycles || got.flushes != want.Flushes || got.elided != want.Elided {
		return fmt.Errorf("identity guard: persist driver on %s gives cycles=%v flushes=%d elided=%d, RunPersistConfig cycles=%v flushes=%d elided=%d",
			c, got.cycles, got.flushes, got.elided, want.Cycles, want.Flushes, want.Elided)
	}
	return nil
}

// metrics are the ds, persist and memsim per-layer metrics.
func (d *persistDriver) metrics() []metricValue {
	var out []metricValue
	for _, kind := range []string{"contains", "insert", "delete"} {
		ns := d.opNS[kind]
		v := 0.0
		if len(ns) > 0 {
			v = stats.Median(ns)
		}
		out = append(out, metricValue{"ds." + kind + "_ns_p50", v, "ns", fmt.Sprintf("(%d ops)", len(ns))})
	}
	out = append(out, metricValue{"ds.self_share", ratio(float64(d.selfNS), float64(d.spanNS)), "ratio",
		fmt.Sprintf("(of %.1f ms in %d instrumented ops)", float64(d.spanNS)/1e6, d.ops/instrumentEvery)})
	names := []string{"load", "store", "flush", "fence"}
	for call, n := range names {
		out = append(out, metricValue{"persist." + n + "_calls_per_op", ratio(float64(d.calls[call]), float64(d.ops)), "calls/op",
			fmt.Sprintf("(%d calls over %d ops)", d.calls[call], d.ops)})
	}
	for _, call := range []int{polLoad, polFlush} {
		out = append(out, metricValue{polNames[call] + "_ns", ratio(float64(d.callNS[call]), float64(d.timedCalls[call])), "ns",
			fmt.Sprintf("(%d timed calls)", d.timedCalls[call])})
	}
	out = append(out, metricValue{"persist.prefill_share", ratio(float64(d.prefillNS), float64(d.prefillNS+d.measuredNS)), "ratio",
		"(of prefill plus measured time)"})
	mem := d.mem
	out = append(out,
		metricValue{"memsim.accesses", float64(mem.Accesses), "count", ""},
		metricValue{"memsim.l1_hit_rate", ratio(float64(mem.L1Hits), float64(mem.Accesses)), "ratio", fmt.Sprintf("(of %d accesses)", mem.Accesses)},
		metricValue{"memsim.coherence_misses", float64(mem.CoherenceMisses), "count", ""},
		metricValue{"memsim.flush_drop_rate", ratio(float64(mem.FlushDropsL1), float64(mem.Flushes)), "ratio", fmt.Sprintf("(of %d flushes)", mem.Flushes)},
		metricValue{"memsim.flush_writes", float64(mem.FlushWrites), "count", ""},
	)
	return out
}
