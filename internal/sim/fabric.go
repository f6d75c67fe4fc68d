package sim

import (
	"fmt"
	"runtime/debug"

	"skipit/internal/l2"
	"skipit/internal/mem"
	"skipit/internal/metrics"
	"skipit/internal/tilelink"
)

// FabricClient is a protocol-level TileLink master driven by a Fabric: it
// owns the client side of one ClientPort and is ticked once per cycle after
// the L2. The tlctest agents implement it. NextEvent follows the same
// conservative fast-forward contract as every other component (see
// fastforward.go); Done reports that the client has no further stimulus of
// its own — it may still answer probes.
type FabricClient interface {
	Tick(now int64)
	NextEvent(now int64) int64
	Done() bool
}

// FabricConfig assembles a core-less memory system: TileLink client ports
// wired straight into the L2, which fronts main memory. It is the harness
// top for protocol-level agent testing — no boom cores, no L1s.
type FabricConfig struct {
	NumClients  int
	BeatBytes   uint64 // system-bus beat width; 0 means 16 (§3.3)
	LinkLatency int    // wire cycles per channel
	L2          l2.Config
	Mem         mem.Config
	// Metrics is shared by the L2, the controller and the harness. Nil gets
	// a private registry.
	Metrics *metrics.Registry
}

// DefaultFabricConfig returns a deliberately tiny memory system for agent
// testing: a 4-set, 2-way L2 so that a handful of addresses forces
// evictions, probes and way-arbitration races that a full-size cache would
// spread over thousands of sets.
func DefaultFabricConfig(numClients int) FabricConfig {
	return FabricConfig{
		NumClients:  numClients,
		BeatBytes:   16,
		LinkLatency: 1,
		L2: l2.Config{
			Sets:            4,
			Ways:            2,
			LineBytes:       64,
			NumClients:      numClients,
			NumMSHRs:        4,
			ListBufferDepth: 8,
			TagLatency:      8,
		},
		Mem: mem.DefaultConfig(),
	}
}

// Fabric is the assembled core-less system: ports, L2, memory and the
// attached clients, advanced in lockstep by Step. It mirrors System's tick
// order (memory, then L2, then the requesters) and carries the same
// forward-progress watchdog and next-event fast-forward clock, so chaos
// schedules and hang reports behave identically under both harnesses.
type Fabric struct {
	Ports []*tilelink.ClientPort
	L2    *l2.Cache
	Mem   *mem.Memory

	clients []FabricClient
	reg     *metrics.Registry
	now     int64

	fastForward bool

	wdLimit      int64
	wdLastSig    uint64
	wdLastChange int64

	ctrWatchdogTrips *metrics.Counter
	ctrSkipped       *metrics.Counter
}

// NewFabric builds the port/L2/memory stack. Clients are attached afterwards
// with Attach, since they need the constructed ports.
func NewFabric(cfg FabricConfig) *Fabric {
	if cfg.NumClients < 1 {
		panic("sim: fabric needs at least one client")
	}
	if cfg.BeatBytes == 0 {
		cfg.BeatBytes = 16
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	cfg.L2.Metrics = reg
	cfg.Mem.Metrics = reg
	cfg.L2.NumClients = cfg.NumClients
	f := &Fabric{
		reg:         reg,
		fastForward: true,
		// Fabric and System are alternative harnesses over disjoint
		// registries; they share these keys so sweep/report tooling stays
		// uniform. metricname reports the duplicate at the System-side
		// registration (sim.go), which carries the waiver.
		ctrWatchdogTrips: reg.Counter("sim", "watchdog_trips"),
		ctrSkipped:       reg.Counter("sim", "skipped_cycles"),
	}
	for i := 0; i < cfg.NumClients; i++ {
		f.Ports = append(f.Ports, tilelink.NewClientPort(
			fmt.Sprintf("tlc%d", i), cfg.BeatBytes, cfg.L2.LineBytes, cfg.LinkLatency))
	}
	f.Mem = mem.New(cfg.Mem)
	f.L2 = l2.New(cfg.L2, f.Ports, f.Mem)
	return f
}

// Attach registers the clients; clients[i] must drive Ports[i].
func (f *Fabric) Attach(clients ...FabricClient) {
	if len(clients) != len(f.Ports) {
		panic(fmt.Sprintf("sim: %d fabric clients for %d ports", len(clients), len(f.Ports)))
	}
	f.clients = clients
}

// Now returns the current cycle.
func (f *Fabric) Now() int64 { return f.now }

// Metrics returns the shared registry.
func (f *Fabric) Metrics() *metrics.Registry { return f.reg }

// SetFastForward toggles the next-event clock (on by default).
func (f *Fabric) SetFastForward(on bool) { f.fastForward = on }

// Step advances one cycle: memory first, then the L2, then every client, so
// a message sent at cycle t is visible to its consumer no earlier than t+1,
// exactly as in System.Step.
func (f *Fabric) Step() {
	f.Mem.Tick(f.now)
	f.L2.Tick(f.now)
	for _, c := range f.clients {
		c.Tick(f.now)
	}
	f.now++
}

// Quiescent reports whether the memory system has fully drained: no
// outstanding DRAM requests, no active L2 transaction, nothing in flight on
// any channel.
func (f *Fabric) Quiescent() bool {
	if f.Mem.Outstanding() > 0 || f.L2.Busy() {
		return false
	}
	for _, p := range f.Ports {
		if p.Pending() > 0 {
			return false
		}
	}
	return true
}

// ArmWatchdog enables the forward-progress watchdog, as System.ArmWatchdog:
// if no TileLink message moves for limit cycles, StepGuarded returns a
// *HangError. Zero disables. Clients have no commit counters; link activity
// is the progress signal, which suffices because every client action either
// sends a message or is a bounded internal delay far below any sane limit.
func (f *Fabric) ArmWatchdog(limit int64) {
	f.wdLimit = limit
	f.wdLastSig = f.progressSignature()
	f.wdLastChange = f.now
}

func (f *Fabric) progressSignature() uint64 {
	var sig uint64
	for _, p := range f.Ports {
		sig += p.Events()
	}
	return sig
}

// buildHangReport snapshots the fabric. Core and L1 sections stay empty —
// there are none — so the report shape matches System's and downstream
// tooling (artifact writers, classify) needs no second code path.
func (f *Fabric) buildHangReport(reason string) *HangReport {
	r := &HangReport{
		Cycle:          f.now,
		Reason:         reason,
		L2:             f.L2.Debug(),
		MemOutstanding: f.Mem.Outstanding(),
	}
	for _, p := range f.Ports {
		r.Links = append(r.Links, p.Debug())
	}
	return r
}

// StepGuarded advances one cycle under the watchdog and panic guard,
// mirroring System.StepGuarded.
func (f *Fabric) StepGuarded() (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			rep := f.buildHangReport("panic")
			rep.Panic = fmt.Sprint(rec)
			rep.Stack = string(debug.Stack())
			err = &HangError{Report: rep}
		}
	}()
	f.Step()
	if f.wdLimit <= 0 {
		return nil
	}
	if sig := f.progressSignature(); sig != f.wdLastSig {
		f.wdLastSig = sig
		f.wdLastChange = f.now
		return nil
	}
	if f.now-f.wdLastChange < f.wdLimit {
		return nil
	}
	f.ctrWatchdogTrips.Inc()
	rep := f.buildHangReport("no-progress")
	rep.Window = f.now - f.wdLastChange
	return &HangError{Report: rep}
}

// nextEventCycle folds every fabric component's NextEvent through the shared
// fold helpers (fold.go), bailing at the floor exactly as System's fold does.
//
//skipit:hotpath
func (f *Fabric) nextEventCycle(last int64) int64 {
	next := foldNextAll(last, tilelink.NoEvent, f.clients)
	next = foldNext(last, next, f.L2)
	next = foldNextAll(last, next, f.Ports)
	next = foldNext(last, next, f.Mem)
	return next
}

// FastForward advances the clock over a provably idle window, clamped to the
// watchdog trip cycle and any caller limits — the same contract as
// System.FastForward, so episode verdicts are byte-identical with the clock
// on or off.
//
//skipit:hotpath
func (f *Fabric) FastForward(limits ...int64) int64 {
	if !f.fastForward {
		return 0
	}
	next := f.nextEventCycle(f.now - 1)
	if next <= f.now {
		return 0
	}
	if f.wdLimit > 0 {
		if d := f.wdLastChange + f.wdLimit - 1; d < next {
			next = d
		}
	}
	for _, l := range limits {
		if l < next {
			next = l
		}
	}
	if next >= tilelink.NoEvent || next <= f.now {
		return 0
	}
	skipped := next - f.now
	f.now = next
	f.ctrSkipped.Add(uint64(skipped))
	return skipped
}
