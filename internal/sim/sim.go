// Package sim assembles and clocks the full simulated SoC: N BOOM-style
// cores with private L1 data caches (each embedding the paper's flush unit),
// a shared SiFive-style inclusive L2, and a DRAM controller whose backing
// store is the persistence domain. It corresponds to the paper's FireSim /
// Enzian FPGA platforms (§7.1), with a deterministic global cycle clock in
// place of RDCYCLE.
package sim

import (
	"errors"
	"fmt"
	"time"

	"skipit/internal/boom"
	"skipit/internal/isa"
	"skipit/internal/l1"
	"skipit/internal/l2"
	"skipit/internal/mem"
	"skipit/internal/metrics"
	"skipit/internal/tilelink"
	"skipit/internal/trace"
)

// Config describes the SoC. Zero values are filled from the defaults.
type Config struct {
	NumCores    int
	Core        boom.Config
	L1          l1.Config // template; Source is overridden per core
	L2          l2.Config
	Mem         mem.Config
	BeatBytes   uint64 // system bus width (§3.3: 16 B)
	LinkLatency int    // wire cycles per channel hop
}

// DefaultConfig mirrors the paper's platform: 32 KiB 8-way L1s, a shared
// 512 KiB 8-way inclusive L2, a 16-byte system bus, and the flush unit of
// §5 with Skip It enabled.
func DefaultConfig(numCores int) Config {
	return Config{
		NumCores:    numCores,
		Core:        boom.DefaultConfig(),
		L1:          l1.DefaultConfig(0),
		L2:          l2.DefaultConfig(numCores),
		Mem:         mem.DefaultConfig(),
		BeatBytes:   16,
		LinkLatency: 1,
	}
}

// Client is a protocol-level TileLink master that drives one of a bare
// system's client ports in place of an L1 (see NewBare and Attach); the
// tlctest agents implement it. Step ticks it after the cores, and NextEvent
// follows the same conservative fast-forward contract as every other
// component (see fastforward.go). Done reports that the client has no
// further stimulus of its own; it may still answer probes.
type Client interface {
	Tick(now int64)
	NextEvent(now int64) int64
	Done() bool
}

// System is one assembled SoC.
type System struct {
	cfg     Config
	Cores   []*boom.Core
	L1s     []*l1.DCache
	L2      *l2.Cache
	Mem     *mem.Memory
	ports   []*tilelink.ClientPort
	clients []Client

	// reg is the SoC-wide metrics registry every component registers its
	// counters with; sampler, when enabled, snapshots selected counters
	// into time series as the clock advances.
	reg     *metrics.Registry
	sampler *metrics.Sampler

	now int64

	// fastForward enables the next-event clock (see fastforward.go); on by
	// default, off only in the equivalence tests' single-stepping reference.
	fastForward bool
	ctrSkipped  *metrics.Counter

	// hostNanos accumulates wall-clock time spent inside Run and Drain, for
	// the host-throughput figures in Snapshot. Host time never enters the
	// sweep records — they would stop being host-independent.
	hostNanos int64

	// Forward-progress watchdog state (see ArmWatchdog / StepGuarded).
	wdLimit          int64
	wdLastSig        uint64
	wdLastChange     int64
	ctrWatchdogTrips *metrics.Counter

	// txns is the SoC-wide coherence-transaction id sequence shared by every
	// L1 and flush unit. Ids are assigned unconditionally (tracing on or
	// off), so a given workload produces identical ids regardless of
	// observers or fast-forwarding.
	txns *trace.TxnSeq

	// recorder, when armed via EnableFlightRecorder, holds the per-component
	// flight-recorder rings; its dump rides along in HangReports.
	recorder *trace.Recorder
}

// NewBare assembles the memory side of a system: one TileLink client port
// per core, the shared L2 behind them, DRAM, and the metrics registry every
// component shares. No port has a driver yet: New puts a core+L1 tile on
// each, and a protocol-level harness attaches its own Clients instead. Port
// i is named for the L1 that New puts on it.
func NewBare(cfg Config) *System {
	if cfg.NumCores <= 0 {
		panic("sim: need at least one core")
	}
	s := &System{cfg: cfg, reg: metrics.NewRegistry(), fastForward: true, txns: &trace.TxnSeq{}}
	memCfg := cfg.Mem
	memCfg.Metrics = s.reg
	s.Mem = mem.New(memCfg)
	s.ports = make([]*tilelink.ClientPort, cfg.NumCores)
	for i := range s.ports {
		s.ports[i] = tilelink.NewClientPort(
			fmt.Sprintf("l1[%d]<->l2", i), cfg.BeatBytes, cfg.L1.LineBytes, cfg.LinkLatency)
	}
	l2cfg := cfg.L2
	l2cfg.NumClients = cfg.NumCores
	l2cfg.Metrics = s.reg
	s.L2 = l2.New(l2cfg, s.ports, s.Mem)
	// Pre-register the chaos and watchdog instruments so they appear in
	// every Snapshot even when nothing is armed (get-or-create: the L1/L2
	// constructors share the same "chaos" counters).
	// The chaos injector re-registers faults_injected (get-or-create
	// sharing by design); metricname reports the duplicate at the
	// injector-side registration, which carries the waiver.
	s.reg.Counter("chaos", "faults_injected")
	s.reg.Counter("chaos", "ecc_flips")               //skipit:ignore metricname shared SoC-wide chaos counter, pre-registered here by design
	s.reg.Counter("chaos", "ecc_dirty_unrecoverable") //skipit:ignore metricname shared SoC-wide chaos counter, pre-registered here by design
	s.reg.Counter("chaos", "refetch_recoveries")      //skipit:ignore metricname shared SoC-wide chaos counter, pre-registered here by design
	s.ctrWatchdogTrips = s.reg.Counter("sim", "watchdog_trips")
	s.ctrSkipped = s.reg.Counter("sim", "skipped_cycles")
	return s
}

// New assembles a system: NewBare's memory side plus a core+L1 tile on every
// port. All components share one metrics registry (available via Metrics),
// with instruments named by instance: "core[i]", "l1[i]", "flush[i]", "l2",
// "mem".
func New(cfg Config) *System {
	s := NewBare(cfg)
	s.L1s = make([]*l1.DCache, cfg.NumCores)
	s.Cores = make([]*boom.Core, cfg.NumCores)
	for i, p := range s.ports {
		l1cfg := cfg.L1
		l1cfg.Source = i
		l1cfg.Metrics = s.reg
		l1cfg.Txns = s.txns
		s.L1s[i] = l1.New(l1cfg, p)
		coreCfg := cfg.Core
		coreCfg.Metrics = s.reg
		s.Cores[i] = boom.New(coreCfg, i, s.L1s[i])
	}
	return s
}

// Attach puts the clients on a bare system's ports; clients[i] must drive
// Ports()[i].
func (s *System) Attach(clients ...Client) {
	if len(s.L1s) > 0 {
		panic("sim: Attach on a system whose ports already carry L1s")
	}
	if len(clients) != len(s.ports) {
		panic(fmt.Sprintf("sim: %d clients for %d ports", len(clients), len(s.ports)))
	}
	s.clients = clients
}

// Ports returns the per-core TileLink bundles, for fault-injection wiring and
// diagnostics.
func (s *System) Ports() []*tilelink.ClientPort { return s.ports }

// Metrics returns the SoC-wide metrics registry.
func (s *System) Metrics() *metrics.Registry { return s.reg }

// EnableSampling snapshots the named counters (all counters when none are
// given) every interval cycles as the system steps; the resulting time
// series ride along in Snapshot().
func (s *System) EnableSampling(interval int64, keys ...string) {
	s.sampler = metrics.NewSampler(s.reg, interval, keys...)
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// SetTracer attaches an event tracer to every component (nil disables).
func (s *System) SetTracer(t trace.Tracer) {
	for _, d := range s.L1s {
		d.SetTracer(t)
	}
	s.L2.SetTracer(t)
}

// EnableFlightRecorder arms a per-component flight recorder holding the last
// depth structured events for each of "l1[i]", "flush[i]", "l2", and "mem".
// The rings are preallocated here; recording on the hot path is a plain
// struct store. The dump rides along in every HangReport (and in chaos
// artifacts built from them); skipit-sim's signal handler dumps it through
// FlightRecorder.
func (s *System) EnableFlightRecorder(depth int) {
	s.recorder = trace.NewRecorder(depth)
	for i, d := range s.L1s {
		d.SetRecorder(s.recorder.Component(fmt.Sprintf("l1[%d]", i)))
		d.FlushUnit().SetRecorder(s.recorder.Component(fmt.Sprintf("flush[%d]", i)))
	}
	s.L2.SetRecorder(s.recorder.Component("l2"))
	s.Mem.SetRecorder(s.recorder.Component("mem"))
}

// FlightRecorder returns the armed recorder, or nil.
func (s *System) FlightRecorder() *trace.Recorder { return s.recorder }

// Now returns the current cycle.
func (s *System) Now() int64 { return s.now }

// Step advances the whole SoC by one cycle, ticking DRAM, the L2, every L1,
// every core and then every attached client, so a message sent at cycle t
// is visible to its consumer no earlier than t+1.
//
//skipit:hotpath
func (s *System) Step() {
	s.Mem.Tick(s.now) //skipit:ignore hotalloc mem.Tick queue appends reuse steady-state capacity; the CI alloc gate enforces zero steady-state allocs
	s.L2.Tick(s.now)
	for _, d := range s.L1s {
		d.Tick(s.now)
	}
	for _, c := range s.Cores {
		c.Tick(s.now)
	}
	for _, c := range s.clients {
		c.Tick(s.now)
	}
	if s.sampler != nil {
		s.sampler.Tick(s.now) //skipit:ignore hotalloc Sample allocates only on first observation of a key; steady-state samples are allocation-free
	}
	s.now++
}

// ErrTimeout reports a run that exceeded its cycle limit.
var ErrTimeout = errors.New("sim: cycle limit exceeded")

// Run loads one program per core (nil entries idle the core) and steps until
// every program has committed and the memory system is quiescent. It returns
// the cycle at which the last core finished.
func (s *System) Run(progs []*isa.Program, limit int64) (int64, error) {
	if len(progs) != len(s.Cores) {
		return 0, fmt.Errorf("sim: %d programs for %d cores", len(progs), len(s.Cores))
	}
	for i, p := range progs {
		if p == nil {
			p = isa.NewBuilder().Build()
		}
		s.Cores[i].SetProgram(p)
	}
	t0 := time.Now()                                               //skipit:ignore determinism host-side throughput timer, never read by simulated state
	defer func() { s.hostNanos += time.Since(t0).Nanoseconds() }() //skipit:ignore determinism host-side throughput timer, never read by simulated state
	deadline := s.now + limit
	coresDone := int64(-1)
	for s.now < deadline {
		s.Step()
		if coresDone < 0 {
			if s.Done() {
				// Defer the quiescence check to the next iteration, as
				// the single-stepping loop always has, instead of
				// fast-forwarding past it (a fully idle SoC reports no
				// next event at all).
				coresDone = s.now
				continue
			}
		} else if s.Quiescent() {
			return coresDone, nil
		}
		s.FastForward(deadline)
	}
	return 0, fmt.Errorf("%w (limit %d): %s", ErrTimeout, limit, s.describeStall())
}

// Done reports whether every core has committed its program and every
// attached client has exhausted its stimulus. Traffic still in flight is
// Quiescent's concern.
func (s *System) Done() bool {
	for _, c := range s.Cores {
		if !c.Done() {
			return false
		}
	}
	for _, c := range s.clients {
		if !c.Done() {
			return false
		}
	}
	return true
}

// Quiescent reports whether no transaction is in flight anywhere.
func (s *System) Quiescent() bool {
	if s.Mem.Outstanding() != 0 || s.L2.Busy() {
		return false
	}
	for _, d := range s.L1s {
		if d.Busy() {
			return false
		}
	}
	for _, p := range s.ports {
		if p.Pending() != 0 {
			return false
		}
	}
	return true
}

// Drain steps until quiescence or the limit elapses.
func (s *System) Drain(limit int64) error {
	t0 := time.Now()                                               //skipit:ignore determinism host-side throughput timer, never read by simulated state
	defer func() { s.hostNanos += time.Since(t0).Nanoseconds() }() //skipit:ignore determinism host-side throughput timer, never read by simulated state
	deadline := s.now + limit
	for s.now < deadline {
		if s.Quiescent() {
			return nil
		}
		s.Step()
		// Re-check before fast-forwarding: a freshly quiescent SoC reports
		// no next event, and skipping to the deadline would miss the exit.
		if s.Quiescent() {
			return nil
		}
		s.FastForward(deadline)
	}
	return fmt.Errorf("%w while draining: %s", ErrTimeout, s.describeStall())
}

func (s *System) describeStall() string {
	out := fmt.Sprintf("cycle %d:", s.now)
	for i, c := range s.Cores {
		out += fmt.Sprintf(" core%d(done=%v)", i, c.Done())
	}
	for i, d := range s.L1s {
		st := d.FlushUnit()
		out += fmt.Sprintf(" l1[%d](busy=%v flushQ=%d fshr=%d)", i, d.Busy(), st.QueueLen(), st.ActiveFSHRs())
	}
	out += fmt.Sprintf(" l2(busy=%v) mem(out=%d)", s.L2.Busy(), s.Mem.Outstanding())
	return out
}

// Crash simulates power loss: all volatile state — cores, L1s, links, L2 —
// is destroyed; only the memory's durable contents survive. drainADR
// controls whether writes already accepted by the memory controller drain
// into the persistence domain (ADR) or are lost.
func (s *System) Crash(drainADR bool) {
	for _, c := range s.Cores {
		c.SetProgram(isa.NewBuilder().Build())
	}
	for _, d := range s.L1s {
		d.Reset()
	}
	for _, p := range s.ports {
		p.Reset()
	}
	s.L2.Reset()
	s.Mem.Crash(drainADR)
}
