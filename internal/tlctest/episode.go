package tlctest

import (
	"fmt"

	"skipit/internal/chaos"
	"skipit/internal/detrand"
	"skipit/internal/l2"
	"skipit/internal/sim"
	"skipit/internal/trace"
)

// Params describes a randomized episode abstractly; BuildScript expands it
// deterministically into a concrete Script. Only the Script is needed to
// replay — Params is kept in artifacts for provenance.
type Params struct {
	Seed          int64 `json:"seed"`
	Agents        int   `json:"agents"`
	OpsPerAgent   int   `json:"ops_per_agent"`
	Faults        int   `json:"faults"`
	Addrs         int   `json:"addrs"`
	CycleLimit    int64 `json:"cycle_limit"`
	WatchdogLimit int64 `json:"watchdog_limit"`
}

// DefaultParams returns the smoke-sweep episode shape: three agents
// hammering six addresses folded onto two sets of a 4-set/2-way L2 (three
// aliases per set against two ways guarantees evictions), with a modest
// chaos schedule on top.
func DefaultParams(seed int64) Params {
	return Params{
		Seed:          seed,
		Agents:        3,
		OpsPerAgent:   24,
		Faults:        8,
		Addrs:         6,
		CycleLimit:    150_000,
		WatchdogLimit: 20_000,
	}
}

// Script is a fully concrete, replayable episode: the address universe, the
// per-agent op streams, the chaos schedule and the agents' private seeds.
// Running the same Script twice produces byte-identical verdicts.
type Script struct {
	Agents        int            `json:"agents"`
	Addrs         []uint64       `json:"addrs"`
	Init          []uint64       `json:"init"`
	AgentSeeds    []int64        `json:"agent_seeds"`
	Ops           []Op           `json:"ops"`
	Schedule      chaos.Schedule `json:"schedule"`
	CycleLimit    int64          `json:"cycle_limit"`
	WatchdogLimit int64          `json:"watchdog_limit"`

	// Bug mutations (mutation tests only; both default off).
	Bug Bug `json:"bug,omitempty"`
	// DropRootReleaseRaceData arms the L2-side mutation reverting the
	// RootRelease-vs-eviction race fix (Cache.PokeDropRootReleaseRaceData).
	DropRootReleaseRaceData bool `json:"drop_root_release_race_data,omitempty"`
}

// episodeConfig is a bare system over a deliberately tiny L2: 4 sets and 2
// ways, so that a handful of addresses forces evictions, probes and
// way-arbitration races that a full-size cache would spread over thousands
// of sets.
func episodeConfig(agents int) sim.Config {
	cfg := sim.DefaultConfig(agents)
	cfg.L2 = l2.Config{
		Sets:            4,
		Ways:            2,
		LineBytes:       64,
		NumMSHRs:        4,
		ListBufferDepth: 8,
		TagLatency:      8,
	}
	return cfg
}

// episodeBase is where the address universe starts; any line-aligned,
// set-0-aligned base works.
const episodeBase uint64 = 0x1000

// episodeAddr maps universe index i onto the episode L2's tiny geometry
// (4 sets, 64-byte lines): even/odd indices alternate between sets 0 and 1,
// consecutive pairs are different tags (aliases) of the same sets.
func episodeAddr(i int) uint64 {
	return episodeBase + uint64(i/2)*4*64 + uint64(i%2)*64
}

// opWeights drives the scripted-op roulette (cumulative percentages).
var opWeights = []struct {
	limit int
	kind  OpKind
}{
	{15, OpAcquireB},
	{25, OpAcquireT},
	{50, OpWrite},
	{55, OpReleaseB},
	{65, OpReleaseN},
	{75, OpFlush},
	{82, OpClean},
	{100, OpIdle},
}

// tlcFaultKinds is the subset of chaos fault kinds meaningful on a bare
// system: link perturbations on any channel plus the L2 resource squeezes.
// (L1/FSHR kinds have no target here; chaos.Arm skips them, so the
// generator never draws them.)
var tlcFaultKinds = []chaos.Kind{
	chaos.LinkDelay, chaos.LinkStall, chaos.LinkRefuse,
	chaos.L2MSHRSqueeze, chaos.L2ListBufferSqueeze,
}

// BuildScript deterministically expands Params into a Script following the
// detrand split discipline: one child stream per concern, so adding draws
// to one concern never perturbs the others.
func BuildScript(p Params) Script {
	rng := detrand.New(p.Seed)
	s := Script{
		Agents:        p.Agents,
		CycleLimit:    p.CycleLimit,
		WatchdogLimit: p.WatchdogLimit,
	}
	for i := 0; i < p.Agents; i++ {
		s.AgentSeeds = append(s.AgentSeeds, detrand.SplitSeed(rng))
	}
	opRng := detrand.Split(rng)
	faultRng := detrand.Split(rng)

	for i := 0; i < p.Addrs; i++ {
		s.Addrs = append(s.Addrs, episodeAddr(i))
		s.Init = append(s.Init, 0x900000+uint64(i)*0x100)
	}

	valSeq := uint64(0)
	for a := 0; a < p.Agents; a++ {
		for j := 0; j < p.OpsPerAgent; j++ {
			op := Op{Agent: a, Addr: opRng.Intn(p.Addrs)}
			roll := opRng.Intn(100)
			for _, w := range opWeights {
				if roll < w.limit {
					op.Kind = w.kind
					break
				}
			}
			if op.Kind == OpWrite {
				valSeq++
				op.Val = uint64(a+1)<<32 | valSeq
			}
			if op.Kind == OpIdle || opRng.Intn(100) < 35 {
				op.Delay = 1 + opRng.Int63n(50)
			}
			if (op.Kind == OpFlush || op.Kind == OpClean) && opRng.Intn(2) == 0 {
				op.HoldC = opRng.Int63n(30)
			}
			s.Ops = append(s.Ops, op)
		}
	}

	span := int64(p.OpsPerAgent) * 120
	for i := 0; i < p.Faults; i++ {
		f := chaos.Fault{
			Kind:  tlcFaultKinds[faultRng.Intn(len(tlcFaultKinds))],
			Cycle: faultRng.Int63n(span),
		}
		switch f.Kind {
		case chaos.LinkDelay:
			f.Core = faultRng.Intn(p.Agents)
			f.Channel = faultRng.Intn(5)
			f.Duration = 1 + faultRng.Int63n(150)
			f.Extra = 1 + faultRng.Int63n(40)
		case chaos.LinkStall, chaos.LinkRefuse:
			f.Core = faultRng.Intn(p.Agents)
			f.Channel = faultRng.Intn(5)
			f.Duration = 1 + faultRng.Int63n(150)
		case chaos.L2MSHRSqueeze, chaos.L2ListBufferSqueeze:
			f.Duration = 1 + faultRng.Int63n(150)
			f.Quota = faultRng.Intn(3)
		}
		s.Schedule.Faults = append(s.Schedule.Faults, f)
	}
	s.Schedule.Normalize()
	return s
}

// Failure is an episode's structured verdict when something went wrong.
type Failure struct {
	Kind      string          `json:"kind"` // "violation" | "hang" | "panic" | "timeout"
	Cycle     int64           `json:"cycle"`
	Message   string          `json:"message"`
	Violation *Violation      `json:"violation,omitempty"`
	Report    *sim.HangReport `json:"report,omitempty"`
}

// Stats summarizes an episode's traffic, read back from the registry.
type Stats struct {
	Cycles           int64  `json:"cycles"`
	Skipped          uint64 `json:"skipped_cycles"`
	Acquires         uint64 `json:"acquires"`
	Grants           uint64 `json:"grants"`
	Writes           uint64 `json:"writes"`
	Releases         uint64 `json:"releases"`
	Flushes          uint64 `json:"flushes"`
	ProbesAnswered   uint64 `json:"probes_answered"`
	ValuePrunes      uint64 `json:"value_prunes"`
	RootReleaseRaces uint64 `json:"root_release_races"`
}

// RunScript executes one episode: it assembles a fresh bare system over the
// tiny L2, attaches one agent per port, arms the chaos schedule and steps
// until every agent is done and the system drains (or something fails). The
// returned Failure is nil on success.
func RunScript(s Script) (*Failure, Stats) {
	return runScript(s, true)
}

// runScript is RunScript with the fast-forward clock switchable, so the
// equivalence tests can pin fast-forwarded episodes against single-stepped
// ones.
func runScript(s Script, fastForward bool) (*Failure, Stats) {
	sys := sim.NewBare(episodeConfig(s.Agents))
	sys.SetFastForward(fastForward)
	reg := sys.Metrics()
	for i, addr := range s.Addrs {
		sys.Mem.PokeUint64(addr, s.Init[i])
	}

	sb := NewScoreboard(s.Agents, s.Addrs, s.Init, reg)
	txns := &trace.TxnSeq{}
	clients := make([]sim.Client, s.Agents)
	for i := range clients {
		var ops []Op
		for _, op := range s.Ops {
			if op.Agent == i {
				ops = append(ops, op)
			}
		}
		clients[i] = NewAgent(AgentConfig{
			ID:         i,
			Port:       sys.Ports()[i],
			Addrs:      s.Addrs,
			Ops:        ops,
			Seed:       s.AgentSeeds[i],
			Scoreboard: sb,
			Txns:       txns,
			Bug:        s.Bug,
			MemPeek:    sys.Mem.PeekUint64,
			Metrics:    reg,
		})
	}
	sys.Attach(clients...)
	if s.DropRootReleaseRaceData {
		sys.L2.PokeDropRootReleaseRaceData(true)
	}
	chaos.Arm(sys, s.Schedule)
	if s.WatchdogLimit > 0 {
		sys.ArmWatchdog(s.WatchdogLimit)
	}

	var fail *Failure
	for !(sys.Done() && sys.Quiescent()) {
		if sys.Now() >= s.CycleLimit {
			fail = &Failure{Kind: "timeout", Cycle: sys.Now(),
				Message: fmt.Sprintf("episode exceeded %d cycles", s.CycleLimit)}
			break
		}
		if err := sys.StepGuarded(); err != nil {
			he := err.(*sim.HangError)
			kind := "hang"
			if he.Report.Reason == "panic" {
				kind = "panic"
			}
			fail = &Failure{Kind: kind, Cycle: he.Report.Cycle, Message: he.Error(), Report: he.Report}
			break
		}
		if v := sb.Violation(); v != nil {
			fail = &Failure{Kind: "violation", Cycle: v.Cycle, Message: v.Error(), Violation: v}
			break
		}
		// Once the episode has ended nothing is left to skip towards but
		// the watchdog's trip cycle; jumping there would only inflate the
		// final cycle count.
		if sys.Done() && sys.Quiescent() {
			break
		}
		sys.FastForward(s.CycleLimit)
	}

	if fail == nil {
		// The system has drained: every address's freshest committed copy
		// (L2 if resident, else DRAM) must be a permissible value.
		for _, addr := range s.Addrs {
			got := sys.Mem.PeekUint64(addr)
			if line, ok := sys.L2.PeekLine(addr); ok {
				got = decodeVal(&line)
			}
			sb.CheckFinal(sys.Now(), addr, got)
		}
		if v := sb.Violation(); v != nil {
			fail = &Failure{Kind: "violation", Cycle: v.Cycle, Message: v.Error(), Violation: v}
		}
	}

	st := Stats{
		Cycles:           sys.Now(),
		Skipped:          reg.CounterValue("sim.skipped_cycles"),
		Acquires:         reg.CounterValue("tlc.acquires"),
		Grants:           reg.CounterValue("tlc.grants"),
		Writes:           reg.CounterValue("tlc.writes"),
		Releases:         reg.CounterValue("tlc.releases"),
		Flushes:          reg.CounterValue("tlc.flushes"),
		ProbesAnswered:   reg.CounterValue("tlc.probes_answered"),
		ValuePrunes:      reg.CounterValue("tlc.value_prunes"),
		RootReleaseRaces: reg.CounterValue("l2.root_release_races"),
	}
	return fail, st
}

// Run builds and executes the episode Params describes, returning the
// expanded script alongside the verdict so failures can be shrunk and
// archived without rebuilding.
func Run(p Params) (Script, *Failure, Stats) {
	s := BuildScript(p)
	fail, st := RunScript(s)
	return s, fail, st
}
