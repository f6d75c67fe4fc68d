package chaos

import (
	"fmt"

	"skipit/internal/metrics"
	"skipit/internal/sim"
	"skipit/internal/tilelink"
)

// FlipRecord logs the outcome of one bit-flip fault, so callers can tell
// recovered upsets apart from injections the cache refused (line absent or
// mid-transaction) and from unrecoverable dirty-line hits.
type FlipRecord struct {
	Fault   Fault  `json:"fault"`
	Outcome string `json:"outcome"`
}

// Runner drives one armed system: it applies scheduled faults as the clock
// reaches them and steps the SoC under the watchdog and invariant checker.
type Runner struct {
	s     *sim.System
	sched Schedule
	next  int // first fault not yet counted/applied
	flips []FlipRecord

	ctrInjected *metrics.Counter
}

// Arm installs the schedule's fault hooks on a freshly built system and
// returns the Runner that will apply it. The schedule must be normalized
// (sorted by cycle; Generate's output always is). Sites with no faults keep a
// nil hook, preserving the zero-overhead fast path; Arm with an empty
// schedule installs nothing at all.
//
// On a bare system (sim.NewBare plus Attach) the L1 and flush-unit kinds
// find no site and are skipped; Fault.Core then selects the client port for
// the link kinds.
//
// Arm must be called before the first step that should see a fault; hooks are
// pure functions of the cycle number, so replaying the same schedule on the
// same programs is bit-identical.
func Arm(s *sim.System, sched Schedule) *Runner {
	r := &Runner{
		s:           s,
		sched:       sched,
		ctrInjected: s.Metrics().Counter("chaos", "faults_injected"), //skipit:ignore metricname shared SoC-wide chaos counter, pre-registered by sim.NewBare
	}
	// Split window faults per site.
	type linkKey struct{ core, ch int }
	linkFaults := map[linkKey][]Fault{}
	l1Faults := map[int][]Fault{}
	fshrFaults := map[int][]Fault{}
	var l2Faults []Fault
	for _, f := range sched.Faults {
		switch f.Kind {
		case LinkDelay, LinkStall, LinkRefuse:
			k := linkKey{f.Core, f.Channel}
			linkFaults[k] = append(linkFaults[k], f)
		case L1Nack, L1MSHRSqueeze:
			l1Faults[f.Core] = append(l1Faults[f.Core], f)
		case FSHRSqueeze:
			fshrFaults[f.Core] = append(fshrFaults[f.Core], f)
		case L2MSHRSqueeze, L2ListBufferSqueeze:
			l2Faults = append(l2Faults, f)
		case L1BitFlip, L2BitFlip:
			// Push faults are applied by advance(), not hooks.
		default:
			panic(fmt.Sprintf("chaos: unknown fault kind %q", f.Kind))
		}
	}
	ports := s.Ports()
	for k, fs := range linkFaults {
		if k.core < 0 || k.core >= len(ports) {
			continue
		}
		channelOf(ports[k.core], k.ch).SetChaos(&linkHook{faults: fs})
	}
	for c, fs := range l1Faults {
		if c < 0 || c >= len(s.L1s) {
			continue
		}
		s.L1s[c].SetChaos(&l1Hook{faults: fs})
	}
	for c, fs := range fshrFaults {
		if c < 0 || c >= len(s.L1s) {
			continue
		}
		s.L1s[c].FlushUnit().SetChaos(&fshrHook{faults: fs})
	}
	if len(l2Faults) > 0 {
		s.L2.SetChaos(&l2Hook{faults: l2Faults})
	}
	return r
}

func channelOf(p *tilelink.ClientPort, ch int) *tilelink.Link {
	switch ch {
	case 0:
		return p.A
	case 1:
		return p.B
	case 2:
		return p.C
	case 3:
		return p.D
	case 4:
		return p.E
	}
	panic(fmt.Sprintf("chaos: channel index %d out of range", ch))
}

// advance applies every fault whose cycle has arrived: push faults (bit
// flips) fire here, window faults are counted once as their window opens (the
// hooks themselves stay pure).
func (r *Runner) advance(now int64) {
	for r.next < len(r.sched.Faults) && r.sched.Faults[r.next].Cycle <= now {
		f := r.sched.Faults[r.next]
		r.next++
		r.ctrInjected.Inc()
		switch f.Kind {
		case L1BitFlip:
			if f.Core >= 0 && f.Core < len(r.s.L1s) {
				out := r.s.L1s[f.Core].InjectBitFlip(f.Addr, f.Bit)
				r.flips = append(r.flips, FlipRecord{Fault: f, Outcome: out.String()})
			}
		case L2BitFlip:
			out := r.s.L2.InjectBitFlip(f.Addr, f.Bit)
			r.flips = append(r.flips, FlipRecord{Fault: f, Outcome: out.String()})
		default:
			continue
		}
		// A flip changes a cache outside Step: the next step ticks every
		// part, whatever its cached wake.
		r.s.WakeAll()
	}
}

// StepChecked applies due faults, advances one cycle under the watchdog and
// panic guard, then verifies the cross-layer invariants. The first error wins.
// After a clean step it lets the fast-forward clock skip a provably idle
// window, clamped to the next scheduled fault's cycle: push faults must fire
// exactly at their scheduled cycle, and a window fault's opening must be
// observed (counted) there too. Invariants need no re-check across a skipped
// window — by construction nothing changes state in it.
//
// Callers with their own cycle bounds pass them as limits so a verdict's
// cycle number (e.g. a timeout's) is the same with fast-forwarding on or
// off: the clock never lands past a limit it would have single-stepped to.
func (r *Runner) StepChecked(limits ...int64) error {
	r.advance(r.s.Now())
	if err := r.s.StepGuarded(); err != nil {
		return err
	}
	if err := r.s.CheckInvariants(); err != nil {
		return err
	}
	// Terminal state: every core done and the memory system quiescent. The
	// driving loop is about to break; skipping ahead (e.g. to the watchdog's
	// trip cycle) would only distort the final cycle count.
	if r.s.Done() && r.s.Quiescent() {
		return nil
	}
	if r.next < len(r.sched.Faults) {
		limits = append(limits, r.sched.Faults[r.next].Cycle)
	}
	r.s.FastForward(limits...)
	return nil
}

// Flips returns the outcome log of all bit-flip faults applied so far.
func (r *Runner) Flips() []FlipRecord { return r.flips }

// linkHook implements tilelink.Chaos over this channel's window faults.
// Methods are pure functions of now, so Peek and Recv within a cycle agree
// and replays are exact.
type linkHook struct{ faults []Fault }

func (h *linkHook) SendFault(now int64) (extra int64, refuse bool) {
	for i := range h.faults {
		f := &h.faults[i]
		if !f.activeAt(now) {
			continue
		}
		switch f.Kind {
		case LinkDelay:
			extra += f.Extra
		case LinkRefuse:
			return 0, true
		}
	}
	return extra, false
}

func (h *linkHook) RecvStall(now int64) bool {
	for i := range h.faults {
		f := &h.faults[i]
		if f.Kind == LinkStall && f.activeAt(now) {
			return true
		}
	}
	return false
}

// minQuota folds the active squeeze windows of the given kind into a single
// quota: the tightest one wins; -1 means unconstrained.
func minQuota(faults []Fault, kind Kind, now int64) int {
	q := -1
	for i := range faults {
		f := &faults[i]
		if f.Kind != kind || !f.activeAt(now) {
			continue
		}
		if q < 0 || f.Quota < q {
			q = f.Quota
		}
	}
	return q
}

// l1Hook implements l1.Chaos.
type l1Hook struct{ faults []Fault }

func (h *l1Hook) ForceNack(now int64) bool {
	for i := range h.faults {
		f := &h.faults[i]
		if f.Kind == L1Nack && f.activeAt(now) {
			return true
		}
	}
	return false
}

func (h *l1Hook) MSHRQuota(now int64) int { return minQuota(h.faults, L1MSHRSqueeze, now) }

// fshrHook implements core.Chaos.
type fshrHook struct{ faults []Fault }

func (h *fshrHook) FSHRQuota(now int64) int { return minQuota(h.faults, FSHRSqueeze, now) }

// l2Hook implements l2.Chaos.
type l2Hook struct{ faults []Fault }

func (h *l2Hook) MSHRQuota(now int64) int { return minQuota(h.faults, L2MSHRSqueeze, now) }

func (h *l2Hook) ListBufferQuota(now int64) int { return minQuota(h.faults, L2ListBufferSqueeze, now) }
