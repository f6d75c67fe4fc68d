package main

import (
	"fmt"

	"skipit/internal/boom"
	"skipit/internal/isa"
	"skipit/internal/sim"
	"skipit/internal/tilelink"
)

// sampleEvery makes the traced drivers time one ticked cycle in this many;
// the others run with no timer at all. A prime, so the samples do not alias
// with the programs' regular instruction patterns.
const sampleEvery = 17

// The component calls the component driver times, in System.Step's order
// and then the NextEvent fold's order.
const (
	callMemTick = iota
	callL2Tick
	callL1Tick
	callCoreTick
	callCoreNext
	callL1Next
	callL2Next
	callPortNext
	callMemNext
	numCalls
)

var callNames = [numCalls]string{
	"mem.tick", "l2.tick", "l1.tick", "boom.tick",
	"boom.next_event", "l1.next_event", "l2.next_event", "tilelink.next_event", "mem.next_event",
}

// componentDriver steps a sim.System's components through their public Tick
// and NextEvent methods on a clock of its own, reproducing System.Run,
// System.Step and the fast-forward fold (internal/sim/fold.go) call for
// call, so it can time each component. The system's own clock stays where
// the driver found it: once driven, a system is only inspected, never run
// again.
type componentDriver struct {
	sys   *sim.System
	ports []*tilelink.ClientPort
	now   int64
	rec   *spanRecorder

	ticked, sampled, skipped int64
	ns                       [numCalls]int64 // host time of the sampled calls

	// skipL2TickAt, when not negative, drops the L2 tick of that cycle: a
	// planted divergence that the identity guard must catch.
	skipL2TickAt int64
}

func newComponentDriver(sys *sim.System, rec *spanRecorder) *componentDriver {
	return &componentDriver{sys: sys, ports: sys.Ports(), now: sys.Now(), rec: rec, skipL2TickAt: -1}
}

func (d *componentDriver) clock() int64 { return d.now }

// run is System.Run's serial loop.
func (d *componentDriver) run(progs []*isa.Program, limit int64) (int64, error) {
	s := d.sys
	for i, p := range progs {
		s.Cores[i].SetProgram(p)
	}
	deadline := d.now + limit
	coresDone := int64(-1)
	for d.now < deadline {
		sample := d.ticked%sampleEvery == 0
		d.step(sample)
		if coresDone < 0 {
			if allDone(s.Cores) {
				coresDone = d.now
				continue
			}
		} else if s.Quiescent() {
			return coresDone, nil
		}
		d.fastForward(deadline, sample)
	}
	return 0, fmt.Errorf("component driver: cycle limit %d exceeded at cycle %d", limit, d.now)
}

func allDone(cores []*boom.Core) bool {
	for _, c := range cores {
		if !c.Done() {
			return false
		}
	}
	return true
}

// lap books the call that started at t and returns the time it ended.
func (d *componentDriver) lap(call int, t int64) int64 {
	e := now()
	d.ns[call] += e - t
	d.rec.add(callNames[call], "layer", laneSoC, t, e)
	return e
}

// step is System.Step.
func (d *componentDriver) step(sample bool) {
	s, cyc := d.sys, d.now
	var t int64
	if sample {
		d.sampled++
		t = now()
	}
	s.Mem.Tick(cyc)
	if sample {
		t = d.lap(callMemTick, t)
	}
	if cyc != d.skipL2TickAt {
		s.L2.Tick(cyc)
	}
	if sample {
		t = d.lap(callL2Tick, t)
	}
	for _, l := range s.L1s {
		l.Tick(cyc)
	}
	if sample {
		t = d.lap(callL1Tick, t)
	}
	for _, c := range s.Cores {
		c.Tick(cyc)
	}
	if sample {
		d.lap(callCoreTick, t)
	}
	d.now++
	d.ticked++
}

// fastForward is System.FastForward with only the run deadline as a clamp
// (no sampler, progress hook or watchdog is armed on the benchmark's
// systems).
func (d *componentDriver) fastForward(deadline int64, sample bool) {
	next := d.nextEvent(d.now-1, sample)
	if next <= d.now {
		return
	}
	if deadline < next {
		next = deadline
	}
	if next >= tilelink.NoEvent || next <= d.now {
		return
	}
	d.skipped += next - d.now
	d.now = next
}

// nextEvent is System.nextEventCycle: cores, L1s, L2, ports, memory, with
// the fold stopping as soon as the floor is reached.
func (d *componentDriver) nextEvent(last int64, sample bool) int64 {
	s, floor := d.sys, last+1
	var t int64
	if sample {
		t = now()
	}
	next := foldAll(last, tilelink.NoEvent, s.Cores)
	if sample {
		t = d.lap(callCoreNext, t)
	}
	if next <= floor {
		return floor
	}
	next = foldAll(last, next, s.L1s)
	if sample {
		t = d.lap(callL1Next, t)
	}
	if next <= floor {
		return floor
	}
	if e := s.L2.NextEvent(last); e < next {
		next = max(e, floor)
	}
	if sample {
		t = d.lap(callL2Next, t)
	}
	if next <= floor {
		return floor
	}
	next = foldAll(last, next, d.ports)
	if sample {
		t = d.lap(callPortNext, t)
	}
	if next <= floor {
		return floor
	}
	if e := s.Mem.NextEvent(last); e < next {
		next = max(e, floor)
	}
	if sample {
		d.lap(callMemNext, t)
	}
	return next
}

// foldAll is sim's foldNextAll: the earliest next event of srcs, or the
// floor last+1 as soon as one source reports it.
func foldAll[T interface{ NextEvent(int64) int64 }](last, next int64, srcs []T) int64 {
	floor := last + 1
	for _, s := range srcs {
		if t := s.NextEvent(last); t < next {
			if t <= floor {
				return floor
			}
			next = t
		}
	}
	return next
}

// perTicked returns the sampled host time of a call per ticked cycle.
func (d *componentDriver) perTicked(call int) float64 {
	if d.sampled == 0 {
		return 0
	}
	return float64(d.ns[call]) / float64(d.sampled)
}

// simDriver runs System.Run's serial loop through the public Step,
// FastForward, Quiescent and Core.Done, timing the sampled Step and
// FastForward calls.
type simDriver struct {
	sys *sim.System
	rec *spanRecorder

	steps, ffCalls               int64
	sampledSteps, sampledFF      int64
	stepNS, ffNS                 int64
	skippedAtStart, skippedAtEnd uint64
}

func newSimDriver(sys *sim.System, rec *spanRecorder) *simDriver {
	return &simDriver{sys: sys, rec: rec, skippedAtStart: sys.SkippedCycles()}
}

func (d *simDriver) clock() int64 { return d.sys.Now() }

func (d *simDriver) run(progs []*isa.Program, limit int64) (int64, error) {
	s := d.sys
	defer func() { d.skippedAtEnd = s.SkippedCycles() }()
	for i, p := range progs {
		s.Cores[i].SetProgram(p)
	}
	deadline := s.Now() + limit
	coresDone := int64(-1)
	for s.Now() < deadline {
		sample := d.steps%sampleEvery == 0
		d.steps++
		if sample {
			t := now()
			s.Step()
			e := now()
			d.stepNS += e - t
			d.sampledSteps++
			d.rec.add("sim.step", "layer", laneSoC, t, e)
		} else {
			s.Step()
		}
		if coresDone < 0 {
			if allDone(s.Cores) {
				coresDone = s.Now()
				continue
			}
		} else if s.Quiescent() {
			return coresDone, nil
		}
		d.ffCalls++
		if sample {
			t := now()
			s.FastForward(deadline)
			e := now()
			d.ffNS += e - t
			d.sampledFF++
			d.rec.add("sim.fast_forward", "layer", laneSoC, t, e)
		} else {
			s.FastForward(deadline)
		}
	}
	return 0, fmt.Errorf("sim driver: cycle limit %d exceeded at cycle %d", limit, s.Now())
}

func (d *simDriver) stepNSPerCycle() float64 {
	return ratio(float64(d.stepNS), float64(d.sampledSteps))
}
func (d *simDriver) ffNSPerCall() float64 { return ratio(float64(d.ffNS), float64(d.sampledFF)) }

// ffShare estimates the fold's share of stepping time from the sampled
// per-call costs and the exact call counts.
func (d *simDriver) ffShare() float64 {
	ff := d.ffNSPerCall() * float64(d.ffCalls)
	return ratio(ff, d.stepNSPerCycle()*float64(d.steps)+ff)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
