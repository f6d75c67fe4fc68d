package chaos

import (
	"fmt"
	"testing"

	"skipit/internal/isa"
	"skipit/internal/sim"
)

// TestConfigs runs every SoC configuration the harness covers. Each row is a
// case template over seeds 1..n that must all run clean: invariants checked
// every cycle, every completed load's and AMO's return value held to the
// golden model, and, for a crash row, NVMM held to the Fig. 5(c) rule.
//
//   - default: the CI fuzzer's case, two cores under 12 faults;
//   - crash: the same with a seeded power cut, at least half of them mid-run;
//   - knobs: one core over the flush unit's knobs, 1-8 FSHRs by 1-8 queue
//     entries, Skip It on and off, 60-instruction programs;
//   - disjoint: three cores, each on its own lines, 50 instructions each;
//   - tiny: caches of a few frames (L1 2x2 / L2 4x2 and L1 1x2 / L2 2x2), one
//     and two cores, Skip It alternating, with and without faults, over 24
//     lines of a 64-line window, each program reloading every word it
//     wrote. Every set is full, so evictions, probes and victim selection
//     overlap on nearly every miss: the check that found the L1 evicting a
//     line its probe unit had just accepted.
func TestConfigs(t *testing.T) {
	type row struct {
		name  string
		c     Case
		seeds int64
		cfg   func(seed int64, cfg *sim.Config) // nil: sim.DefaultConfig
	}
	crash := DefaultCase(0, 2)
	crash.Crash = true
	knobs, disjoint := DefaultCase(0, 1), DefaultCase(0, 3)
	knobs.ProgLen, disjoint.ProgLen = 60, 50
	rows := []row{
		{"default/cores=2", DefaultCase(0, 2), 40, nil},
		{"crash/cores=2", crash, 40, nil},
		{"knobs/cores=1", knobs, 128, func(seed int64, cfg *sim.Config) {
			cfg.L1.Flush.NumFSHRs = 1 + int(seed%8)
			cfg.L1.Flush.QueueDepth = 1 + int(seed/8%8)
			cfg.L1.Flush.SkipIt = seed/64%2 == 0
		}},
		{"disjoint/cores=3", disjoint, 40, nil},
	}
	for _, sets := range [][2]int{{2, 4}, {1, 2}} {
		for _, cores := range []int{1, 2} {
			for _, faults := range []int{0, 12} {
				c := DefaultCase(0, cores)
				c.ProgLen, c.Lines, c.NumFaults = 120, 24, faults
				l1Sets, l2Sets := sets[0], sets[1]
				rows = append(rows, row{
					fmt.Sprintf("tiny/l1=%dx2/l2=%dx2/cores=%d/faults=%d", l1Sets, l2Sets, cores, faults), c, 25,
					func(seed int64, cfg *sim.Config) {
						cfg.L1.Sets, cfg.L1.Ways = l1Sets, 2
						cfg.L2.Sets, cfg.L2.Ways = l2Sets, 2
						cfg.L1.Flush.SkipIt = seed%2 == 0
					},
				})
			}
		}
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var injected uint64
			var midRun int64
			failures := 0
			for seed := int64(1); seed <= r.seeds; seed++ {
				c := r.c
				c.Seed = seed
				if r.cfg != nil {
					cfg := sim.DefaultConfig(c.Cores)
					r.cfg(seed, &cfg)
					c.Config = &cfg
				}
				fail, st, _ := Run(c)
				injected += st.FaultsInjected
				if st.MidRunCrash {
					midRun++
				}
				if fail != nil {
					t.Errorf("seed %d: %s at cycle %d: %s", seed, fail.Kind, fail.Cycle, fail.Message)
					if failures++; failures == 5 {
						t.Fatal("stopping after 5 failing seeds")
					}
				}
			}
			if r.c.NumFaults > 0 && injected == 0 {
				t.Error("no fault was injected; schedule generation is broken")
			}
			if r.c.Crash && 2*midRun < r.seeds {
				t.Errorf("%d of %d crashes came mid-run, want at least half", midRun, r.seeds)
			}
		})
	}
}

// TestQueuedCleanBehindFlush: with the FSHRs squeezed to none, a CBO.FLUSH
// and a CBO.CLEAN of one dirty line queue together. When the squeeze ends,
// the flush invalidates the line and a load miss refills its way while the
// clean waits for the flush's ack. The clean must then release without
// data: reading the snapshot it took at enqueue, it once read the data of a
// line no longer in the cache and panicked ("FSHR data read for unknown
// line"). Fuzzing the 1x2 geometry under faults found it (1 run in 1,600).
func TestQueuedCleanBehindFlush(t *testing.T) {
	p, err := isa.Parse("sd 0x1000 7\nfence\ncbo.flush 0x1000\ncbo.clean 0x1000\nnop 100\nld 0x1040\nfence\n")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig(1)
	cfg.L1.Sets, cfg.L1.Ways = 1, 2
	cfg.L1.Flush.SkipIt = false
	fail, _ := RunInput(Input{
		Progs:         []*isa.Program{p},
		Schedule:      Schedule{Faults: []Fault{{Cycle: 0, Kind: FSHRSqueeze, Duration: 190, Quota: 0}}},
		Config:        &cfg,
		CycleLimit:    100_000,
		WatchdogLimit: 20_000,
	})
	if fail != nil {
		t.Fatal(fail)
	}
}
