package bench

import (
	"fmt"

	"skipit/internal/commercial"
	"skipit/internal/ds"
	"skipit/internal/isa"
	"skipit/internal/memsim"
	"skipit/internal/persist"
	"skipit/internal/sim"
	"skipit/internal/sweep"
)

// This file decomposes every figure sweep and ablation grid into sweep.Jobs:
// one job per measured point, each carrying a fingerprint over the exact
// simulator configuration and workload parameters behind it. The job
// builders must be called after sweep knobs (Reps, Sizes, quick-mode
// shrinkage) are final — jobs capture the knob values at build time.
//
// Fingerprints hash the same config values the measurement consumes
// (templates before per-core wiring, clamped thread counts, repetition
// counts), so the gate compares cycles only between identical
// configurations. A fingerprint must determine the whole Outcome, derived
// metrics included, because sweep.Runner measures each fingerprint once and
// copies the result: a derived "threads" therefore reports the clamped count
// the simulation ran, not the requested one.

// opName names the CBO.X variant in job names and series.
func opName(clean bool) string {
	if clean {
		return "clean"
	}
	return "flush"
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Fig9Jobs emits one job per Figure 9 point: (threads, size) under CBO.FLUSH
// or CBO.CLEAN, each running Reps repetitions and reporting median/sigma.
func Fig9Jobs(group string, clean bool) []sweep.Job {
	var jobs []sweep.Job
	for _, threads := range ThreadCounts {
		threads := threads
		for _, size := range Sizes {
			size := size
			clean := clean
			jobs = append(jobs, sweep.Job{
				Group:  group,
				Name:   fmt.Sprintf("%s/size%d/threads%d", opName(clean), size, threads),
				Series: fmt.Sprintf("%dT", threads),
				X:      fmt.Sprint(size),
				Fingerprint: sweep.Fingerprint("fig9", sim.DefaultConfig(1), map[string]any{
					"size": size, "threads": clampThreads(size, threads), "clean": clean,
					"reps": Reps, "loopNops": LoopNops,
				}),
				Run: func(sink sweep.Sink) (sweep.Outcome, error) {
					cycles, sigma := measureSweepPoint(sink, size, threads, clean)
					return sweep.Outcome{Cycles: cycles, Sigma: sigma, Reps: Reps,
						Derived: map[string]float64{"size": float64(size), "threads": float64(clampThreads(size, threads)), "clean": b2f(clean)}}, nil
				},
			})
		}
	}
	return jobs
}

// Fig10Jobs emits one job per Figure 10 point: write, 10x CBO.X, fence,
// re-read, across (threads, op, size).
func Fig10Jobs(threadCounts []int) []sweep.Job {
	var jobs []sweep.Job
	for _, threads := range threadCounts {
		threads := threads
		for _, clean := range []bool{true, false} {
			clean := clean
			for _, size := range Sizes {
				size := size
				eff := clampThreads(size, threads)
				jobs = append(jobs, sweep.Job{
					Group:  "fig10",
					Name:   fmt.Sprintf("%s/size%d/threads%d", opName(clean), size, threads),
					Series: fmt.Sprintf("%s-%dT", opName(clean), threads),
					X:      fmt.Sprint(size),
					Fingerprint: sweep.Fingerprint("fig10", sim.DefaultConfig(eff), map[string]any{
						"size": size, "threads": eff, "clean": clean, "loopNops": LoopNops,
					}),
					Run: func(sink sweep.Sink) (sweep.Outcome, error) {
						cy := measureWriteCboFenceRead(sink, size, threads, clean)
						return sweep.Outcome{Cycles: cy, Reps: 1,
							Derived: map[string]float64{"size": float64(size), "threads": float64(clampThreads(size, threads)), "clean": b2f(clean)}}, nil
					},
				})
			}
		}
	}
	return jobs
}

// ComparativeJobs emits the Figure 11 (threads=1) / Figure 12 (threads=8)
// grid: the simulated SonicBOOM under both CBO.X variants plus the §7.3
// analytic commercial models, across the size sweep.
func ComparativeJobs(group string, threads int) []sweep.Job {
	var jobs []sweep.Job
	for _, clean := range []bool{false, true} {
		clean := clean
		op := "CBO.FLUSH"
		if clean {
			op = "CBO.CLEAN"
		}
		for _, size := range Sizes {
			size := size
			jobs = append(jobs, sweep.Job{
				Group:  group,
				Name:   fmt.Sprintf("sonicboom/%s/size%d", opName(clean), size),
				Series: "SonicBOOM-" + op,
				X:      fmt.Sprint(size),
				Fingerprint: sweep.Fingerprint("comparative", sim.DefaultConfig(1), map[string]any{
					"size": size, "threads": clampThreads(size, threads), "clean": clean,
					"loopNops": LoopNops,
				}),
				Run: func(sink sweep.Sink) (sweep.Outcome, error) {
					cy := SweepOnce(sink, size, threads, clean)
					return sweep.Outcome{Cycles: cy, Reps: 1,
						Derived: map[string]float64{"size": float64(size), "threads": float64(clampThreads(size, threads)), "clean": b2f(clean)}}, nil
				},
			})
		}
	}
	for _, m := range commercial.Models() {
		m := m
		for _, size := range Sizes {
			size := size
			jobs = append(jobs, sweep.Job{
				Group:       group,
				Name:        fmt.Sprintf("%s/%s/size%d", m.Vendor, m.Instr, size),
				Series:      m.Vendor + "-" + m.Instr,
				X:           fmt.Sprint(size),
				Fingerprint: sweep.Fingerprint("comparative-model", m, size, threads),
				Run: func(sweep.Sink) (sweep.Outcome, error) {
					return sweep.Outcome{Cycles: m.Latency(size, threads), Reps: 1,
						Derived: map[string]float64{"size": float64(size), "threads": float64(threads)}}, nil
				},
			})
		}
	}
	return jobs
}

// Fig13Jobs emits one job per Figure 13 point: store + 1 real + `redundant`
// redundant CBO.CLEANs per line, Skip It on or off.
func Fig13Jobs(threadCounts []int, redundant int) []sweep.Job {
	var jobs []sweep.Job
	for _, threads := range threadCounts {
		threads := threads
		for _, skipIt := range []bool{false, true} {
			skipIt := skipIt
			mode := "naive"
			if skipIt {
				mode = "skipit"
			}
			for _, size := range Sizes {
				size := size
				jobs = append(jobs, sweep.Job{
					Group:  "fig13",
					Name:   fmt.Sprintf("%s/size%d/threads%d", mode, size, threads),
					Series: fmt.Sprintf("%s-%dT", mode, threads),
					X:      fmt.Sprint(size),
					Fingerprint: sweep.Fingerprint("fig13",
						redundantConfig(clampThreads(size, threads), skipIt), map[string]any{
							"size": size, "redundant": redundant, "clean": true,
							"loopNops": LoopNops,
						}),
					Run: func(sink sweep.Sink) (sweep.Outcome, error) {
						cy := measureRedundant(sink, size, threads, redundant, skipIt, true)
						return sweep.Outcome{Cycles: cy, Reps: 1,
							Derived: map[string]float64{"size": float64(size), "threads": float64(clampThreads(size, threads)), "skipit": b2f(skipIt)}}, nil
					},
				})
			}
		}
	}
	return jobs
}

// persistFingerprint hashes everything a §7.4 throughput point depends on.
func persistFingerprint(structure string, mode persist.Mode, kind PolicyKind, updatePct int, flitTable uint64) string {
	return sweep.Fingerprint("persist", memsim.DefaultConfig(PersistThreads), map[string]any{
		"structure": structure, "mode": int(mode), "policy": int(kind),
		"updatePct": updatePct, "flitTable": flitTable,
		"threads": PersistThreads, "opsPerThread": PersistOpsPerThr,
		"listKeys": ListKeys, "hashKeys": HashKeys, "treeKeys": TreeKeys,
		"hashBuckets": HashBuckets,
	})
}

// Prefills hands the §7.4 jobs of one job list one sweep.Shared per prefill
// key, so that the jobs that warm up alike run as a group and prefill once
// per run (see sweep.Shared). Make one with Prefills{}.
type Prefills map[prefillKey]*sweep.Shared

// shared returns k's Shared, made on first use.
func (p Prefills) shared(k prefillKey) *sweep.Shared {
	s, ok := p[k]
	if !ok {
		s = new(sweep.Shared)
		p[k] = s
	}
	return s
}

// persistJob wraps one §7.4 point, measured as RunPersistConfig measures
// it, with the Shared of its prefill key from pre. The gated metric is the
// slowest thread's virtual cycle count; throughput rides along in Derived.
func persistJob(pre Prefills, group, name, series, x, structure string, mode persist.Mode, kind PolicyKind, updatePct int, flitTable uint64) sweep.Job {
	k := prefillKey{structure, mode, kind, flitTable}
	sh := pre.shared(k)
	return sweep.Job{
		Group: group, Name: name, Series: series, X: x,
		Fingerprint: persistFingerprint(structure, mode, kind, updatePct, flitTable),
		Shared:      sh,
		Run: func(sweep.Sink) (sweep.Outcome, error) {
			row := runPersist(sh, k, updatePct)
			return sweep.Outcome{Cycles: row.Cycles, Reps: 1, Derived: map[string]float64{
				"mops": row.Mops, "flushes": float64(row.Flushes), "elided": float64(row.Elided),
				"update_pct": float64(updatePct),
			}}, nil
		},
	}
}

// policyKindsFor lists the elision schemes the §7.4 grid measures on one
// structure, in figure order. Link-and-persist cannot be applied to the
// BST: the algorithm owns the pointer bits.
func policyKindsFor(structure string) []PolicyKind {
	var kinds []PolicyKind
	for _, kind := range PolicyKinds() {
		if kind == PolicyLinkAndPersist && structure == ds.NameBST {
			continue
		}
		kinds = append(kinds, kind)
	}
	return kinds
}

// Fig14Jobs emits the Figure 14 grid: every structure under every
// persistence algorithm and elision scheme at 5% updates, plus the
// non-persistent baseline per structure. Its jobs take their prefills'
// Shareds from pre.
func Fig14Jobs(pre Prefills) []sweep.Job {
	var jobs []sweep.Job
	for _, structure := range Structures() {
		jobs = append(jobs, persistJob(pre, "fig14",
			structure+"/non-persistent", structure+"-"+persist.Manual.String(), PolicyNone.String(),
			structure, persist.Manual, PolicyNone, 5, FliTDefaultTable))
		for _, mode := range persist.Modes() {
			for _, kind := range policyKindsFor(structure) {
				jobs = append(jobs, persistJob(pre, "fig14",
					fmt.Sprintf("%s/%s/%s", structure, mode, kind),
					structure+"-"+mode.String(), kind.String(),
					structure, mode, kind, 5, FliTDefaultTable))
			}
		}
	}
	return jobs
}

// Fig15Jobs emits the Figure 15 grid: throughput across update percentages
// under the automatic persistence algorithm. Its jobs take their prefills'
// Shareds from pre.
func Fig15Jobs(pre Prefills, updatePcts []int) []sweep.Job {
	var jobs []sweep.Job
	for _, structure := range Structures() {
		for _, kind := range policyKindsFor(structure) {
			for _, pct := range updatePcts {
				jobs = append(jobs, persistJob(pre, "fig15",
					fmt.Sprintf("%s/%s/upd%d", structure, kind, pct),
					structure+"-"+kind.String(), fmt.Sprint(pct),
					structure, persist.Automatic, kind, pct, FliTDefaultTable))
			}
		}
	}
	return jobs
}

// Fig16Jobs emits the Figure 16 sensitivity sweep: the BST under FliT with
// hash tables from tiny to huge. Its jobs take their prefills' Shareds from
// pre.
func Fig16Jobs(pre Prefills, tableSizes []uint64) []sweep.Job {
	var jobs []sweep.Job
	for _, size := range tableSizes {
		jobs = append(jobs, persistJob(pre, "fig16",
			fmt.Sprintf("flit-table%d", size), "flit-hash", fmt.Sprint(size),
			ds.NameBST, persist.Automatic, PolicyFliTHash, 5, size))
	}
	return jobs
}

// --- Ablations: the §5 design choices DESIGN.md calls out, as gated jobs ---

// measureAblationSweep runs dirty-region + flush-region + fence under cfg
// and returns cycles from first CBO issue to final fence completion.
func measureAblationSweep(sink Sink, cfg sim.Config, size uint64) float64 {
	s := newSystem(cfg)
	b := isa.NewBuilder()
	b.StoreRegion(0, size, lineBytes, 1)
	b.Fence()
	start := b.Mark()
	b.CboRegion(0, size, lineBytes, false)
	end := b.Mark()
	b.Fence()
	if _, err := s.Run([]*isa.Program{b.Build()}, runLimit); err != nil {
		panic(err)
	}
	emitSnapshot(sink, s, "ablation_sweep_size%d", size)
	tm := s.Cores[0].Timings()
	return float64(tm[end].CompletedAt - tm[start].IssuedAt)
}

// measureAblationRedundant runs store + (1+redundant) CBO.CLEANs per line.
func measureAblationRedundant(sink Sink, cfg sim.Config, size uint64, redundant int) float64 {
	s := newSystem(cfg)
	b := isa.NewBuilder()
	start := b.Mark()
	for a := uint64(0); a < size; a += lineBytes {
		b.Store(a, 1)
		for r := 0; r <= redundant; r++ {
			b.CboClean(a)
		}
	}
	end := b.Mark()
	b.Fence()
	if _, err := s.Run([]*isa.Program{b.Build()}, runLimit); err != nil {
		panic(err)
	}
	emitSnapshot(sink, s, "ablation_redundant_size%d_red%d", size, redundant)
	tm := s.Cores[0].Timings()
	return float64(tm[end].CompletedAt - tm[start].IssuedAt)
}

// AblationJobs emits the §5 design-choice grid: widened data array, FSHR
// count, same-line coalescing, and flush-queue depth, each as a gated
// 4 KiB (or redundant-clean) measurement.
func AblationJobs() []sweep.Job {
	var jobs []sweep.Job
	sweepCell := func(name, series, x string, mutate func(*sim.Config)) {
		cfg := sim.DefaultConfig(1)
		mutate(&cfg)
		const size = 4096
		jobs = append(jobs, sweep.Job{
			Group: "ablations", Name: name, Series: series, X: x,
			Fingerprint: sweep.Fingerprint("ablation-sweep", cfg, size),
			Run: func(sink sweep.Sink) (sweep.Outcome, error) {
				return sweep.Outcome{Cycles: measureAblationSweep(sink, cfg, size), Reps: 1}, nil
			},
		})
	}
	sweepCell("wide-data-array/on", "wide-data-array", "on", func(c *sim.Config) {})
	sweepCell("wide-data-array/off", "wide-data-array", "off", func(c *sim.Config) { c.L1.Flush.WideDataArray = false })
	for _, n := range []int{1, 2, 8} {
		n := n
		sweepCell(fmt.Sprintf("fshr/%d", n), "fshr-count", fmt.Sprint(n),
			func(c *sim.Config) { c.L1.Flush.NumFSHRs = n })
	}
	for _, depth := range []int{1, 8} {
		depth := depth
		sweepCell(fmt.Sprintf("flush-queue/%d", depth), "flush-queue-depth", fmt.Sprint(depth),
			func(c *sim.Config) { c.L1.Flush.QueueDepth = depth })
	}
	for _, on := range []bool{true, false} {
		on := on
		x := "off"
		if on {
			x = "on"
		}
		cfg := sim.DefaultConfig(1)
		cfg.L1.Flush.SkipIt = false
		cfg.L1.Flush.Coalescing = on
		const size, redundant = 512, 4
		jobs = append(jobs, sweep.Job{
			Group: "ablations", Name: "coalescing/" + x, Series: "coalescing", X: x,
			Fingerprint: sweep.Fingerprint("ablation-redundant", cfg, size, redundant),
			Run: func(sink sweep.Sink) (sweep.Outcome, error) {
				return sweep.Outcome{Cycles: measureAblationRedundant(sink, cfg, size, redundant), Reps: 1}, nil
			},
		})
	}
	return jobs
}
