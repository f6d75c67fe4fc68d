// Package skipit is a software reproduction of "Skip It: Take Control of
// Your Cache!" (Anand, Friedman, Giardino, Alonso — ASPLOS 2024): a
// cycle-level simulator of the paper's SonicBOOM-based SoC with
// user-controlled cache writebacks (CBO.CLEAN / CBO.FLUSH), the flush unit
// microarchitecture of §5, and the Skip It redundant-writeback eliminator of
// §6 — plus the software persistence substrate (lock-free data structures
// and flush-elision baselines) its evaluation compares against.
//
// The package is a facade: it re-exports the stable API surface of the
// internal packages via type aliases, so downstream users can drive
// everything through import "skipit".
//
// # Quick start
//
//	sys := skipit.NewSystem(1)
//	prog := skipit.NewProgram().
//		Store(0x1000, 42).
//		CboClean(0x1000).
//		Fence().
//		Build()
//	cycles, err := sys.Run([]*skipit.Program{prog}, 1_000_000)
//	// skipit.NVMMValue(sys, 0x1000) == 42: the store is durable.
//
// Three layers are exposed:
//
//   - The cycle-accurate SoC (System, Program): BOOM-style cores, L1 data
//     caches embedding the flush unit, a shared inclusive L2, DRAM/NVMM.
//     Used for the §7.2/§7.3 microbenchmarks and crash-consistency work.
//   - The behavioral persistence layer (Hierarchy, policies, sets): real
//     lock-free data structures over a fast cache model with virtual time.
//     Used for the §7.4 throughput study.
//   - The figure jobs (internal/bench's Figures table, run by
//     cmd/skipit-bench and read by the testing.B targets in bench_test.go)
//     regenerating every figure of the paper's evaluation; see
//     EXPERIMENTS.md.
package skipit

import (
	"io"

	"skipit/internal/boom"
	"skipit/internal/commercial"
	"skipit/internal/ds"
	"skipit/internal/isa"
	"skipit/internal/l1"
	"skipit/internal/l2"
	"skipit/internal/mem"
	"skipit/internal/memsim"
	"skipit/internal/persist"
	"skipit/internal/sim"
	"skipit/internal/trace"
)

// --- Cycle-accurate SoC layer ---

// System is the assembled SoC: N cores with private L1s, a shared inclusive
// L2, and the DRAM/NVMM controller. See sim.System for methods.
type System = sim.System

// SystemConfig parameterizes the SoC.
type SystemConfig = sim.Config

// Program is an instruction sequence for one hardware thread.
type Program = isa.Program

// ProgramBuilder assembles programs fluently.
type ProgramBuilder = isa.Builder

// CoreConfig parameterizes the BOOM-style core model.
type CoreConfig = boom.Config

// L1Config parameterizes the L1 data cache (including the flush unit via
// its Flush field).
type L1Config = l1.Config

// L2Config parameterizes the inclusive L2.
type L2Config = l2.Config

// MemConfig parameterizes the DRAM/NVMM controller.
type MemConfig = mem.Config

// NewSystem assembles a numCores-core SoC with the paper's configuration:
// 32 KiB 8-way L1s with the §5 flush unit (Skip It enabled), a shared
// 512 KiB inclusive L2, and a 16-byte system bus.
func NewSystem(numCores int) *System {
	return sim.New(sim.DefaultConfig(numCores))
}

// NewSystemWithConfig assembles a custom SoC; start from DefaultSystemConfig
// and adjust (e.g. cfg.L1.Flush.SkipIt = false for the naive baseline).
func NewSystemWithConfig(cfg SystemConfig) *System {
	return sim.New(cfg)
}

// DefaultSystemConfig returns the paper's SoC configuration for numCores
// cores.
func DefaultSystemConfig(numCores int) SystemConfig {
	return sim.DefaultConfig(numCores)
}

// NewProgram returns an empty program builder.
func NewProgram() *ProgramBuilder { return isa.NewBuilder() }

// NVMMValue reads the durable 8-byte value at addr from the system's
// persistence domain — what survives a crash.
func NVMMValue(s *System, addr uint64) uint64 {
	return s.Mem.PeekUint64(addr)
}

// --- Behavioral persistence layer (§7.4) ---

// Hierarchy is the fast tag-only cache model under the software persistence
// study, with one virtual clock per simulated thread. It is single-goroutine:
// simulated threads are the tid arguments of its calls, and the caller
// interleaves them (the figure runs take turns one operation at a time).
type Hierarchy = memsim.Hierarchy

// HierarchyConfig parameterizes the behavioral model.
type HierarchyConfig = memsim.Config

// Allocator hands out simulated persistent-heap addresses.
type Allocator = memsim.Allocator

// Policy is a flush-elision scheme (plain, FliT, link-and-persist, Skip It).
// A Policy is single-goroutine like the Hierarchy under it, so drive the sets
// built on it from one goroutine.
type Policy = persist.Policy

// PersistEnv couples a Policy with a persistence algorithm (Mode).
type PersistEnv = persist.Env

// PersistMode selects the persistence algorithm: Automatic, NVTraverse or
// Manual.
type PersistMode = persist.Mode

// The three persistence algorithms of §7.4.
const (
	Automatic  = persist.Automatic
	NVTraverse = persist.NVTraverse
	Manual     = persist.Manual
)

// Set is the concurrent-set interface the four lock-free structures expose.
type Set = ds.Set

// NewHierarchy builds the behavioral cache model for the given thread count
// with the paper's platform parameters.
func NewHierarchy(threads int) *Hierarchy {
	return memsim.New(memsim.DefaultConfig(threads))
}

// NewAllocator starts a simulated persistent heap at base.
func NewAllocator(base uint64) *Allocator { return memsim.NewAllocator(base) }

// NewPlainPolicy returns the no-elision baseline over naive hardware.
func NewPlainPolicy(h *Hierarchy) Policy { return persist.NewPlain(h, false) }

// NewSkipItPolicy returns plain software over Skip It hardware: redundant
// writebacks are dropped in the L1 (§6).
func NewSkipItPolicy(h *Hierarchy) Policy { return persist.NewSkipIt(h, false) }

// NewFliTAdjacentPolicy returns FliT with per-object counters.
func NewFliTAdjacentPolicy(h *Hierarchy) Policy {
	return persist.NewFliT(h, true, 0, 0, false)
}

// NewFliTHashPolicy returns FliT with a counter hash table of the given
// entry count placed at tableBase in the simulated heap.
func NewFliTHashPolicy(h *Hierarchy, entries, tableBase uint64) Policy {
	return persist.NewFliT(h, false, entries, tableBase, false)
}

// NewLinkAndPersistPolicy returns the link-and-persist scheme (bit 63 of
// each word marks unpersisted data).
func NewLinkAndPersistPolicy(h *Hierarchy) Policy {
	return persist.NewLinkAndPersist(h, false)
}

// NewLinkedList builds the lock-free sorted linked list (Harris).
func NewLinkedList(env *PersistEnv, alloc *Allocator) Set { return ds.NewLinkedList(env, alloc) }

// NewHashTable builds the lock-free hash table (power-of-two buckets of
// Harris lists).
func NewHashTable(env *PersistEnv, alloc *Allocator, buckets int) Set {
	return ds.NewHashTable(env, alloc, buckets)
}

// NewBST builds the lock-free external BST (Natarajan–Mittal style).
func NewBST(env *PersistEnv, alloc *Allocator) Set { return ds.NewBST(env, alloc) }

// NewSkiplist builds the lock-free skiplist.
func NewSkiplist(env *PersistEnv, alloc *Allocator) Set { return ds.NewSkiplist(env, alloc) }

// --- Tracing ---

// TextTrace is a trace sink that writes one line per simulator event;
// attach one with System.TraceTo.
type TextTrace = trace.Text

// NewTextTrace returns a sink that writes one line per event to w.
func NewTextTrace(w io.Writer) *TextTrace { return trace.NewText(w) }

// --- Commercial comparison models (§7.3) ---

// CommercialModel is one writeback instruction on one commercial CPU.
type CommercialModel = commercial.Model

// CommercialModels returns the §7.3 instruction set (Intel/AMD/Graviton3).
func CommercialModels() []CommercialModel { return commercial.Models() }
