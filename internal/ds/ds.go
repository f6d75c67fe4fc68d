// Package ds provides the four lock-free set data structures the paper's
// §7.4 persistence study runs over: a sorted linked list [Harris, DISC'01],
// a hash table with per-bucket lists [David et al., ATC'18], an external
// binary search tree in the style of Natarajan–Mittal [PPoPP'14], and a
// skiplist [Herlihy & Shavit].
//
// All four are real concurrent lock-free implementations (CAS-based, with
// helping); every shared-memory access additionally reports itself to a
// persist.Env so the flush-elision policies charge their true costs against
// the memsim hierarchy. Keys 1..KeyMax are valid; 0 and ^uint64(0) are
// sentinels.
package ds

import (
	"skipit/internal/memsim"
	"skipit/internal/persist"
)

// KeyMax is the largest insertable key.
const KeyMax = ^uint64(0) - 16

// Set is the common concurrent-set interface. tid identifies the calling
// thread for virtual-time accounting; callers must use distinct tids for
// concurrent goroutines, and wrap the Env's policy in persist.Locked, since
// the policies and the memsim hierarchy are single-goroutine.
type Set interface {
	Name() string
	Insert(tid int, key uint64) bool
	Delete(tid int, key uint64) bool
	Contains(tid int, key uint64) bool
}

// Common bundles what every structure needs: the persistence environment and
// the simulated-heap allocator.
type Common struct {
	env   *persist.Env
	alloc *memsim.Allocator
}

// NewCommon builds the shared context.
func NewCommon(env *persist.Env, alloc *memsim.Allocator) Common {
	return Common{env: env, alloc: alloc}
}

// allocNode reserves simulated heap space for an object of `words` 8-byte
// words plus the policy's padding (FliT-adjacent counters).
func (c *Common) allocNode(words uint64) uint64 {
	return c.alloc.Alloc(words*8 + c.env.Pol.NodePad())
}

// Structure names as used in figures.
const (
	NameList     = "linked-list"
	NameHash     = "hash-table"
	NameBST      = "bst"
	NameSkiplist = "skiplist"
)
