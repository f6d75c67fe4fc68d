package ds

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"skipit/internal/memsim"
	"skipit/internal/persist"
)

// skipMaxHeight bounds towers; 2^16 expected keys per level-16 node.
const skipMaxHeight = 16

// slRef is the atomically-swapped (successor, marked) pair of one skiplist
// level, mirroring the listState encoding.
type slRef struct {
	next   *slNode
	marked bool
}

type slNode struct {
	key    uint64
	addr   uint64
	height int
	next   []atomic.Pointer[slRef]
}

// levelAddr returns the simulated address of the level-th next pointer.
func (n *slNode) levelAddr(level int) uint64 { return n.addr + 8 + uint64(level)*8 }

// Skiplist is the lock-free skiplist of Herlihy & Shavit (a Fraser-style
// design): deletion marks each level's next pointer top-down, with the
// bottom level as the linearization point, and find() physically unlinks
// marked nodes.
type Skiplist struct {
	Common
	head *slNode
	tail *slNode

	// rngMu guards rng by itself: randomHeight runs outside every Policy
	// call, so a persist.Locked policy does not serialize it, and
	// concurrent Insert callers share this stream.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewSkiplist builds an empty skiplist.
func NewSkiplist(env *persist.Env, alloc *memsim.Allocator) *Skiplist {
	s := &Skiplist{Common: NewCommon(env, alloc), rng: rand.New(rand.NewSource(42))}
	s.tail = s.newNode(^uint64(0), skipMaxHeight, nil)
	tails := make([]*slNode, skipMaxHeight)
	for l := range tails {
		tails[l] = s.tail
	}
	s.head = s.newNode(0, skipMaxHeight, tails)
	return s
}

// Name identifies the structure in benchmark output.
func (s *Skiplist) Name() string { return NameSkiplist }

// newNode makes a node whose level l points at succs[l]; the tail passes
// nil succs, and its levels point nowhere.
func (s *Skiplist) newNode(key uint64, height int, succs []*slNode) *slNode {
	n := &slNode{
		key:    key,
		height: height,
		addr:   s.allocNode(1 + uint64(height)),
		next:   make([]atomic.Pointer[slRef], height),
	}
	for l := range n.next {
		ref := &slRef{}
		if succs != nil {
			ref.next = succs[l]
		}
		n.next[l].Store(ref)
	}
	return n
}

func (s *Skiplist) randomHeight() int {
	s.rngMu.Lock()
	v := s.rng.Uint64()
	s.rngMu.Unlock()
	h := 1
	for v&1 == 1 && h < skipMaxHeight {
		h++
		v >>= 1
	}
	return h
}

// find locates key, filling preds/succs per level and physically unlinking
// marked nodes it encounters. It reports whether an unmarked bottom-level
// node with the key was found.
func (s *Skiplist) find(tid int, key uint64, preds, succs []*slNode) bool {
retry:
	for {
		pred := s.head
		for level := skipMaxHeight - 1; level >= 0; level-- {
			l := level
			s.env.ReadTraverse(tid, pred.levelAddr(l))
			curr := pred.next[l].Load().next
			for {
				s.env.ReadTraverse(tid, curr.levelAddr(l))
				currRef := curr.next[l].Load()
				for currRef.marked {
					// Help unlink at this level.
					predRef := pred.next[l].Load()
					if predRef.marked || predRef.next != curr {
						continue retry
					}
					if !pred.next[l].CompareAndSwap(predRef, &slRef{next: currRef.next}) {
						continue retry
					}
					s.env.WriteCommit(tid, pred.levelAddr(l))
					curr = currRef.next
					s.env.ReadTraverse(tid, curr.levelAddr(l))
					currRef = curr.next[l].Load()
				}
				if curr.key < key {
					pred = curr
					curr = currRef.next
					continue
				}
				break
			}
			preds[level] = pred
			succs[level] = curr
		}
		return succs[0].key == key
	}
}

// Insert adds key; it reports false if already present.
func (s *Skiplist) Insert(tid int, key uint64) bool {
	checkKey(key)
	preds := make([]*slNode, skipMaxHeight)
	succs := make([]*slNode, skipMaxHeight)
	for {
		if s.find(tid, key, preds, succs) {
			s.env.ReadCritical(tid, succs[0].addr)
			s.env.EndOp(tid, false)
			return false
		}
		height := s.randomHeight()
		node := s.newNode(key, height, succs)
		for l := 0; l < height; l++ {
			s.env.Write(tid, node.levelAddr(l))
		}
		s.env.Write(tid, node.addr)
		s.env.FlushNew(tid, node.addr)

		// Linearize by linking the bottom level.
		predRef := preds[0].next[0].Load()
		if predRef.marked || predRef.next != succs[0] {
			continue
		}
		if !preds[0].next[0].CompareAndSwap(predRef, &slRef{next: node}) {
			continue
		}
		s.env.WriteCommit(tid, preds[0].levelAddr(0))

		// Link the upper levels best-effort; the tower above level 0 is
		// an index, not part of the abstract set.
		for l := 1; l < height; l++ {
			for {
				ref := node.next[l].Load()
				if ref.marked {
					break // concurrent delete; stop building
				}
				predRef := preds[l].next[l].Load()
				if !predRef.marked && predRef.next == succs[l] && ref.next == succs[l] {
					if preds[l].next[l].CompareAndSwap(predRef, &slRef{next: node}) {
						s.env.WriteCommit(tid, preds[l].levelAddr(l))
						break
					}
				}
				if !s.find(tid, key, preds, succs) {
					// Node got deleted concurrently.
					s.env.EndOp(tid, true)
					return true
				}
				if succs[l] != node {
					ref2 := node.next[l].Load()
					if ref2.marked {
						break
					}
					if !node.next[l].CompareAndSwap(ref2, &slRef{next: succs[l]}) {
						continue
					}
					s.env.Write(tid, node.levelAddr(l))
				}
			}
		}
		s.env.EndOp(tid, true)
		return true
	}
}

// Delete removes key; it reports false if absent.
func (s *Skiplist) Delete(tid int, key uint64) bool {
	checkKey(key)
	preds := make([]*slNode, skipMaxHeight)
	succs := make([]*slNode, skipMaxHeight)
	if !s.find(tid, key, preds, succs) {
		s.env.EndOp(tid, false)
		return false
	}
	victim := succs[0]
	s.env.ReadCritical(tid, victim.addr)

	// Mark the index levels top-down.
	for l := victim.height - 1; l >= 1; l-- {
		for {
			ref := victim.next[l].Load()
			if ref.marked {
				break
			}
			if victim.next[l].CompareAndSwap(ref, &slRef{next: ref.next, marked: true}) {
				s.env.Write(tid, victim.levelAddr(l))
				break
			}
		}
	}
	// The bottom-level mark is the linearization point.
	for {
		ref := victim.next[0].Load()
		if ref.marked {
			s.env.EndOp(tid, false)
			return false // someone else deleted it
		}
		if victim.next[0].CompareAndSwap(ref, &slRef{next: ref.next, marked: true}) {
			s.env.WriteCommit(tid, victim.levelAddr(0))
			// Physically unlink via find.
			s.find(tid, key, preds, succs)
			s.env.EndOp(tid, true)
			return true
		}
	}
}

// Contains reports membership wait-free (no helping).
func (s *Skiplist) Contains(tid int, key uint64) bool {
	checkKey(key)
	pred := s.head
	var curr *slNode
	for level := skipMaxHeight - 1; level >= 0; level-- {
		s.env.ReadTraverse(tid, pred.levelAddr(level))
		curr = pred.next[level].Load().next
		for {
			s.env.ReadTraverse(tid, curr.levelAddr(level))
			ref := curr.next[level].Load()
			if ref.marked {
				curr = ref.next
				continue
			}
			if curr.key < key {
				pred = curr
				curr = ref.next
				continue
			}
			break
		}
	}
	s.env.ReadCritical(tid, curr.addr)
	found := curr.key == key && !curr.next[0].Load().marked
	s.env.EndOp(tid, false)
	return found
}
