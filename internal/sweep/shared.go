package sweep

import "sync"

// Shared is set-up work that several jobs of one run would each repeat
// otherwise, such as the warm cache state a §7.4 prefill leaves behind. The
// distinct-fingerprint jobs that name one Shared in Job.Shared form its
// group: Runner.Run runs them back to back on one worker, and the group's
// first Take builds the value once for all of them.
//
// Every Take of the group but the last gets a copy, made under the Shared's
// lock, and the last gets the original, so a group of n jobs builds one
// value and makes n-1 copies. The Runner drops the value when the group
// ends, so nothing built in one run reaches the next. Outside a Runner,
// Take only calls build, and a nil *Shared is a Shared outside any Runner.
// A Shared serves one Run at a time.
type Shared struct {
	mu    sync.Mutex
	left  int // Takes left in the running group; 0 outside a Runner
	made  bool
	value any
}

// Take returns the calling job's value from s: the one build returns, or a
// copy of it that clone returns, which must share no mutable state with its
// argument. A job calls Take once, from its own Run, on its own Job.Shared.
// Within a group, build and clone run under s's lock, so a copy never
// overlaps another taker's use of the original; neither may call Take on s.
// If build panics, the group's next Take builds the value instead.
func Take[T any](s *Shared, build func() T, clone func(T) T) T {
	if s == nil {
		return build()
	}
	s.mu.Lock()
	if s.left == 0 {
		s.mu.Unlock()
		return build()
	}
	defer s.mu.Unlock()
	s.left--
	if !s.made {
		s.value = build()
		s.made = true
	}
	v := s.value.(T)
	if s.left > 0 {
		return clone(v)
	}
	s.value, s.made = nil, false
	return v
}

// begin arms s for a group of takers Takes.
func (s *Shared) begin(takers int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.left, s.made, s.value = takers, false, nil
}

// drop releases s's value and ends its group.
func (s *Shared) drop() { s.begin(0) }
