package sim

import (
	"testing"

	"skipit/internal/isa"
	"skipit/internal/tilelink"
)

// fixedEvent is an eventSource that always reports the same cycle.
type fixedEvent int64

func (f fixedEvent) NextEvent(last int64) int64 { return int64(f) }

// countingEvent records how many times it was queried, to prove the fold
// bails out at the floor.
type countingEvent struct {
	at    int64
	calls int
}

func (c *countingEvent) NextEvent(last int64) int64 {
	c.calls++
	return c.at
}

// foldChain folds srcs one foldNext at a time, as tileNext and hubNext do.
func foldChain[T eventSource](last, next int64, srcs []T) int64 {
	for _, s := range srcs {
		next = foldNext(last, next, s)
	}
	return next
}

func TestFoldChain(t *testing.T) {
	cases := []struct {
		name string
		last int64
		next int64
		srcs []fixedEvent
		want int64
	}{
		{"empty slice keeps seed", 10, tilelink.NoEvent, nil, tilelink.NoEvent},
		{"single later event", 10, tilelink.NoEvent, []fixedEvent{42}, 42},
		{"minimum wins", 10, tilelink.NoEvent, []fixedEvent{42, 20, 99}, 20},
		{"seed below all events wins", 10, 15, []fixedEvent{42, 20}, 15},
		{"event below seed wins", 10, 50, []fixedEvent{42}, 42},
		{"floor report clamps to floor", 10, tilelink.NoEvent, []fixedEvent{11}, 11},
		{"below-floor report clamps to floor", 10, tilelink.NoEvent, []fixedEvent{3}, 11},
		{"seed at floor returns floor", 10, 11, []fixedEvent{99}, 11},
		{"seed below floor clamps up", 10, 5, []fixedEvent{99}, 11},
		{"all idle stays NoEvent", 10, tilelink.NoEvent, []fixedEvent{fixedEvent(tilelink.NoEvent), fixedEvent(tilelink.NoEvent)}, tilelink.NoEvent},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := foldChain(tc.last, tc.next, tc.srcs); got != tc.want {
				t.Fatalf("fold(last=%d, next=%d, %v) = %d, want %d",
					tc.last, tc.next, tc.srcs, got, tc.want)
			}
		})
	}
}

func TestFoldNextSingle(t *testing.T) {
	cases := []struct {
		name string
		last int64
		next int64
		src  fixedEvent
		want int64
	}{
		{"later event lowers", 0, tilelink.NoEvent, 7, 7},
		{"seed wins", 0, 5, 7, 5},
		{"floor clamps", 0, tilelink.NoEvent, 1, 1},
		{"below-floor clamps", 0, tilelink.NoEvent, -3, 1},
		{"seed at floor short-circuits", 0, 1, 99, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := foldNext(tc.last, tc.next, tc.src); got != tc.want {
				t.Fatalf("foldNext(last=%d, next=%d, src=%d) = %d, want %d",
					tc.last, tc.next, tc.src, got, tc.want)
			}
		})
	}
}

func TestFoldBailsAtFloor(t *testing.T) {
	// Once a source reports at or below the floor, the rest of the chain
	// must not be queried.
	early := &countingEvent{at: 11} // floor for last=10
	late := &countingEvent{at: 99}
	got := foldChain(10, tilelink.NoEvent, []*countingEvent{early, late})
	if got != 11 {
		t.Fatalf("fold = %d, want floor 11", got)
	}
	if late.calls != 0 {
		t.Fatalf("fold queried a source after reaching the floor (%d calls)", late.calls)
	}
	if foldNext(10, got, late) != 11 || late.calls != 0 {
		t.Fatalf("chained foldNext at floor queried its source")
	}
}

// TestWakesMatchSystem pins the part wakes to the fold on a live system: an
// idle multi-core SoC has no wake at all, and a busy one wakes at the floor.
func TestWakesMatchSystem(t *testing.T) {
	s := New(DefaultConfig(2))
	s.Step() // the first step ticks every part and refreshes every wake
	// Freshly built and empty: nothing can act, so no part has a wake.
	if got := s.nextWake(); got < tilelink.NoEvent {
		t.Fatalf("idle system nextWake = %d, want >= NoEvent", got)
	}
	for i := range s.Cores {
		if got := s.tileNext(i, s.Now()-1); got < tilelink.NoEvent {
			t.Fatalf("idle tile %d wake = %d, want >= NoEvent", i, got)
		}
	}
	if got := s.hubNext(s.Now() - 1); got < tilelink.NoEvent {
		t.Fatalf("idle hub wake = %d, want >= NoEvent", got)
	}
	s.Cores[0].SetProgram(isa.NewBuilder().Load(0x100).Build())
	s.Step()
	if got, want := s.nextWake(), s.Now(); got != want {
		t.Fatalf("busy system nextWake = %d, want floor %d", got, want)
	}
	if got := s.tileWake[1]; got < tilelink.NoEvent {
		t.Fatalf("idle tile 1 beside a busy tile 0 wakes at %d, want >= NoEvent", got)
	}
}
