package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// epoch anchors every host timestamp the benchmark takes; now reads the
// monotonic clock as nanoseconds since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// Lanes are the Chrome trace threads spans render on. Sweep workers take the
// lanes from laneWorker0 up.
const (
	laneMain = iota
	laneSoC
	lanePersist
	laneWorker0
)

// span is one timed call: a workload phase, a unit (round, job, data
// structure operation) or a layer call, with host nanoseconds since epoch.
type span struct {
	name       string
	cat        string
	lane       int
	start, end int64
}

// spanRecorder keeps a traced run's spans in memory; writeChrome writes them
// once at exit. Workload and unit spans are always kept; past maxSpans
// layer-call and operation spans are only counted, so memory stays bounded
// however long the run. A nil recorder records nothing, which is how
// untraced runs call the same code.
type spanRecorder struct {
	mu       sync.Mutex
	spans    []span
	lanes    map[int]string
	maxSpans int
	kept     int // layer-call and operation spans kept
	dropped  int // layer-call and operation spans dropped
}

func newSpanRecorder(maxSpans int) *spanRecorder {
	return &spanRecorder{lanes: map[int]string{}, maxSpans: maxSpans}
}

func (r *spanRecorder) add(name, cat string, lane int, start, end int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if capped := cat == "layer" || cat == "op"; capped {
		if r.kept >= r.maxSpans {
			r.dropped++
			return
		}
		r.kept++
	}
	r.spans = append(r.spans, span{name: name, cat: cat, lane: lane, start: start, end: end})
}

// nameLane labels a lane in the trace viewer.
func (r *spanRecorder) nameLane(lane int, name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lanes[lane] = name
}

// chromeEvent is one Chrome trace_event record: "X" complete events for
// spans, "M" metadata for lane names. ts and dur are microseconds.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace_event document, which
// Perfetto (ui.perfetto.dev) and chrome://tracing open.
func (r *spanRecorder) writeChrome(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lanes []int
	for l := range r.lanes {
		lanes = append(lanes, l)
	}
	sort.Ints(lanes)
	events := make([]chromeEvent, 0, len(lanes)+len(r.spans))
	for _, l := range lanes {
		events = append(events, chromeEvent{Name: "thread_name", Phase: "M", TID: l,
			Args: map[string]any{"name": r.lanes[l]}})
	}
	for _, s := range r.spans {
		events = append(events, chromeEvent{Name: s.name, Cat: s.cat, Phase: "X", TID: s.lane,
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3})
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
		Dropped         int           `json:"droppedSpans"`
	}{events, "ms", r.dropped}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// interval is a half-open host-time interval [start, end).
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap one another and may stick out of the parent; each
// instant of the parent counts at most once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}
