// Package introspect is the live debugging server for a running simulation:
// an opt-in HTTP endpoint (skipit-sim -http, skipit-bench -http) that exposes
// the SoC's telemetry while a run is in flight, without perturbing it.
//
// Endpoints:
//
//	/          index with endpoint listing
//	/metrics   last published snapshot in Prometheus text exposition format
//	/snapshot  last published snapshot as JSON (sim.System.Snapshot shape)
//	/trace     Chrome trace_event JSON of the attached tracer, loadable in
//	           Perfetto mid-run (the document so far; the run keeps going)
//	/recorder  flight-recorder dump of the attached recorder (last N events
//	           per component)
//	/events    Server-Sent Events stream of progress updates: snapshot
//	           headlines (cycle, throughput, fast-forward ratio) and sweep
//	           job state transitions
//
// The server never reads simulator state on its own: the simulation
// goroutine publishes rendered snapshots at its own pace (via
// sim.System.SetProgressHook or the bench harness's sweep progress
// callback), and HTTP handlers serve the latest published bytes from an
// atomic cell. The only cross-goroutine reads are the Chrome tracer's and
// flight recorder's own internally synchronized snapshots. A simulation
// without a server attached publishes nothing and pays nothing.
package introspect

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"skipit/internal/metrics"
	"skipit/internal/trace"
)

// Server is one live introspection endpoint. Construct with New.
type Server struct {
	ln  net.Listener
	srv *http.Server

	// snapJSON and promText hold the latest published snapshot, rendered
	// once at publish time on the publisher's goroutine.
	snapJSON atomic.Value // []byte
	promText atomic.Value // []byte

	mu     sync.Mutex
	tracer *trace.ChromeTracer
	rec    *trace.Recorder
	subs   map[chan []byte]struct{}
	closed bool
}

// New starts a server listening on addr ("localhost:6060", ":0" for an
// ephemeral port). The returned server is already serving; call Addr for the
// bound address and Close to stop.
func New(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("introspect: %w", err)
	}
	s := &Server{ln: ln, subs: make(map[chan []byte]struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/recorder", s.handleRecorder)
	mux.HandleFunc("/events", s.handleEvents)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return s, nil
}

// Addr returns the bound listen address ("127.0.0.1:6060").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// AttachChromeTrace makes the tracer's in-progress document available at
// /trace. The tracer stays owned by the caller (and its Close still writes
// the final file).
func (s *Server) AttachChromeTrace(t *trace.ChromeTracer) {
	s.mu.Lock()
	s.tracer = t
	s.mu.Unlock()
}

// AttachRecorder makes the flight recorder's rings available at /recorder.
func (s *Server) AttachRecorder(r *trace.Recorder) {
	s.mu.Lock()
	s.rec = r
	s.mu.Unlock()
}

// PublishSnapshot renders and installs a new snapshot for /metrics and
// /snapshot, and pushes a headline event (cycle, host throughput,
// fast-forward ratio) to /events subscribers. Call it from the goroutine
// that owns the snapshot — typically a sim progress hook.
func (s *Server) PublishSnapshot(snap metrics.Snapshot) {
	if b, err := json.Marshal(snap); err == nil {
		s.snapJSON.Store(b)
	}
	var prom jsonBuffer
	if err := snap.WritePrometheus(&prom); err == nil {
		s.promText.Store(prom.b)
	}
	headline := map[string]any{"cycle": snap.Cycle}
	for _, k := range []string{"host_sim_cycles_per_sec", "ff_skipped_cycle_ratio"} {
		if v, ok := snap.Derived[k]; ok {
			headline[k] = v
		}
	}
	s.PublishEvent("snapshot", headline)
}

// PublishEvent pushes one named SSE event to every /events subscriber.
// Slow subscribers drop events rather than stall the publisher. Safe for
// concurrent use (sweep workers publish job transitions concurrently).
func (s *Server) PublishEvent(event string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	frame := []byte(fmt.Sprintf("event: %s\ndata: %s\n\n", event, data))
	s.mu.Lock()
	for ch := range s.subs {
		select {
		case ch <- frame:
		default: // subscriber lagging; drop
		}
	}
	s.mu.Unlock()
}

// Close stops the listener and disconnects every /events subscriber.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for ch := range s.subs {
		close(ch)
	}
	s.subs = map[chan []byte]struct{}{}
	s.mu.Unlock()
	return s.srv.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `skipit introspection server
/metrics   Prometheus text exposition of the latest snapshot
/snapshot  latest metrics snapshot as JSON
/trace     Chrome trace_event document so far (open in Perfetto)
/recorder  flight-recorder dump (last N events per component)
/events    SSE progress stream
`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	b, _ := s.promText.Load().([]byte)
	if b == nil {
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(b)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	b, _ := s.snapJSON.Load().([]byte)
	if b == nil {
		http.Error(w, "no snapshot published yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	t := s.tracer
	s.mu.Unlock()
	if t == nil {
		http.Error(w, "no chrome tracer attached (run with -trace -trace-format=chrome)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="skipit-trace.json"`)
	t.WriteSnapshot(w) //nolint:errcheck // client disconnects are not actionable
}

func (s *Server) handleRecorder(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	rec := s.rec
	s.mu.Unlock()
	if rec == nil {
		http.Error(w, "no flight recorder armed", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rec.Dump()) //nolint:errcheck // client disconnects are not actionable
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch := make(chan []byte, 64)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		http.Error(w, "server closing", http.StatusServiceUnavailable)
		return
	}
	s.subs[ch] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		if _, live := s.subs[ch]; live {
			delete(s.subs, ch)
		}
		s.mu.Unlock()
	}()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": connected\n\n")
	fl.Flush()
	for {
		select {
		case frame, ok := <-ch:
			if !ok {
				return
			}
			if _, err := w.Write(frame); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// jsonBuffer is a minimal io.Writer accumulating into a byte slice (avoiding
// a bytes.Buffer whose backing array would be shared after Store).
type jsonBuffer struct{ b []byte }

func (j *jsonBuffer) Write(p []byte) (int, error) {
	j.b = append(j.b, p...)
	return len(p), nil
}
