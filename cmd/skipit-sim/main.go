// Command skipit-sim runs a writeback microbenchmark on the cycle-accurate
// SoC simulator and prints per-phase latencies and hardware statistics —
// the interactive counterpart of the Figure 9/13 harnesses.
//
// Usage:
//
//	skipit-sim [-cores N] [-size BYTES] [-op clean|flush] [-redundant K]
//	           [-skipit=true|false] [-trace] [-trace-format text|chrome]
//	           [-trace-out FILE] [-metrics FILE] [-sample-interval K]
//	           [-recorder N]
//	skipit-sim -file prog.s [-skipit=...] [-trace]
//
// With -file, the program is read from an assembly file (one instruction per
// line: sd/ld/cbo.clean/cbo.flush/cflush.d.l1/fence/nop; see isa.Parse) and
// run on a single core; per-instruction timings are printed.
//
// -metrics writes the system's aggregated telemetry snapshot (every
// counter, gauge and histogram, plus derived rates and sampled time
// series) as JSON. -trace-format=chrome writes the event trace in Chrome
// trace_event format, loadable in Perfetto.
//
// -recorder N arms a per-component flight recorder whose last-N-events dump
// rides along in hang reports. On SIGINT or SIGTERM, skipit-sim writes the
// Chrome trace buffered so far, dumps the recorder to stderr and exits 130.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"skipit/internal/isa"
	"skipit/internal/sim"
	"skipit/internal/trace"
)

func main() {
	cores := flag.Int("cores", 1, "number of simulated cores (threads)")
	size := flag.Uint64("size", 4096, "bytes of dirty data per run (split across cores)")
	op := flag.String("op", "flush", "writeback instruction: clean or flush")
	redundant := flag.Int("redundant", 0, "redundant CBO.X per line after the first")
	skipIt := flag.Bool("skipit", true, "enable the Skip It optimization")
	doTrace := flag.Bool("trace", false, "trace component events")
	traceFormat := flag.String("trace-format", "text", "trace output format: text or chrome (Perfetto-compatible)")
	traceOut := flag.String("trace-out", "", "trace output file (default stderr; chrome format writes on exit)")
	metricsOut := flag.String("metrics", "", "write the aggregated metrics snapshot as JSON to this file (- for stdout)")
	sampleInterval := flag.Int64("sample-interval", 0, "sample all counters into time series every K cycles (0 disables)")
	file := flag.String("file", "", "run an assembly file instead of the built-in sweep")
	recorderDepth := flag.Int("recorder", 0, "arm a flight recorder holding the last N events per component (0 disables)")
	flag.Parse()

	clean := false
	switch *op {
	case "clean":
		clean = true
	case "flush":
	default:
		log.Fatalf("unknown -op %q (want clean or flush)", *op)
	}

	cfg := sim.DefaultConfig(*cores)
	cfg.L1.Flush.SkipIt = *skipIt
	s := sim.New(cfg)
	if *recorderDepth > 0 {
		s.EnableFlightRecorder(*recorderDepth)
	}
	finishTrace := setupTracer(s, *doTrace, *traceFormat, *traceOut)
	defer finishTrace()
	sigC := make(chan os.Signal, 1)
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	go func() {
		flushOnSignal(os.Stderr, <-sigC, s, finishTrace)
		os.Exit(130)
	}()
	if *sampleInterval > 0 {
		s.EnableSampling(*sampleInterval)
	}
	defer writeMetrics(s, *metricsOut)

	if *file != "" {
		runFile(s, *file)
		return
	}

	const lineBytes = 64
	per := *size / uint64(*cores)
	if per < lineBytes {
		per = lineBytes
	}
	progs := make([]*isa.Program, *cores)
	start := make([]int, *cores)
	fence := make([]int, *cores)
	for t := 0; t < *cores; t++ {
		base := uint64(t) * (1 << 16)
		b := isa.NewBuilder().StoreRegion(base, per, lineBytes, 0xAB).Fence()
		start[t] = b.Mark()
		for a := base; a < base+per; a += lineBytes {
			b.Cbo(a, clean)
			for r := 0; r < *redundant; r++ {
				b.Cbo(a, clean)
			}
		}
		fence[t] = b.Mark()
		b.Fence()
		progs[t] = b.Build()
	}

	if _, err := s.Run(progs, 50_000_000); err != nil {
		log.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		log.Fatalf("invariant violation: %v", err)
	}

	var begin, end int64 = 1 << 62, 0
	for t := 0; t < *cores; t++ {
		tm := s.Cores[t].Timings()
		if is := tm[start[t]].IssuedAt; is < begin {
			begin = is
		}
		if c := tm[fence[t]].CompletedAt; c > end {
			end = c
		}
	}

	lines := per / lineBytes * uint64(*cores)
	fmt.Printf("cores=%d size=%dB lines=%d op=cbo.%s redundant=%d skipit=%v\n",
		*cores, per*uint64(*cores), lines, *op, *redundant, *skipIt)
	fmt.Printf("writeback-phase latency: %d cycles (%.1f cycles/line)\n",
		end-begin, float64(end-begin)/float64(lines))
	fmt.Println()
	for t := 0; t < *cores; t++ {
		fu := s.L1s[t].FlushUnit().Stats()
		d := s.L1s[t].Stats()
		fmt.Printf("l1[%d]: cbo offered=%d enqueued=%d skip-dropped=%d coalesced=%d "+
			"nacks(queue=%d fshr=%d) rootreleases=%d(with-data=%d) evictions=%d\n",
			t, fu.Offered, fu.Enqueued, fu.SkipDropped, fu.Coalesced,
			fu.NackQueueFull, fu.NackFSHRBusy, fu.RootReleases, fu.DataWritebacks, d.Writebacks)
	}
	l2 := s.L2.Stats()
	fmt.Printf("l2: acquires=%d rootreleases=%d trivially-skipped=%d probes=%d mem(r=%d w=%d)\n",
		l2.Acquires, l2.RootReleases, l2.RootReleaseSkips, l2.ProbesSent,
		l2.MemReads, l2.MemWrites)
	m := s.Mem.Stats()
	fmt.Printf("dram: reads=%d writes=%d stalled=%d\n", m.Reads, m.Writes, m.StalledSends)
	printHostStats(s)
}

// printHostStats reports the simulator's own throughput: how many cycles the
// next-event clock skipped.
func printHostStats(s *sim.System) {
	line := fmt.Sprintf("host: %d cycles simulated, %d fast-forwarded", s.Now(), s.SkippedCycles())
	if s.Now() > 0 {
		line += fmt.Sprintf(" (%.1f%%)", 100*float64(s.SkippedCycles())/float64(s.Now()))
	}
	fmt.Println(line)
}

// flushOnSignal is what an interrupted run does before it exits: a signal
// never reaches main's deferred cleanups, so it writes the Chrome trace
// buffered so far and dumps the flight recorder to w. It runs on the signal
// goroutine while the simulation may still be stepping; the tracer's and the
// recorder's locks make that safe.
func flushOnSignal(w io.Writer, sig os.Signal, s *sim.System, finishTrace func()) {
	fmt.Fprintf(w, "skipit-sim: %v: flushing trace and flight recorder\n", sig)
	finishTrace()
	if rec := s.FlightRecorder(); rec != nil {
		if b, err := json.MarshalIndent(rec.Dump(), "", "  "); err == nil {
			fmt.Fprintf(w, "flight recorder dump:\n%s\n", b)
		}
	}
}

// setupTracer attaches the requested tracer and returns a cleanup that
// flushes buffered formats. The cleanup is idempotent so both the defer and
// the signal handler may call it.
func setupTracer(s *sim.System, enabled bool, format, out string) func() {
	if !enabled {
		return func() {}
	}
	var w io.Writer = os.Stderr
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			log.Fatal(err)
		}
		w = f
	}
	switch format {
	case "text":
		s.SetTracer(trace.NewWriter(w))
		return func() {}
	case "chrome":
		ct := trace.NewChromeTracer(w)
		s.SetTracer(ct)
		var once sync.Once
		return func() {
			once.Do(func() {
				if err := ct.Close(); err != nil {
					log.Fatalf("writing chrome trace: %v", err)
				}
			})
		}
	default:
		log.Fatalf("unknown -trace-format %q (want text or chrome)", format)
		return nil
	}
}

// writeMetrics serializes the system snapshot when -metrics is given.
func writeMetrics(s *sim.System, path string) {
	if path == "" {
		return
	}
	var w io.Writer = os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.Snapshot()); err != nil {
		log.Fatalf("writing metrics: %v", err)
	}
}

// runFile assembles and runs a program file on core 0, printing per-
// instruction timings and the resulting NVMM view of every touched line.
func runFile(s *sim.System, path string) {
	src, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	prog, err := isa.Parse(string(src))
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	progs := make([]*isa.Program, len(s.Cores))
	progs[0] = prog
	if _, err := s.Run(progs, 50_000_000); err != nil {
		log.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		log.Fatalf("invariant violation: %v", err)
	}
	fmt.Printf("%-4s %-24s %8s %8s %8s %8s\n", "idx", "instr", "disp", "issue", "done", "commit")
	touched := map[uint64]bool{}
	for i, in := range prog.Instrs {
		tm := s.Cores[0].Timing(i)
		extra := ""
		if in.Op == isa.OpLoad {
			extra = fmt.Sprintf("  = %d", tm.LoadValue)
		}
		fmt.Printf("%-4d %-24v %8d %8d %8d %8d%s\n",
			i, in, tm.DispatchedAt, tm.IssuedAt, tm.CompletedAt, tm.CommittedAt, extra)
		if in.Op != isa.OpNop && in.Op != isa.OpFence {
			touched[in.Addr&^63] = true
		}
	}
	fmt.Println()
	for addr := range touched {
		fmt.Printf("NVMM[%#x] = %d\n", addr, s.Mem.PeekUint64(addr))
	}
}
