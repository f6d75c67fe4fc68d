package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"skipit/internal/tilelink"
)

func testConfig() Config {
	return Config{LineBytes: 64, ReadLatency: 10, WriteLatency: 12, AcceptInterval: 2, MaxOutstanding: 4}
}

// filled returns a line with every byte set to b.
func filled(b byte) tilelink.Line {
	var l tilelink.Line
	for i := range l {
		l[i] = b
	}
	return l
}

func drain(t *testing.T, m *Memory, now *int64) []Response {
	t.Helper()
	var out []Response
	for deadline := *now + 1000; *now < deadline; *now++ {
		m.Tick(*now)
		for {
			r, ok := m.PollResponse()
			if !ok {
				break
			}
			out = append(out, r)
		}
		if m.Outstanding() == 0 {
			return out
		}
	}
	t.Fatal("memory did not drain")
	return nil
}

func TestWriteThenReadRoundTrip(t *testing.T) {
	m := New(testConfig())
	var line tilelink.Line
	for i := range line {
		line[i] = byte(i)
	}
	now := int64(0)
	if !m.Submit(now, Request{Kind: Write, Addr: 0x1000, Data: line, Tag: 1}) {
		t.Fatal("write rejected")
	}
	rs := drain(t, m, &now)
	if len(rs) != 1 || rs[0].Kind != Write || rs[0].Tag != 1 {
		t.Fatalf("write ack = %+v", rs)
	}
	if !m.Submit(now, Request{Kind: Read, Addr: 0x1000, Tag: 2}) {
		t.Fatal("read rejected")
	}
	rs = drain(t, m, &now)
	if len(rs) != 1 || rs[0].Data != line {
		t.Fatalf("read returned wrong data: %+v", rs)
	}
}

// TestSubmitRejectsReadWithPayload: a read carries no line, so a non-zero
// Data on a read is a caller bug, caught at submission.
func TestSubmitRejectsReadWithPayload(t *testing.T) {
	m := New(testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("read with a payload accepted")
		}
	}()
	m.Submit(0, Request{Kind: Read, Addr: 0, Data: filled(1)})
}

func TestReadLatencyHonored(t *testing.T) {
	m := New(testConfig())
	m.Submit(0, Request{Kind: Read, Addr: 0})
	for now := int64(0); now < 10; now++ {
		m.Tick(now)
		if _, ok := m.PollResponse(); ok {
			t.Fatalf("response at cycle %d, before ReadLatency", now)
		}
	}
	m.Tick(10)
	if _, ok := m.PollResponse(); !ok {
		t.Fatal("no response at ReadLatency")
	}
}

func TestAcceptIntervalThrottles(t *testing.T) {
	m := New(testConfig())
	if !m.Submit(0, Request{Kind: Read, Addr: 0}) {
		t.Fatal("first submit rejected")
	}
	if m.Submit(1, Request{Kind: Read, Addr: 64}) {
		t.Fatal("submit accepted inside AcceptInterval")
	}
	if !m.Submit(2, Request{Kind: Read, Addr: 64}) {
		t.Fatal("submit rejected after AcceptInterval")
	}
	if m.Stats().StalledSends != 1 {
		t.Fatalf("StalledSends = %d, want 1", m.Stats().StalledSends)
	}
}

func TestMaxOutstandingBounds(t *testing.T) {
	cfg := testConfig()
	cfg.AcceptInterval = 0
	m := New(cfg)
	for i := 0; i < cfg.MaxOutstanding; i++ {
		if !m.Submit(0, Request{Kind: Read, Addr: uint64(i) * 64}) {
			t.Fatalf("submit %d rejected below queue depth", i)
		}
	}
	if m.Submit(0, Request{Kind: Read, Addr: 0x10000}) {
		t.Fatal("submit accepted beyond MaxOutstanding")
	}
}

func TestUnackedWriteLostOnCrashWithoutADR(t *testing.T) {
	m := New(testConfig())
	line := filled(0xAB)
	m.Submit(0, Request{Kind: Write, Addr: 0, Data: line})
	m.Crash(false)
	if m.PeekLine(0)[0] != 0 {
		t.Fatal("unacknowledged write survived crash without ADR drain")
	}
	if m.Outstanding() != 0 {
		t.Fatal("controller not quiescent after crash")
	}
}

func TestUnackedWriteDrainsOnCrashWithADR(t *testing.T) {
	m := New(testConfig())
	line := filled(0xAB)
	m.Submit(0, Request{Kind: Write, Addr: 0, Data: line})
	m.Crash(true)
	if m.PeekLine(0)[0] != 0xAB {
		t.Fatal("accepted write lost despite ADR drain")
	}
}

func TestAckedWriteAlwaysSurvives(t *testing.T) {
	m := New(testConfig())
	line := filled(0xCD)
	now := int64(0)
	m.Submit(now, Request{Kind: Write, Addr: 64, Data: line})
	drain(t, m, &now)
	m.Crash(false)
	if m.PeekLine(64)[0] != 0xCD {
		t.Fatal("acknowledged write lost on crash")
	}
}

func TestPeekPokeUint64(t *testing.T) {
	m := New(testConfig())
	m.PokeUint64(0x2008, 0xDEADBEEFCAFE)
	if got := m.PeekUint64(0x2008); got != 0xDEADBEEFCAFE {
		t.Fatalf("PeekUint64 = %#x", got)
	}
	// Neighbors untouched.
	if got := m.PeekUint64(0x2000); got != 0 {
		t.Fatalf("neighbor clobbered: %#x", got)
	}
	line := m.PeekLine(0x2008)
	if line[8] != 0xFE {
		t.Fatalf("PeekLine misaligned view: % x", line[:16])
	}
}

func TestPokeLineRoundTrip(t *testing.T) {
	m := New(testConfig())
	line := filled(7)
	m.PokeLine(0x40, line)
	if m.PeekLine(0x40) != line {
		t.Fatal("PokeLine/PeekLine mismatch")
	}
}

// Property: every submitted request gets exactly one response with matching
// tag, never earlier than its latency, and final memory contents equal the
// last acknowledged write per line.
func TestMemoryCompletenessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := testConfig()
		m := New(cfg)
		type issued struct {
			req    Request
			sentAt int64
		}
		var sent []issued
		last := map[uint64]byte{}
		responses := 0
		now := int64(0)
		total := 20 + rng.Intn(40)
		for responses < total {
			if len(sent) < total && rng.Intn(2) == 0 {
				addr := uint64(rng.Intn(8)) * 64
				var req Request
				if rng.Intn(2) == 0 {
					b := byte(rng.Intn(256))
					req = Request{Kind: Write, Addr: addr, Data: filled(b), Tag: len(sent)}
				} else {
					req = Request{Kind: Read, Addr: addr, Tag: len(sent)}
				}
				if m.Submit(now, req) {
					sent = append(sent, issued{req, now})
					if req.Kind == Write {
						last[addr] = req.Data[0]
					}
				}
			}
			m.Tick(now)
			for {
				r, ok := m.PollResponse()
				if !ok {
					break
				}
				responses++
				in := sent[r.Tag]
				lat := cfg.ReadLatency
				if r.Kind == Write {
					lat = cfg.WriteLatency
				}
				if now < in.sentAt+int64(lat) {
					return false
				}
				if r.Kind != in.req.Kind || r.Addr != in.req.Addr {
					return false
				}
			}
			now++
			if now > 100_000 {
				return false
			}
		}
		for addr, b := range last {
			if m.PeekLine(addr)[0] != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
