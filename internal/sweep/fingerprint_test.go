package sweep

import (
	"testing"

	"skipit/internal/sim"
)

// Golden fingerprint over a fixed literal: catches accidental changes to the
// hashing scheme itself (serialization, digest, truncation). Unlike hashes
// over real configs — which legitimately change when config structs grow —
// this value must only change with a deliberate algorithm change.
func TestFingerprintGolden(t *testing.T) {
	type fixed struct {
		A int
		B string
		C bool
	}
	got := Fingerprint(fixed{A: 7, B: "x", C: true}, map[string]int{"k": 1})
	const want = "2770330a70822f00"
	if got != want {
		t.Fatalf("golden fingerprint drifted: got %s, want %s\n"+
			"(if the hashing scheme changed on purpose, bump SchemaVersion and update this golden)", got, want)
	}
}

func TestFingerprintStableAcrossCalls(t *testing.T) {
	mk := func() sim.Config { return sim.DefaultConfig(4) }
	a := Fingerprint("fig9", mk(), map[string]any{"size": 4096, "reps": 5})
	b := Fingerprint("fig9", mk(), map[string]any{"size": 4096, "reps": 5})
	if a != b {
		t.Fatalf("identical configs hashed differently: %s vs %s", a, b)
	}
}

// Every sweep-relevant knob must perturb the hash: cores, FSHR count,
// coalescing, Skip It, and a raw latency constant (so the gate catches an
// artificially inflated timing model via fingerprint mismatch).
func TestFingerprintSensitivity(t *testing.T) {
	base := Fingerprint(sim.DefaultConfig(1))
	mutations := map[string]func(*sim.Config){
		"cores":       func(c *sim.Config) { c.NumCores = 2 },
		"fshr-count":  func(c *sim.Config) { c.L1.Flush.NumFSHRs = 4 },
		"coalescing":  func(c *sim.Config) { c.L1.Flush.Coalescing = false },
		"skip-it":     func(c *sim.Config) { c.L1.Flush.SkipIt = false },
		"mem-latency": func(c *sim.Config) { c.Mem.ReadLatency = 120 },
	}
	seen := map[string]string{"base": base}
	for name, mutate := range mutations {
		cfg := sim.DefaultConfig(1)
		mutate(&cfg)
		fp := Fingerprint(cfg)
		for prev, prevFP := range seen {
			if fp == prevFP {
				t.Errorf("mutation %q collided with %q: %s", name, prev, fp)
			}
		}
		seen[name] = fp
	}
}

func TestFingerprintOrderAndArityMatter(t *testing.T) {
	if Fingerprint("a", "b") == Fingerprint("b", "a") {
		t.Fatal("part order ignored")
	}
	if Fingerprint("a") == Fingerprint("a", "") {
		t.Fatal("arity ignored")
	}
}
