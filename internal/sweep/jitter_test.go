package sweep

import (
	"testing"

	"skipit/internal/detrand"
	"skipit/internal/sim"
)

// jitteredConfig derives a config variant from one child of a split seed
// stream: every knob perturbation draws from its own child, following the
// detrand discipline the chaos fuzzer and the tlctest harness use.
func jitteredConfig(seed int64) sim.Config {
	rng := detrand.New(seed)
	cfg := sim.DefaultConfig(1 + rng.Intn(4))
	knobs := detrand.Split(rng)
	cfg.L1.NumMSHRs = 1 + knobs.Intn(8)
	cfg.L2.NumMSHRs = 1 + knobs.Intn(16)
	cfg.Mem.ReadLatency = 20 + knobs.Intn(100)
	return cfg
}

// TestFingerprintJitterDistinct checks that seed-jittered job configurations
// fingerprint distinctly: a sweep over split seeds can never silently collapse
// two different configurations into one gated record.
func TestFingerprintJitterDistinct(t *testing.T) {
	root := detrand.New(20260808)
	seen := map[string]int64{}
	for i := 0; i < 64; i++ {
		seed := detrand.SplitSeed(root)
		fp := Fingerprint("jitter", jitteredConfig(seed), seed)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("seeds %d and %d produced the same fingerprint %s", prev, seed, fp)
		}
		seen[fp] = seed
	}
}

// TestFingerprintJitterStable checks the other direction: replaying the same
// split chain yields byte-identical fingerprints, so a re-run sweep matches
// its baseline instead of reporting a mismatch.
func TestFingerprintJitterStable(t *testing.T) {
	run := func() []string {
		root := detrand.New(42)
		var fps []string
		for i := 0; i < 16; i++ {
			seed := detrand.SplitSeed(root)
			fps = append(fps, Fingerprint("jitter", jitteredConfig(seed), seed))
		}
		return fps
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fingerprint %d drifted between identical split chains: %s != %s", i, a[i], b[i])
		}
	}
}
