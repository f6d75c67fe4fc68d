package tlctest

import (
	"encoding/json"
	"testing"
)

func TestEpisodeSmoke(t *testing.T) {
	script, fail, st := Run(DefaultParams(1))
	if fail != nil {
		t.Fatalf("episode failed: %s (cycle %d)", fail.Message, fail.Cycle)
	}
	if st.Acquires == 0 || st.Grants == 0 {
		t.Fatalf("episode generated no coherence traffic: %+v", st)
	}
	if len(script.Ops) != DefaultParams(1).Agents*DefaultParams(1).OpsPerAgent {
		t.Fatalf("script has %d ops", len(script.Ops))
	}
}

// verdict flattens an episode result for byte comparison.
func verdict(t *testing.T, fail *Failure, st Stats) string {
	t.Helper()
	raw, err := json.Marshal(struct {
		Fail  *Failure `json:"fail"`
		Stats Stats    `json:"stats"`
	}{fail, st})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func TestEpisodeDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 77, 20260808} {
		p := DefaultParams(seed)
		s1 := BuildScript(p)
		s2 := BuildScript(p)
		b1, _ := json.Marshal(s1)
		b2, _ := json.Marshal(s2)
		if string(b1) != string(b2) {
			t.Fatalf("seed %d: script expansion is not deterministic", seed)
		}
		f1, st1 := RunScript(s1)
		f2, st2 := RunScript(s2)
		if v1, v2 := verdict(t, f1, st1), verdict(t, f2, st2); v1 != v2 {
			t.Fatalf("seed %d: verdict drifted between identical runs:\n%s\n%s", seed, v1, v2)
		}
	}
}

func TestEpisodeSweep(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	for seed := int64(0); seed < int64(n); seed++ {
		_, fail, st := Run(DefaultParams(seed))
		if fail != nil {
			t.Fatalf("seed %d failed: %s (cycle %d)", seed, fail.Message, fail.Cycle)
		}
		if st.Cycles == 0 {
			t.Fatalf("seed %d: episode ran zero cycles", seed)
		}
	}
}

// TestEpisodeMoreAgents exercises the harness above the default agent count:
// contention grows superlinearly with the fleet.
func TestEpisodeMoreAgents(t *testing.T) {
	p := DefaultParams(9)
	p.Agents = 5
	p.OpsPerAgent = 16
	_, fail, st := Run(p)
	if fail != nil {
		t.Fatalf("5-agent episode failed: %s (cycle %d)", fail.Message, fail.Cycle)
	}
	if st.ProbesAnswered == 0 {
		t.Fatalf("5 agents over 6 addresses produced no probe traffic: %+v", st)
	}
}

// TestEpisodeNoFaults pins the chaos-free path: the schedule composition is
// optional, not load-bearing for the harness itself.
func TestEpisodeNoFaults(t *testing.T) {
	p := DefaultParams(11)
	p.Faults = 0
	_, fail, _ := Run(p)
	if fail != nil {
		t.Fatalf("fault-free episode failed: %s", fail.Message)
	}
}

// TestFastForwardEquivalence: the next-event clock skips only no-op cycles,
// so every episode reaches the same verdict and the same stats with it on
// or off; only the skipped-cycle odometer differs. In particular the clock
// must not jump ahead once the episode has ended, which would inflate the
// final cycle count.
func TestFastForwardEquivalence(t *testing.T) {
	skipped := uint64(0)
	for seed := int64(1); seed <= 200; seed++ {
		s := BuildScript(DefaultParams(seed))
		failFF, stFF := runScript(s, true, nil)
		failSlow, stSlow := runScript(s, false, nil)
		if stSlow.Skipped != 0 {
			t.Fatalf("seed %d: clock off skipped %d cycles", seed, stSlow.Skipped)
		}
		skipped += stFF.Skipped
		stFF.Skipped = 0
		if v1, v2 := verdict(t, failFF, stFF), verdict(t, failSlow, stSlow); v1 != v2 {
			t.Fatalf("seed %d: fast-forward changed the episode:\nff:   %s\nslow: %s", seed, v1, v2)
		}
	}
	if skipped == 0 {
		t.Fatal("the clock never skipped a cycle in 200 episodes")
	}
}
