package sweep

import (
	"reflect"
	"strings"
	"testing"

	"skipit/internal/mem"
	"skipit/internal/sim"
)

func rec(name, fp string, cycles float64) Record {
	return Record{Name: name, Fingerprint: fp, Cycles: cycles, Reps: 1}
}

func TestCompareClassifiesDeltas(t *testing.T) {
	relabelled := func(threads float64) Record {
		r := rec("relabelled", "f", 100)
		r.Derived = map[string]float64{"threads": threads}
		return r
	}
	baseline := []Record{
		rec("ok", "f", 100),
		rec("slow", "f", 100),
		rec("fast", "f", 100),
		rec("drift", "f1", 100),
		rec("gone", "f", 100),
		relabelled(8),
	}
	current := []Record{
		rec("ok", "f", 105),
		rec("slow", "f", 125),
		rec("fast", "f", 70),
		rec("drift", "f2", 100),
		rec("fresh", "f", 10),
		relabelled(1),
	}
	cmp := Compare(baseline, current, 10)
	want := map[string]Status{
		"ok": StatusOK, "slow": StatusRegression, "fast": StatusImproved,
		"drift": StatusMismatch, "gone": StatusMissing, "fresh": StatusNew,
		"relabelled": StatusDerived,
	}
	got := map[string]Status{}
	for _, d := range cmp.Deltas {
		got[d.Name] = d.Status
	}
	for name, status := range want {
		if got[name] != status {
			t.Errorf("%s: got %q, want %q", name, got[name], status)
		}
	}
	if cmp.OK() {
		t.Fatal("gate passed despite a regression, an improvement and a mismatch")
	}
	if cmp.Regressions != 1 || cmp.Mismatches != 1 || cmp.Improved != 1 || cmp.Derived != 1 || cmp.New != 1 || cmp.Missing != 1 {
		t.Fatalf("counts = %+v", cmp)
	}
	out := cmp.String()
	for _, frag := range []string{"REGRESSION", "MISMATCH", "slow", "+25.0%", "DERIVED", "threads: 8 -> 1", "1 ok,"} {
		if !strings.Contains(out, frag) {
			t.Errorf("summary missing %q:\n%s", frag, out)
		}
	}
}

func TestComparePassesWithinTolerance(t *testing.T) {
	baseline := []Record{rec("a", "f", 1000), rec("b", "f", 2000)}
	current := []Record{rec("a", "f", 1050), rec("b", "f", 1900)}
	if cmp := Compare(baseline, current, 10); !cmp.OK() {
		t.Fatalf("gate failed within tolerance: %s", cmp)
	}
	// Missing points (a gate targeting -fig subsets) never fail the gate.
	if cmp := Compare(baseline, current[:1], 10); !cmp.OK() || cmp.Missing != 1 {
		t.Fatalf("subset gating broken: %+v", cmp)
	}
}

// A record below the tolerance band fails the gate as surely as one above
// it: a dropped writeback reads as a speedup, so only an unchanged cycle
// count passes.
func TestGateFailsOnImprovement(t *testing.T) {
	baseline := []Record{rec("a", "f", 1000), rec("b", "f", 2000)}
	faster := []Record{rec("a", "f", 1000), rec("b", "f", 1700)}
	if cmp := Compare(baseline, faster, 10); cmp.OK() || cmp.Improved != 1 {
		t.Fatalf("15%% speedup passed a 10%% gate: %+v", cmp)
	}
	// At tolerance 0, as CI runs it, one cycle fewer fails.
	oneLess := []Record{rec("a", "f", 999), rec("b", "f", 2000)}
	cmp := Compare(baseline, oneLess, 0)
	if cmp.OK() || cmp.Improved != 1 {
		t.Fatalf("one-cycle speedup passed the tolerance-0 gate: %+v", cmp)
	}
	if !strings.Contains(cmp.String(), "IMPROVED") {
		t.Errorf("summary does not name the improved point:\n%s", cmp)
	}
}

// Figures 11 and 12 share point names and differ only by group: Compare
// matches records by group-qualified name, so one figure's point is never
// checked against the other's baseline.
func TestCompareKeysByGroup(t *testing.T) {
	grouped := func(group string, cycles float64) Record {
		r := rec("hash/skipit", "f", cycles)
		r.Group = group
		return r
	}
	baseline := []Record{grouped("fig11", 100), grouped("fig12", 200)}
	if cmp := Compare(baseline, baseline, 0); !cmp.OK() || len(cmp.Deltas) != 2 {
		t.Fatalf("identical run failed the gate: %s", cmp)
	}
	swapped := []Record{grouped("fig11", 200), grouped("fig12", 100)}
	cmp := Compare(baseline, swapped, 0)
	if cmp.OK() || cmp.Regressions != 1 || cmp.Improved != 1 {
		t.Fatalf("swapped groups: %+v", cmp)
	}
	got := map[string]Status{}
	for _, d := range cmp.Deltas {
		got[d.Name] = d.Status
	}
	want := map[string]Status{"fig11/hash/skipit": StatusRegression, "fig12/hash/skipit": StatusImproved}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("deltas %v, want %v", got, want)
	}
}

// The acceptance check in ISSUE 2: artificially inflating a latency constant
// must fail the gate. The constant lives in the fingerprinted config, so the
// failure arrives as a fingerprint mismatch — the stored baseline no longer
// describes the measured machine.
func TestGateCatchesInflatedLatencyConstant(t *testing.T) {
	point := func(memCfg mem.Config) Record {
		cfg := sim.DefaultConfig(1)
		cfg.Mem = memCfg
		return rec("fig09/flush/size64/threads1", Fingerprint("fig9", cfg), 100)
	}
	baseline := []Record{point(mem.DefaultConfig())}
	inflated := mem.DefaultConfig()
	inflated.ReadLatency *= 3
	cmp := Compare(baseline, []Record{point(inflated)}, 10)
	if cmp.OK() || cmp.Mismatches != 1 {
		t.Fatalf("inflated latency constant passed the gate: %+v", cmp)
	}
	// And a pure behavioral slowdown (same config, more cycles) fails too.
	slower := point(mem.DefaultConfig())
	slower.Cycles = 200
	if cmp := Compare(baseline, []Record{slower}, 10); cmp.OK() || cmp.Regressions != 1 {
		t.Fatalf("2x cycle regression passed the gate: %+v", cmp)
	}
}

// A record whose cycles match still fails the gate when its derived metrics
// changed: Figs. 14–16 plot Derived["mops"]. A key added, a key dropped and
// a value moved beyond the tolerance each fail, and the report names the
// key; a move within the tolerance passes.
func TestCompareFailsOnDerivedChange(t *testing.T) {
	withDerived := func(derived map[string]float64) Record {
		r := rec("fig14/bst/automatic/skipit", "f", 100)
		r.Derived = derived
		return r
	}
	baseline := []Record{withDerived(map[string]float64{"mops": 2, "threads": 8})}
	for name, tc := range map[string]struct {
		derived map[string]float64
		tol     float64
		key     string
	}{
		"moved":          {map[string]float64{"mops": 2, "threads": 1}, 0, "threads: 8 -> 1"},
		"moved past 10%": {map[string]float64{"mops": 2.5, "threads": 8}, 10, "mops: 2 -> 2.5"},
		"added":          {map[string]float64{"mops": 2, "threads": 8, "elided": 3}, 0, "elided: none -> 3"},
		"dropped":        {map[string]float64{"threads": 8}, 0, "mops: 2 -> none"},
		"all gone":       {nil, 0, "mops: 2 -> none"},
	} {
		cmp := Compare(baseline, []Record{withDerived(tc.derived)}, tc.tol)
		if cmp.OK() || cmp.Deltas[0].Status == StatusOK {
			t.Errorf("%s: derived change passed the gate: %s", name, cmp)
		}
		if !strings.Contains(cmp.String(), tc.key) {
			t.Errorf("%s: report does not name %q:\n%s", name, tc.key, cmp)
		}
	}
	within := []Record{withDerived(map[string]float64{"mops": 2.1, "threads": 8})}
	if cmp := Compare(baseline, within, 10); !cmp.OK() {
		t.Errorf("a 5%% derived move failed a 10%% gate: %s", cmp)
	}
}
