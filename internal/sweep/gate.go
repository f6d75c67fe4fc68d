package sweep

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"skipit/internal/stats"
)

// Status classifies one baseline-vs-current delta.
type Status string

const (
	// StatusOK: within tolerance.
	StatusOK Status = "ok"
	// StatusRegression: current cycles exceed baseline beyond tolerance.
	StatusRegression Status = "regression"
	// StatusImproved: current cycles undercut baseline beyond tolerance.
	// The gate fails: fewer simulated cycles is a changed result too (a
	// dropped writeback reads as a speedup), and an intentional change
	// must refresh the baseline.
	StatusImproved Status = "improved"
	// StatusMismatch: the fingerprints differ — the configuration (or the
	// schema) changed, so the cycle counts are not comparable. The gate
	// fails: an intentional perf change must refresh the baseline.
	StatusMismatch Status = "mismatch"
	// StatusDerived: the cycles pass, but a derived metric was added,
	// dropped, or moved beyond tolerance. The gate fails: Figs. 14–16 plot
	// Derived["mops"], and a changed flush or elision count is a changed
	// result too.
	StatusDerived Status = "derived"
	// StatusNew: present only in the current run.
	StatusNew Status = "new"
	// StatusMissing: present only in the baseline (e.g. the gate targeted a
	// figure subset with -fig). Reported, not fatal.
	StatusMissing Status = "missing"
)

// Delta is one row of the gate's comparison table.
type Delta struct {
	Name     string
	Base     float64
	Current  float64
	DeltaPct float64
	Status   Status
	// Derived names, on a StatusDerived row, the first derived metric that
	// differs and its two values ("threads: 8 -> 1").
	Derived string
}

// Comparison is the regression gate's verdict over a whole sweep.
type Comparison struct {
	TolerancePct float64
	Deltas       []Delta
	Regressions  int
	Mismatches   int
	Improved     int
	Derived      int
	New          int
	Missing      int
}

// key is a record's sweep-wide identity: figure points in different groups
// may share a point name (fig11 and fig12 differ only by thread count).
func key(r Record) string {
	if r.Group == "" {
		return r.Name
	}
	return r.Group + "/" + r.Name
}

// Compare builds the delta table between a baseline and the current records,
// matching by group-qualified record name. Cycle counts compare only under
// identical fingerprints; a fingerprint mismatch is its own failure mode
// (the baseline describes a different configuration). A regression is a
// cycle-count increase beyond tolerancePct percent, an improvement a
// decrease beyond it. A record whose cycles pass still fails when a derived
// metric was added, dropped, or moved by more than tolerancePct percent.
func Compare(baseline, current []Record, tolerancePct float64) Comparison {
	cmp := Comparison{TolerancePct: tolerancePct}
	base := make(map[string]Record, len(baseline))
	for _, r := range baseline {
		base[key(r)] = r
	}
	seen := make(map[string]bool, len(current))
	for _, cur := range current {
		seen[key(cur)] = true
		b, ok := base[key(cur)]
		if !ok {
			cmp.New++
			cmp.Deltas = append(cmp.Deltas, Delta{Name: key(cur), Current: cur.Cycles, Status: StatusNew})
			continue
		}
		d := Delta{Name: key(cur), Base: b.Cycles, Current: cur.Cycles,
			DeltaPct: stats.PctDelta(b.Cycles, cur.Cycles)}
		switch {
		case b.Fingerprint != cur.Fingerprint:
			d.Status = StatusMismatch
			cmp.Mismatches++
		case d.DeltaPct > tolerancePct:
			d.Status = StatusRegression
			cmp.Regressions++
		case d.DeltaPct < -tolerancePct:
			d.Status = StatusImproved
			cmp.Improved++
		default:
			d.Derived = derivedDiff(b.Derived, cur.Derived, tolerancePct)
			if d.Derived != "" {
				d.Status = StatusDerived
				cmp.Derived++
			} else {
				d.Status = StatusOK
			}
		}
		cmp.Deltas = append(cmp.Deltas, d)
	}
	for _, b := range baseline {
		if !seen[key(b)] {
			cmp.Missing++
			cmp.Deltas = append(cmp.Deltas, Delta{Name: key(b), Base: b.Cycles, Status: StatusMissing})
		}
	}
	return cmp
}

// derivedDiff describes the first derived key, in sorted order, that only
// one of base and cur has or whose value moved by more than tolerancePct
// percent; it returns "" when there is none.
func derivedDiff(base, cur map[string]float64, tolerancePct float64) string {
	keys := make([]string, 0, len(base)+len(cur))
	for k := range base {
		keys = append(keys, k)
	}
	for k := range cur {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		b, inBase := base[k]
		c, inCur := cur[k]
		switch {
		case !inBase:
			return fmt.Sprintf("%s: none -> %g", k, c)
		case !inCur:
			return fmt.Sprintf("%s: %g -> none", k, b)
		case !(math.Abs(stats.PctDelta(b, c)) <= tolerancePct): // NaN fails too
			return fmt.Sprintf("%s: %g -> %g", k, b, c)
		}
	}
	return ""
}

// OK reports whether the gate passes: no cycle-count change beyond the
// tolerance in either direction, no derived-metric change, and no
// fingerprint mismatches. New and missing points pass, so a run over a
// figure subset can be gated.
func (c Comparison) OK() bool {
	return c.Regressions == 0 && c.Improved == 0 && c.Mismatches == 0 && c.Derived == 0
}

// String renders the summary line plus every non-ok delta (ok rows are
// elided — a full quick sweep has hundreds).
func (c Comparison) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "gate: tolerance %.1f%%, %d points: %d ok, %d regressions, %d mismatches, %d improved, %d derived, %d new, %d missing",
		c.TolerancePct, len(c.Deltas),
		len(c.Deltas)-c.Regressions-c.Mismatches-c.Improved-c.Derived-c.New-c.Missing,
		c.Regressions, c.Mismatches, c.Improved, c.Derived, c.New, c.Missing)
	for _, d := range c.Deltas {
		switch d.Status {
		case StatusOK:
			continue
		case StatusRegression, StatusImproved:
			fmt.Fprintf(&sb, "\n  %-10s %-44s %12.0f -> %12.0f cycles (%+.1f%%)",
				strings.ToUpper(string(d.Status)), d.Name, d.Base, d.Current, d.DeltaPct)
		case StatusMismatch:
			fmt.Fprintf(&sb, "\n  %-10s %-44s fingerprint changed (config or schema); refresh the baseline",
				"MISMATCH", d.Name)
		case StatusDerived:
			fmt.Fprintf(&sb, "\n  %-10s %-44s derived %s", "DERIVED", d.Name, d.Derived)
		case StatusNew:
			fmt.Fprintf(&sb, "\n  %-10s %-44s %12.0f cycles (not in baseline)", "NEW", d.Name, d.Current)
		case StatusMissing:
			fmt.Fprintf(&sb, "\n  %-10s %-44s not measured this run", "MISSING", d.Name)
		}
	}
	return sb.String()
}
