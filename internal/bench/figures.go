package bench

import "skipit/internal/sweep"

// Figure describes one regenerable section of the paper's evaluation (§7):
// its -fig selector token, result-store group, presentation metadata, and the
// builder that decomposes it into fingerprinted sweep jobs.
//
// The table lives here — not in cmd/skipit-bench — because it is the shared
// job vocabulary of every executor: the bench CLI and the host-speed
// benchmark both build their jobs from it, so the same builders produce the
// same fingerprints everywhere.
type Figure struct {
	Token string // -fig selector ("9", "ablations")
	Group string // result-store group / sidecar name ("fig09")
	Title string
	Note  string // paper anchor, printed under the title
	Mops  bool   // report Derived["mops"] instead of cycles
	Build func(quick bool) []sweep.Job
}

// Figures lists the evaluation's sections in figure order. Job builders read
// the package's sweep knobs at call time, so apply SetQuick first when
// running in quick mode.
func Figures() []Figure {
	return []Figure{
		{Token: "9", Group: "fig09",
			Title: "Figure 9 — CBO.X latency vs writeback size and thread count (cycles)",
			Note:  "paper anchors: 1 line ~100 cy; 32 KiB ~7460 cy; 8 threads ~7.2x faster",
			Build: func(bool) []sweep.Job { return Fig9Jobs("fig09", false) }},
		{Token: "10", Group: "fig10",
			Title: "Figure 10 — write, 10x CBO.X, fence, re-read (cycles)",
			Note:  "paper: re-read after CBO.CLEAN ~2x faster than after CBO.FLUSH",
			Build: func(bool) []sweep.Job { return Fig10Jobs(ThreadCounts) }},
		{Token: "11", Group: "fig11",
			Title: "Figure 11 — comparative writeback latency, 1 thread (cycles)",
			Build: func(bool) []sweep.Job { return ComparativeJobs("fig11", 1) }},
		{Token: "12", Group: "fig12",
			Title: "Figure 12 — comparative writeback latency, 8 threads (cycles)",
			Build: func(bool) []sweep.Job { return ComparativeJobs("fig12", 8) }},
		{Token: "13", Group: "fig13",
			Title: "Figure 13 — naive vs Skip It, 10 redundant CBO.X per line (cycles)",
			Note:  "paper: Skip It 15-30% faster (CBO.CLEAN variant; see EXPERIMENTS.md)",
			Build: func(bool) []sweep.Job { return Fig13Jobs(ThreadCounts, 10) }},
		{Token: "14", Group: "fig14", Mops: true,
			Title: "Figure 14 — §7.4 throughput, 5% updates, 2 threads (Mops/s)",
			Note:  "paper: Skip It >= FliT variants; link-and-persist ahead on automatic list/hash",
			Build: func(bool) []sweep.Job { return Fig14Jobs() }},
		{Token: "15", Group: "fig15", Mops: true,
			Title: "Figure 15 — throughput vs update percentage, automatic algorithm (Mops/s)",
			Build: func(quick bool) []sweep.Job {
				pcts := []int{0, 5, 10, 20, 50, 100}
				if quick {
					pcts = []int{0, 5, 20, 50}
				}
				return Fig15Jobs(pcts)
			}},
		{Token: "16", Group: "fig16", Mops: true,
			Title: "Figure 16 — BST (10k keys) throughput vs FliT hash-table size (Mops/s)",
			Note:  "paper: throughput is sensitive to the table size on the small-cache platform",
			Build: func(quick bool) []sweep.Job {
				sizes := []uint64{1 << 6, 1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20}
				if quick {
					sizes = []uint64{1 << 6, 1 << 12, 1 << 16, 1 << 20}
				}
				return Fig16Jobs(sizes)
			}},
		{Token: "ablations", Group: "ablations",
			Title: "Ablations — §5 design choices (cycles)",
			Note:  "widened data array, FSHR count, coalescing, flush-queue depth",
			Build: func(bool) []sweep.Job { return AblationJobs() }},
	}
}

// SetQuick shrinks the sweep knobs for a fast pass. The knobs feed the job
// fingerprints, so quick and full-size records never satisfy each other's
// store hits or gate comparisons.
func SetQuick() {
	Reps = 1
	Sizes = []uint64{64, 1024, 4096, 32768}
	ThreadCounts = []int{1, 8}
	PersistOpsPerThr = 4000
}

// FigureJobs builds every job of the selected figures (nil tokens = all), in
// figure order.
func FigureJobs(quick bool, tokens map[string]bool) []sweep.Job {
	var jobs []sweep.Job
	for _, f := range Figures() {
		if tokens != nil && !tokens[f.Token] {
			continue
		}
		jobs = append(jobs, f.Build(quick)...)
	}
	return jobs
}
