// Package detrand is the shared seed-splitting discipline for every
// deterministic-randomness consumer in the repository: the chaos fuzzer, the
// TileLink agent harness (tlctest) and the sweep fingerprint jitter tests all
// derive their streams through these helpers, so seed semantics cannot drift
// between tools.
//
// The discipline is simple and deliberate:
//
//   - New(seed) is exactly rand.New(rand.NewSource(seed)). Every committed
//     repro artifact (.chaos.json, .tlc.json) encodes seeds whose expansion
//     depends on this mapping staying fixed; do not change it.
//   - Child streams are derived by drawing a fresh seed from the parent with
//     SplitSeed and expanding it with New. One top-level seed then pins an
//     arbitrary tree of independent streams, and a consumer of one child
//     cannot perturb a sibling by drawing a different number of values.
//
// Everything here is pure: no global state, no wall clock, no math/rand
// package-level functions.
package detrand

import "math/rand"

// New returns a deterministic PRNG seeded with seed. The mapping from seed to
// stream is part of the repro-artifact format and must never change.
func New(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// SplitSeed draws a child seed from the parent stream. Splitting consumes
// exactly one value, so the parent's subsequent draws are unaffected by how
// the child stream is used.
func SplitSeed(r *rand.Rand) int64 { return r.Int63() }

// Split derives an independent child stream from the parent:
// New(SplitSeed(r)).
func Split(r *rand.Rand) *rand.Rand { return New(SplitSeed(r)) }
