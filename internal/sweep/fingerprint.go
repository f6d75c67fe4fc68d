package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// SchemaVersion is the result-file/code schema version. It is folded into
// every fingerprint and written into every result file; bump it whenever the
// meaning of a recorded cycle count changes (a new measurement protocol),
// and every previously recorded baseline becomes stale at once —
// fingerprints stop matching and LoadFile rejects old files.
const SchemaVersion = 1

// Fingerprint hashes a measurement's full configuration — simulator configs,
// workload parameters, repetition counts — into a short stable hex digest.
// Parts are serialized as canonical JSON (struct fields in declaration
// order, map keys sorted), so identical configurations hash identically
// across runs and processes, and any changed field — core count, FSHR
// count, coalescing, Skip It on/off, a latency constant — changes the hash.
// SchemaVersion is always included, so a schema bump invalidates every old
// fingerprint. Configs must be fingerprinted before wiring (Metrics
// registries nil), which is how the bench harnesses construct them.
func Fingerprint(parts ...any) string {
	h := sha256.New()
	fmt.Fprintf(h, "skipit-sweep-schema=%d;", SchemaVersion)
	for _, p := range parts {
		b, err := json.Marshal(p)
		if err != nil {
			panic(fmt.Sprintf("sweep: unfingerprintable part %T: %v", p, err))
		}
		h.Write(b)
		h.Write([]byte{';'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
