// Package fleet turns the single-process query service into a
// replicated serving tier with no load-bearing node — the paper's HFT
// corridor property (§5: no single tower failure severs the fastest
// networks) applied to our own serving path.
//
// The design leans entirely on invariants the store already provides:
//
//   - Generation shipping. A primary's committed manifest + segment
//     files ARE the wire format (self-checksummed manifest; per-segment
//     sizes and SHA-256; per-block CRC32C). The Shipper exports their
//     raw bytes over HTTP; nothing is re-encoded, so nothing new can be
//     torn or misframed in transit that the existing checksums miss.
//
//   - Pull replication. Each replica runs a Puller: a jittered poll
//     loop that downloads any newer generation, verifies every promise
//     the manifest makes (Fsck-deep: sizes, digests, CRCs, record
//     decode, license validation), atomically installs it into the
//     replica's own crash-safe store, and warm-swaps it live. A
//     download that fails verification is rejected whole — the replica
//     keeps serving its previous generation and the rejection is
//     surfaced on /statsz. A replica restarted after a crash warm-boots
//     from its local store and catches up from the primary.
//
//   - Failover front tier. The Front health-checks replicas over
//     /readyz (which now carries the cross-process generation id,
//     corpus digest, and age), consistent-hashes per-licensee traffic
//     so each replica's engine memos stay hot for its shard, hedges
//     slow reads and retries failed idempotent reads on the next
//     replica in ring order, excludes replicas staler than a bounded
//     number of generations behind the primary, and shed load with
//     503 + jittered Retry-After when no replica is serviceable.
//
// The chaos harness (ChaosReplica, FaultyTransport, CutTransport,
// Partitioner, SlowGate, Campaign) lives in this package's test files,
// out of the hftserve and hftfront binaries. The E21, E23, E24 and E25
// soaks use it to drive the whole assembly under SIGKILL-style replica
// crashes and corrupted downloads, asserting clients never observe a
// wrong or out-of-bounds-stale generation and never an error beyond
// 503.
package fleet

import "net/http"

// Replica names one replica of the serving fleet.
type Replica struct {
	Name string `json:"name"`
	URL  string `json:"url"` // base URL, e.g. http://10.0.0.7:8090
}

// WithShipping mounts st's generation-shipping endpoints (/v1/gen/...)
// in front of an existing handler — how a serving process becomes a
// replication primary without touching the query surface.
func WithShipping(h http.Handler, shipper *Shipper) http.Handler {
	mux := http.NewServeMux()
	mux.Handle(shipPrefix, shipper)
	mux.Handle("/", h)
	return mux
}
