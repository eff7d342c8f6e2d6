// Command hftfront is the serving fleet's failover front tier: it
// health-checks a set of hftserve replicas, consistent-hashes each
// licensee's queries onto a stable replica (keeping that replica's
// snapshot memos hot), hedges slow reads against the next replica in
// ring order, fails over on replica errors, excludes replicas whose
// corpus generation falls too far behind the primary's, and sheds with
// 503 + jittered Retry-After when no replica is serviceable.
//
// The front keeps one member table: each row holds a member's lease,
// its last /readyz probe (health, generation, digest, age, last error)
// and, through the ring built over the table, its place in the routing
// order. Every -check-interval one tick sweeps lapsed leases, probes
// every member and, with -promote, runs the source election.
//
// Replicas reach the front two ways: statically, as permanent
// -replica members, or by self-registering at POST /v1/fleet/join
// (hftserve -announce), holding a TTL lease renewed on a heartbeat —
// a replica that crashes or is partitioned away stops renewing and is
// evicted from the routing ring within one -lease-ttl, no operator in
// the loop. When fewer than -min-healthy members are routable the
// front sheds every request with 503 + Retry-After rather than piling
// the whole fleet's load onto a rump.
//
// With -promote the front also elects the fleet's write source: the
// healthy member holding the newest generation is promoted (ties break
// on the smallest name), published at GET /v1/fleet/source with a
// monotonically increasing epoch, and handed to joining members in
// their lease grant. A healthy incumbent is never displaced; when the
// source dies or its lease lapses the role is re-elected at the next
// epoch, so a fenced ex-primary that comes back cannot reclaim it.
// Replicas started with hftserve -pull-front follow the elected source
// and refuse stale lower-epoch resolutions.
//
// Bulk generation shipping (/v1/gen/*) proxies like any other read —
// client Range headers pass through, so a replica resuming an
// interrupted segment download keeps its ranged resume across the
// front — but segment fetches are never hedged: hedging a bulk
// download doubles replication traffic for latency nobody is waiting
// on, so they fail over sequentially instead.
//
// A /v1/watch replay streams through frame by frame, never buffered,
// hedged or cut off by -request-timeout (which bounds only the wait for
// a replica's answer); shutdown ends open streams, which clients resume
// with Last-Event-ID.
//
// Usage:
//
//	hftfront [-replica r1=http://host1:8090 ...]
//	         [-addr :8080] [-primary http://primary:8090] [-promote]
//	         [-staleness-bound 2] [-lease-ttl 3s] [-min-healthy 1]
//	         [-hedge-after 150ms]
//	         [-request-timeout 15s] [-retry-after 1s]
//	         [-check-interval 250ms] [-fail-after 2] [-vnodes 64]
//	         [-drain-timeout 15s]
//
// Endpoints:
//
//	/v1/fleet/join     replica announce/lease renewal (POST)
//	/v1/fleet/leave    graceful immediate eviction (POST)
//	/v1/fleet/members  the member table (GET)
//	/v1/fleet/source   the elected source and its fencing epoch (GET)
//	/v1/*     proxied to the fleet (GET/HEAD only)
//	/healthz  the front's own liveness
//	/readyz   fleet readiness: routable replica count + the member table
//	/statsz   routing/failover/shed counters + the member table
//
// The front never serves corpus data itself; a response always comes
// from exactly one replica (named in X-Fleet-Replica) and carries that
// replica's X-Corpus-Generation/X-Corpus-Digest stamp.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"hftnetview/internal/fleet"
	"hftnetview/internal/serve"
)

func main() {
	var replicas []fleet.Replica
	flag.Func("replica", "replica as name=URL (repeatable); bare URLs are named by host:port", func(v string) error {
		name, url, ok := strings.Cut(v, "=")
		if !ok {
			url = v
			name = strings.TrimPrefix(strings.TrimPrefix(v, "http://"), "https://")
		}
		if url == "" || name == "" {
			return fmt.Errorf("bad replica %q, want name=URL", v)
		}
		replicas = append(replicas, fleet.Replica{Name: name, URL: strings.TrimSuffix(url, "/")})
		return nil
	})
	addr := flag.String("addr", ":8080", "listen address")
	primary := flag.String("primary", "", "primary's base URL, polled for the newest generation (enables staleness exclusion)")
	promote := flag.Bool("promote", false, "elect and fence a source replica: promote the healthy member with the newest generation, re-electing (next epoch) when it dies")
	stalenessBound := flag.Int64("staleness-bound", 2, "max generations a replica may lag the primary and still serve")
	leaseTTL := flag.Duration("lease-ttl", 3*time.Second, "membership lease TTL for self-registered replicas")
	minHealthy := flag.Int("min-healthy", 1, "healthy-member floor below which all requests are shed")
	hedgeAfter := flag.Duration("hedge-after", 150*time.Millisecond, "hedge a slow read against the next replica after this long")
	requestTimeout := flag.Duration("request-timeout", 15*time.Second, "end-to-end deadline per client request, across all attempts")
	retryAfter := flag.Duration("retry-after", time.Second, "base Retry-After hint on shed responses (jittered)")
	checkInterval := flag.Duration("check-interval", 250*time.Millisecond, "the front's tick: lease sweep, health/staleness probe of every member, source election")
	failAfter := flag.Int("fail-after", 2, "consecutive probe failures that eject a replica")
	vnodes := flag.Int("vnodes", 64, "virtual nodes per replica on the hash ring")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "in-flight drain budget on SIGTERM/SIGINT")
	flag.Parse()

	// No static replicas is fine: the fleet can be built entirely from
	// self-registering members (hftserve -announce).
	seen := map[string]bool{}
	for _, r := range replicas {
		if seen[r.Name] {
			log.Fatalf("hftfront: duplicate replica name %q", r.Name)
		}
		seen[r.Name] = true
	}

	f := fleet.NewFront(fleet.FrontConfig{
		Replicas:       replicas,
		Primary:        strings.TrimSuffix(*primary, "/"),
		Promote:        *promote,
		StalenessBound: *stalenessBound,
		LeaseTTL:       *leaseTTL,
		MinHealthy:     *minHealthy,
		HedgeAfter:     *hedgeAfter,
		RequestTimeout: *requestTimeout,
		RetryAfter:     *retryAfter,
		CheckInterval:  *checkInterval,
		FailAfter:      *failAfter,
		Vnodes:         *vnodes,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)

	log.Printf("hftfront: fronting %d static replica(s) on %s (staleness bound %d, lease TTL %v, min healthy %d, hedge %v)",
		len(replicas), *addr, *stalenessBound, *leaseTTL, *minHealthy, *hedgeAfter)
	httpSrv := &http.Server{Addr: *addr, Handler: f.Handler()}
	httpSrv.RegisterOnShutdown(cancel) // ending Run ends relayed /v1/watch streams, so the drain need not sit them out
	err := serve.ListenAndServeGraceful(httpSrv, serve.GracefulOptions{
		DrainTimeout: *drainTimeout,
		OnHUP:        func() { log.Printf("hftfront: SIGHUP ignored (nothing to reload)") },
	})
	if err != nil {
		log.Fatalf("hftfront: %v", err)
	}
	log.Printf("hftfront: drained cleanly")
}
