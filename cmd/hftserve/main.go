// Command hftserve is the always-on query service over the snapshot
// engine: the paper's analyses served as an HTTP API that sheds load
// instead of collapsing, breaks the circuit around a failing engine,
// hot-reloads its corpus without dropping a request, and drains
// cleanly on shutdown.
//
// Usage:
//
//	hftserve [-addr :8090] [-bulk corpus.uls] [-store-dir DIR]
//	         [-watch 0] [-max-error-rate 0.05] [-drop-license]
//	         [-max-inflight 64] [-queue-wait 100ms] [-retry-after 1s]
//	         [-request-timeout 10s]
//	         [-breaker-failures 5] [-breaker-cooldown 5s]
//	         [-drain-timeout 15s]
//	         [-watch-max-streams 64] [-watch-heartbeat 15s]
//	         [-pull-from URL] [-pull-front URL] [-pull-interval 2s] [-pull-keep 3]
//	         [-pull-max-bps 0]
//	         [-announce URL] [-announce-name NAME] [-announce-url URL]
//	         [-scrub-interval 0] [-scrub-pause 2ms]
//
// Endpoints:
//
//	/v1/snapshot   networks active on a path at a date (Table 1)
//	/v1/rank       fastest networks per corridor path (Table 2)
//	/v1/evolution  one licensee's longitudinal trajectory (Figs 1–2)
//	/v1/watch      SSE replay of a licensee's evolution: snapshot, then
//	               one diff frame per event date (curl -N to follow)
//	/v1/apa        alternate-path availability + complementary pairs (§5, §2.4)
//	/v1/gen/*      generation shipping (with -store-dir): manifest +
//	               segments, byte-for-byte the store's artifacts
//	/healthz       liveness
//	/readyz        readiness + reload health + generation identity
//	/statsz        engine/breaker/admission counters (+ pull status)
//
// Without -bulk the synthetic corridor corpus is served and reloads
// are disabled. With -bulk, SIGHUP re-ingests the file (and -watch N
// polls it every N); a reload that fails the ingestion error budget or
// empties the corpus is refused — the old generation keeps serving and
// the failure is surfaced on /readyz.
//
// With -store-dir, parsed corpora persist as crash-safe checksummed
// generations: the service warm-starts from the newest verified
// generation (serving within milliseconds) while the bulk file
// re-ingests in the background and hot-swaps once validated, every
// successful reload persists a new generation, and graceful shutdown
// closes the store so no temp debris survives a SIGTERM mid-persist.
// Inspect or prune the store with hftstore. A store also turns on the
// /v1/gen shipping endpoints, making this instance a primary that
// replicas can pull from.
//
// With -pull-from (requires -store-dir, excludes -bulk) the instance
// is a replica: it polls the primary's newest generation, downloads
// and cryptographically verifies it, installs it into the local store,
// and hot-swaps it live — refusing corrupt shipments and keeping the
// previous generation serving. Put replicas behind hftfront for
// failover routing. With -pull-front the replica instead resolves its
// source dynamically from the front tier's /v1/fleet/source each poll:
// when the front promotes a new primary (hftfront -promote), the
// replica re-targets on its own, refuses stale lower-epoch resolutions
// (epoch fencing), quarantines any local generations that diverge from
// the new source's history, and — should this very instance be the
// promoted source — stops pulling entirely.
//
// Replication is resumable and delta-based: an interrupted download
// leaves its verified progress in the store's staging area and the next
// poll continues it with ranged GETs, and segments whose SHA-256 digest
// the replica already holds locally are hard-linked instead of fetched
// (an unchanged segment between generations N and N+1 ships zero
// bytes). -pull-max-bps caps every segment download, the pull loop's
// and scrub repair's, with one token bucket so neither can starve live
// serving — resumption makes the stretched transfer safe. Transfer
// counters (resumed, reused_segments, bytes_saved) appear under "pull"
// on /statsz, and the shipping side's serve counters under "ship".
//
// With -scrub-interval > 0 (requires -store-dir) a background
// anti-entropy scrubber re-verifies every committed generation on the
// deep fsck ladder, pausing -scrub-pause between segments so scrubbing
// stays off the serving path. A corrupt segment is re-fetched from a
// peer holding a digest-matching copy (the front's member table when
// -pull-front or -announce is set, else the -pull-from primary) through
// the same segment client a replica pulls with, verified, and swapped
// in place without a restart; the corrupt original is preserved under
// quarantine/. Counters appear under "scrub" on /statsz, and the
// repair downloads under "pull".
//
// With -announce the instance self-registers with an hftfront front
// tier: it joins at /v1/fleet/join, renews its TTL lease on the
// front-suggested heartbeat, and leaves gracefully on shutdown — no
// static -replica list needed on the front. -announce-url overrides
// the routed-to URL (required when the bind address is not reachable
// as announced, e.g. behind NAT); -announce-name the member name.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hftnetview"
	"hftnetview/internal/fleet"
	"hftnetview/internal/serve"
	"hftnetview/internal/store"
	"hftnetview/internal/uls"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	bulk := flag.String("bulk", "", "ULS bulk file to serve (default: synthetic corpus; enables SIGHUP reload)")
	storeDir := flag.String("store-dir", "", "corpus store directory (enables crash-safe persistence and warm starts)")
	watch := flag.Duration("watch", 0, "poll the bulk file for changes this often (0 = SIGHUP only)")
	maxErrorRate := flag.Float64("max-error-rate", 0.05, "ingestion error budget for loads and reloads")
	dropLicense := flag.Bool("drop-license", false, "quarantine whole licenses on record errors instead of salvaging")
	maxInflight := flag.Int("max-inflight", 64, "max concurrently executing queries")
	queueWait := flag.Duration("queue-wait", 100*time.Millisecond, "max admission-queue wait before shedding with 503")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on shed responses")
	requestTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request deadline")
	breakerFailures := flag.Int("breaker-failures", 5, "consecutive engine failures that trip the circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "how long a tripped breaker rejects before probing")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "in-flight drain budget on SIGTERM/SIGINT")
	watchMaxStreams := flag.Int("watch-max-streams", 64, "max concurrently open /v1/watch replay streams")
	watchHeartbeat := flag.Duration("watch-heartbeat", 15*time.Second, "SSE heartbeat cadence on idle /v1/watch streams")
	pullFrom := flag.String("pull-from", "", "replicate generations from this primary's base URL (requires -store-dir, excludes -bulk)")
	pullFront := flag.String("pull-front", "", "resolve the replication source dynamically from this front tier's /v1/fleet/source (requires -store-dir, excludes -bulk; overrides -pull-from once a source is elected)")
	pullInterval := flag.Duration("pull-interval", 2*time.Second, "replication poll cadence (jittered)")
	pullKeep := flag.Int("pull-keep", 3, "local generations kept after each replicated install")
	pullMaxBps := flag.Int64("pull-max-bps", 0, "cap in bytes/sec on every segment download, replication and scrub repair alike (0 = unlimited; interrupted transfers resume)")
	announce := flag.String("announce", "", "front tier base URL to self-register with (lease-based membership)")
	announceName := flag.String("announce-name", "", "member name to announce (default: the announced URL's host:port)")
	announceURL := flag.String("announce-url", "", "base URL the front should route to (default: http://127.0.0.1<addr> for a :port bind)")
	scrubInterval := flag.Duration("scrub-interval", 0, "background anti-entropy scrub cadence over the store (0 = off; requires -store-dir)")
	scrubPause := flag.Duration("scrub-pause", 2*time.Millisecond, "pause between segment verifications inside a scrub cycle")
	flag.Parse()

	replica := *pullFrom != "" || *pullFront != ""
	if replica && *storeDir == "" {
		log.Fatal("hftserve: -pull-from/-pull-front need -store-dir (pulled generations are verified into the local store)")
	}
	if replica && *bulk != "" {
		log.Fatal("hftserve: -pull-from/-pull-front and -bulk are exclusive (a replica's corpus comes from its primary)")
	}
	if *scrubInterval > 0 && *storeDir == "" {
		log.Fatal("hftserve: -scrub-interval needs -store-dir (there is nothing to scrub without one)")
	}

	// The instance's own base URL: what it announces to the front, what
	// the puller uses to recognise "the promoted source is me" and
	// excludes from its repair peers.
	self := strings.TrimSuffix(*announceURL, "/")
	if self == "" {
		bind := *addr
		if strings.HasPrefix(bind, ":") {
			bind = "127.0.0.1" + bind
		}
		self = "http://" + bind
	}

	srv := serve.New(serve.Config{
		MaxInFlight:      *maxInflight,
		MaxQueueWait:     *queueWait,
		RetryAfter:       *retryAfter,
		RequestTimeout:   *requestTimeout,
		BreakerThreshold: *breakerFailures,
		BreakerCooldown:  *breakerCooldown,
		WatchMaxStreams:  *watchMaxStreams,
		WatchHeartbeat:   *watchHeartbeat,
	})

	reloadOpts := serve.ReloadOptions{MaxErrorRate: *maxErrorRate}
	if *dropLicense {
		reloadOpts.Mode = uls.DropLicense
	}

	handler := srv.Handler()
	opts := serve.GracefulOptions{DrainTimeout: *drainTimeout}

	var st *store.Store
	warm := false
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir)
		if err != nil {
			log.Fatalf("hftserve: opening store %s: %v", *storeDir, err)
		}
		srv.AttachStore(st)
		// A persistent store makes this instance a shippable primary.
		shipper := fleet.NewShipper(st)
		handler = fleet.WithShipping(handler, shipper)
		srv.RegisterStats("ship", func() any { return shipper.Status() })
		opts.OnShutdown = func() {
			if err := srv.CloseStore(); err != nil {
				log.Printf("hftserve: closing store: %v", err)
			}
		}
		rep, err := srv.WarmStart()
		switch {
		case err == nil:
			warm = true
			log.Printf("hftserve: warm start: serving persisted generation %d", rep.Served)
			if len(rep.Discarded) > 0 {
				log.Printf("hftserve: recovery discarded %d generation(s):\n%s", len(rep.Discarded), rep)
			}
		case errors.Is(err, store.ErrNoGeneration):
			log.Printf("hftserve: store %s has no verified generation, booting cold", *storeDir)
		default:
			log.Printf("hftserve: warm start failed, booting cold: %v", err)
		}
	}

	// loadInitial is the cold-boot corpus source: the bulk file, or the
	// synthetic corridor corpus without one. With a store attached the
	// resulting generation is persisted by SetCorpus/LoadCorpusFile.
	loadInitial := func() error {
		if *bulk == "" {
			db, err := hftnetview.GenerateCorpus()
			if err != nil {
				return fmt.Errorf("generating corpus: %w", err)
			}
			srv.SetCorpus(db, "synthetic corpus")
			return nil
		}
		return srv.LoadCorpusFile(*bulk, reloadOpts)
	}
	// A replica's pull loop and scrub repair download through one puller,
	// on one -pull-max-bps budget.
	pullCfg := fleet.PullerConfig{
		Primary:        *pullFrom,
		Front:          strings.TrimSuffix(*pullFront, "/"),
		Self:           self,
		Store:          st,
		Server:         srv,
		Interval:       *pullInterval,
		Keep:           *pullKeep,
		MaxBytesPerSec: *pullMaxBps,
	}
	var puller *fleet.Puller
	switch {
	case replica:
		// Replica: the corpus arrives from the primary. A warm start
		// already serves the last pulled generation; otherwise /readyz
		// stays not-ready until the first verified install lands.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		puller = fleet.NewPuller(pullCfg)
		go puller.Run(ctx)
		switch {
		case *pullFront != "" && *pullFrom != "":
			log.Printf("hftserve: replicating from the source elected by %s (seed %s) every %v (keep %d)",
				*pullFront, *pullFrom, *pullInterval, *pullKeep)
		case *pullFront != "":
			log.Printf("hftserve: replicating from the source elected by %s every %v (keep %d)",
				*pullFront, *pullInterval, *pullKeep)
		default:
			log.Printf("hftserve: replicating from %s every %v (keep %d)", *pullFrom, *pullInterval, *pullKeep)
		}
	case warm && *bulk != "":
		// The persisted generation is already serving; re-ingest the
		// bulk file in the background and hot-swap once it validates.
		go func() {
			if err := loadInitial(); err != nil {
				log.Printf("hftserve: background re-ingest of %s failed; persisted generation keeps serving: %v", *bulk, err)
				return
			}
			log.Printf("hftserve: background re-ingest of %s complete: generation hot-swapped", *bulk)
		}()
	case warm:
		// Nothing to re-ingest; the recovered corpus serves as-is.
	default:
		if err := loadInitial(); err != nil {
			log.Fatalf("hftserve: loading corpus: %v", err)
		}
	}

	if *scrubInterval > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := store.ScrubConfig{Interval: *scrubInterval, Pause: *scrubPause}
		var peerSource string
		var peers fleet.PeerLister
		switch {
		case *pullFront != "":
			peerSource = "members of front " + *pullFront
			peers = fleet.FrontMembers(strings.TrimSuffix(*pullFront, "/"), nil)
		case *announce != "":
			peerSource = "members of front " + *announce
			peers = fleet.FrontMembers(strings.TrimSuffix(*announce, "/"), nil)
		case *pullFrom != "":
			peerSource = "primary " + *pullFrom
			peers = fleet.StaticPeers(fleet.Replica{Name: "primary", URL: *pullFrom})
		}
		if peers != nil {
			if puller == nil {
				puller = fleet.NewPuller(pullCfg) // repairs only; its loop never runs
			}
			cfg.Fetch = puller.RepairFrom(peers)
			log.Printf("hftserve: scrubbing every %v (pause %v), repairing from %s",
				*scrubInterval, *scrubPause, peerSource)
		} else {
			log.Printf("hftserve: scrubbing every %v (pause %v), detect-only: no peers to repair from",
				*scrubInterval, *scrubPause)
		}
		scr := store.NewScrubber(st, cfg)
		srv.RegisterStats("scrub", func() any { return scr.Status() })
		go scr.Run(ctx)
	}

	if *bulk != "" {
		// Hot reload: SIGHUP (via the graceful runner) and, with
		// -watch, an mtime poller; both feed the same watcher.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		hup := make(chan struct{}, 1)
		opts.OnHUP = func() {
			select {
			case hup <- struct{}{}:
			default: // a reload is already pending
			}
		}
		go srv.Watch(ctx, *bulk, *watch, hup, reloadOpts)
	} else {
		// No file to reload, but SIGHUP must not kill the process.
		hupC := make(chan os.Signal, 1)
		signal.Notify(hupC, syscall.SIGHUP)
		defer signal.Stop(hupC)
		go func() {
			for range hupC {
				log.Printf("hftserve: SIGHUP ignored (no -bulk file to reload)")
			}
		}()
	}

	log.Printf("hftserve: serving on %s (inflight %d, queue wait %v, breaker %d/%v)",
		*addr, *maxInflight, *queueWait, *breakerFailures, *breakerCooldown)
	httpSrv := &http.Server{Addr: *addr, Handler: handler}

	if *announce != "" {
		name := *announceName
		if name == "" {
			name = strings.TrimPrefix(strings.TrimPrefix(self, "http://"), "https://")
		}
		annCtx, annCancel := context.WithCancel(context.Background())
		defer annCancel()
		ann := fleet.NewAnnouncer(fleet.AnnouncerConfig{
			Front:       strings.TrimSuffix(*announce, "/"),
			Self:        fleet.Replica{Name: name, URL: self},
			Server:      srv,
			LeaveOnExit: true,
		})
		go ann.Run(annCtx)
		// Cancel at shutdown start so the best-effort leave goes out
		// while the listener is still draining — the front evicts this
		// member immediately instead of waiting out the lease.
		httpSrv.RegisterOnShutdown(annCancel)
		log.Printf("hftserve: announcing as %s (%s) to %s", name, self, *announce)
	}
	// Shutdown waits for in-flight handlers; open replay streams must
	// drain (final `drain` frame, then close) rather than run out their
	// replays against that wait.
	httpSrv.RegisterOnShutdown(srv.StopWatches)
	if err := serve.ListenAndServeGraceful(httpSrv, opts); err != nil {
		log.Fatalf("hftserve: %v", err)
	}
	log.Printf("hftserve: drained cleanly")
}
