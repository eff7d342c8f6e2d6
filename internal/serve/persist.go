package serve

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"hftnetview/internal/core"
	"hftnetview/internal/sites"
	"hftnetview/internal/store"
	"hftnetview/internal/uls"
)

// Persistence wiring: with a store attached, the server boots warm
// from the newest crash-safe generation on disk (serving within
// milliseconds, before any bulk file is re-ingested) and persists
// every corpus it publishes — the initial load, SIGHUP reloads, and
// background hot swaps — as a new verified generation. Persistence is
// strictly subordinate to serving: a failed Save never fails the
// publish; it is logged and surfaced on /readyz and /statsz.

// PersistStatus is the persistence layer's health, surfaced on /readyz
// and /statsz.
type PersistStatus struct {
	// Enabled reports whether a store is attached.
	Enabled bool `json:"enabled"`
	// Boot is how this process obtained its first corpus: "warm" (the
	// store's newest verified generation) or "cold" (bulk ingest or
	// synthesis).
	Boot string `json:"boot,omitempty"`
	// Generation is the id of the newest persisted (or recovered)
	// generation.
	Generation int64 `json:"generation,omitempty"`
	// Verified reports whether that generation's checksums are known
	// good (always true for recovered generations; true for saved ones
	// once the save commits).
	Verified bool `json:"verified,omitempty"`
	// LastSaved is when the newest generation was persisted, RFC 3339.
	LastSaved string `json:"last_saved,omitempty"`
	// LastError is the most recent persistence failure ("" when the
	// last operation succeeded).
	LastError string `json:"last_error,omitempty"`
	// Discarded counts generations recovery had to throw away (torn
	// writes, checksum mismatches) during the last warm start.
	Discarded int `json:"discarded,omitempty"`
	// Prewarmed counts the default-surface snapshots primed into the
	// engine's memo store after the last warm start (0 until the
	// background prewarm finishes).
	Prewarmed int `json:"prewarmed,omitempty"`
}

// persistState is the server's attachment point for a store.
type persistState struct {
	mu     sync.Mutex
	st     *store.Store
	status PersistStatus
}

// AttachStore binds a crash-safe generation store to the server. From
// this point every published corpus is persisted as a new generation;
// call WarmStart before the first publish to boot from disk. Boot mode
// reports "cold" until a WarmStart succeeds.
func (s *Server) AttachStore(st *store.Store) {
	s.persist.mu.Lock()
	defer s.persist.mu.Unlock()
	s.persist.st = st
	s.persist.status.Enabled = true
	if s.persist.status.Boot == "" {
		s.persist.status.Boot = "cold"
	}
}

// PersistStatus returns a copy of the persistence health.
func (s *Server) PersistStatus() PersistStatus {
	s.persist.mu.Lock()
	defer s.persist.mu.Unlock()
	return s.persist.status
}

// WarmStart recovers the newest fully verified generation from the
// attached store and publishes it as the live corpus — without
// re-persisting what was just read back. The report (never nil when a
// store is attached) accounts for any newer generations recovery had
// to discard. On error — including store.ErrNoGeneration for an empty
// store — nothing is published and the caller should fall back to a
// cold boot.
func (s *Server) WarmStart() (*store.RecoveryReport, error) {
	s.persist.mu.Lock()
	st := s.persist.st
	s.persist.mu.Unlock()
	if st == nil {
		return nil, fmt.Errorf("serve: warm start without an attached store")
	}

	db, gi, rep, err := st.Load()

	s.persist.mu.Lock()
	defer s.persist.mu.Unlock()
	if rep != nil {
		s.persist.status.Discarded = len(rep.Discarded)
	}
	if err != nil {
		s.persist.status.LastError = err.Error()
		return rep, err
	}
	s.persist.status.Boot = "warm"
	s.persist.status.Generation = gi.ID
	s.persist.status.Verified = true
	s.persist.status.LastError = ""
	s.publishMeta(db, fmt.Sprintf("store generation %d: %s", gi.ID, gi.Source), gi.ID, gi.CorpusSHA256)
	// The corpus serves immediately; the rest of "fast" fills in the
	// background by priming the memo store with the default query
	// surface.
	go s.prewarmDefaults()
	return rep, nil
}

// prewarmDefaults primes the live generation's engine with the default
// query surface — exactly the requests the zero-parameter /v1/snapshot
// fans out (core.ConnectedNetworksRequests on the default corridor path
// at the paper snapshot date) — and records the count. A warm boot
// restores the corpus in milliseconds but an empty memo store; this
// closes the remaining gap between "serving" and "fast".
func (s *Server) prewarmDefaults() {
	g := s.gen.Load()
	if g == nil {
		return
	}
	reqs := core.ConnectedNetworksRequests(g.db, paperSnapshot(),
		sites.Path{From: sites.CME, To: sites.NY4}, core.DefaultOptions())
	start := time.Now()
	n := g.eng.Prewarm(context.Background(), reqs)
	log.Printf("serve: prewarmed %d/%d default snapshots in %v", n, len(reqs), time.Since(start).Round(time.Millisecond))

	s.persist.mu.Lock()
	s.persist.status.Prewarmed = n
	s.persist.mu.Unlock()
}

// persistCorpus saves a just-published corpus as a new store
// generation. A no-op without an attached store; a Save failure leaves
// the in-memory generation serving and is surfaced as degraded health.
func (s *Server) persistCorpus(db *uls.Database, source string) {
	s.persist.mu.Lock()
	st := s.persist.st
	s.persist.mu.Unlock()
	if st == nil {
		return
	}

	gi, err := st.Save(db, source)

	s.persist.mu.Lock()
	if err != nil {
		s.persist.status.LastError = err.Error()
		s.persist.mu.Unlock()
		log.Printf("serve: persisting generation failed (serving continues): %v", err)
		return
	}
	s.persist.status.Generation = gi.ID
	s.persist.status.Verified = true
	s.persist.status.LastSaved = gi.CreatedAt.UTC().Format(time.RFC3339)
	s.persist.status.LastError = ""
	s.persist.mu.Unlock()

	// The corpus now has a durable cross-process identity; stamp it on
	// the live generation so /readyz and the /v1 response headers carry
	// it.
	s.annotateStoreIdentity(db, gi.ID, gi.CorpusSHA256)
}

// PublishStoreGeneration atomically swaps in a corpus that already
// exists as a verified generation in this server's attached store —
// the replica pull loop's publish path. Unlike SetCorpus it does not
// re-persist (the store just installed these exact bytes); the store
// identity is stamped directly so staleness probes and response
// headers reflect the shipped generation id immediately.
func (s *Server) PublishStoreGeneration(db *uls.Database, gi *store.GenInfo) {
	s.publishMeta(db, fmt.Sprintf("store generation %d: %s", gi.ID, gi.Source), gi.ID, gi.CorpusSHA256)

	s.persist.mu.Lock()
	s.persist.status.Generation = gi.ID
	s.persist.status.Verified = true
	s.persist.status.LastSaved = gi.CreatedAt.UTC().Format(time.RFC3339)
	// The store demonstrably holds a verified generation now, so a
	// stale boot-time failure (cold start: "no verified generation")
	// must not keep reporting the replica as degraded.
	s.persist.status.LastError = ""
	s.persist.mu.Unlock()
}

// CloseStore detaches and closes the attached store, sweeping any temp
// debris a crashed or failed save left behind. Idempotent, and a no-op
// when no store is attached; wired into graceful shutdown so a
// terminating service never strands temp directories.
func (s *Server) CloseStore() error {
	s.persist.mu.Lock()
	st := s.persist.st
	s.persist.st = nil
	s.persist.mu.Unlock()
	if st == nil {
		return nil
	}
	return st.Close()
}
