// Package engine is the shared snapshot layer under every analysis:
// a concurrency-safe, memoizing store of reconstructed networks keyed
// by (licensee set, date, data-center set, options fingerprint).
//
// Every analysis in the paper starts from the same primitive —
// "rebuild licensee X's network as of date D" (§2.3) — and the
// longitudinal sweeps (§4) and multi-network tables (§3, §5) repeat it
// across dates, licensees, and experiments. The engine reconstructs
// each distinct snapshot exactly once per database generation:
// concurrent requests for the same key coalesce onto one in-flight
// reconstruction, independent keys fan out across a bounded worker
// pool, and completed snapshots are shared. An engine over the next
// corpus generation inherits the snapshots of every licensee whose
// filings did not change (Inherit), so a publish only rebuilds what it
// changed. A memo hit returns the memoized network itself behind a
// fresh header carrying the requested date: towers, links, graph, and
// the network's per-path route/APA memo are shared by every reader, so
// a repeated read of a Table 1 row costs a key lookup and one small
// allocation. Sharing is safe because a
// core.Network is read-only once built — analyses that knock edges out
// do it in private graph masks — and callers must not modify what they
// get back.
//
// The engine implements core.SnapshotProvider, so the core analyses
// (ConnectedNetworksVia, RankNetworksVia, EvolutionVia) and the entity
// layer run against it unchanged; convenience methods mirror the
// facade's analysis surface. Stats expose hit/miss/coalesce/rebuild
// counters for benchmarks and reports.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"hftnetview/internal/core"
	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
)

// Engine is the memoized snapshot store. Create one per database with
// New and share it across analyses; all methods are safe for
// concurrent use.
type Engine struct {
	db             *uls.Database
	sem            chan struct{} // bounds concurrent reconstructions
	rebuildTimeout time.Duration // 0 = wait forever

	mu      sync.Mutex
	gen     int64 // db generation the memo store was built against
	entries map[string]*entry

	// Counters live under mu so Stats returns one consistent snapshot
	// (rebuilds can never be observed ahead of the misses that caused
	// them) — /statsz scrapes these concurrently with query traffic.
	stats Stats
}

// entry is one memoized (or in-flight) reconstruction. done is closed
// when net/err are final; goroutines that find an open entry coalesce
// by waiting on it instead of reconstructing again.
type entry struct {
	done chan struct{}
	net  *core.Network
	err  error
}

// Option configures an Engine.
type Option func(*Engine)

// WithWorkers bounds the number of concurrent reconstructions (default
// 2×GOMAXPROCS; reconstruction mixes CPU-bound geodesy with allocation).
func WithWorkers(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.sem = make(chan struct{}, n)
		}
	}
}

// WithRebuildTimeout caps how long one SnapshotContext call, or one
// SnapshotsContext batch as a whole, waits for its reconstructions
// (queueing included). A request that exceeds the cap fails with an
// error classified as FailureTimeout; the rebuild itself keeps running
// and, on success, primes the memo store for the next attempt. 0 (the
// default) waits forever.
func WithRebuildTimeout(d time.Duration) Option {
	return func(e *Engine) { e.rebuildTimeout = d }
}

// New returns an engine over db with an empty memo store (Inherit
// carries a previous corpus generation's snapshots over). The engine
// assumes the database is mutated only between analyses (the
// uls.Database contract); an in-place change detected on the next
// request flushes the memo store.
func New(db *uls.Database, opts ...Option) *Engine {
	e := &Engine{
		db:      db,
		gen:     db.Generation(),
		entries: make(map[string]*entry),
	}
	for _, o := range opts {
		o(e)
	}
	if e.sem == nil {
		e.sem = make(chan struct{}, 2*defaultWorkers())
	}
	return e
}

func defaultWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// DB returns the underlying license database.
func (e *Engine) DB() *uls.Database { return e.db }

// keyBuf sizes the stack buffer a memo key is built in; longer keys
// spill to the heap.
const keyBuf = 256

// appendKey appends req's memo key to b: its family key (appendFamily)
// and the date. Requests that normalize identically share one snapshot.
// Canonicalizing up to eight licensees and eight data centers allocates
// nothing, so a memo hit looks its key up in a stack buffer and
// converts it to a string only on a miss.
func appendKey(b []byte, req core.SnapshotRequest) []byte {
	b = appendFamily(b, req)
	b = append(b, '\x1e')
	b = strconv.AppendInt(b, int64(req.Date.Year), 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, int64(req.Date.Month), 10)
	b = append(b, '-')
	return strconv.AppendInt(b, int64(req.Date.Day), 10)
}

// appendFamily appends the canonical key of req's (licensee set, DC set,
// options) family to b: sorted deduplicated licensees, sorted
// data-center codes, and the options fingerprint, joined with the ASCII
// unit (␟) and record (␞) separators so no field can collide with
// another. With the date it names a snapshot.
func appendFamily(b []byte, req core.SnapshotRequest) []byte {
	var nameBuf, codeBuf [8]string
	names := append(nameBuf[:0], req.Licensees...)
	slices.Sort(names)
	for i, n := range names {
		if i > 0 {
			if n == names[i-1] {
				continue
			}
			b = append(b, '\x1f')
		}
		b = append(b, n...)
	}
	b = append(b, '\x1e')
	codes := codeBuf[:0]
	for _, dc := range req.DCs {
		codes = append(codes, dc.Code)
	}
	slices.Sort(codes)
	for i, c := range codes {
		if i > 0 {
			b = append(b, '\x1f')
		}
		b = append(b, c...)
	}
	b = append(b, '\x1e')
	return req.Opts.AppendFingerprint(b)
}

// Snapshot returns the network described by the request, reconstructing
// it at most once per key and database generation. The returned network
// is shared with every other reader of the same snapshot and must not
// be modified.
func (e *Engine) Snapshot(req core.SnapshotRequest) (*core.Network, error) {
	return e.SnapshotContext(context.Background(), req)
}

// SnapshotContext is Snapshot with a caller-supplied deadline: the wait
// for the reconstruction (in-flight or newly started) is bounded by ctx
// and by the engine's rebuild timeout, whichever is shorter. An expired
// wait abandons only the wait — the rebuild keeps running in the
// background and memoizes its result for later requests, so a retry
// after a transient overload is likely a cache hit. Failed rebuilds are
// NOT memoized: concurrent waiters coalesced onto the attempt all see
// the error, but the next request retries from scratch. Classify the
// returned error with Classify to drive circuit-breaker policy.
//
// A hit on a completed entry allocates only the returned header.
func (e *Engine) SnapshotContext(ctx context.Context, req core.SnapshotRequest) (*core.Network, error) {
	ent, done := e.lookup(req)
	if !done {
		ctx, cancel := e.bound(ctx)
		err := wait(ctx, ent)
		cancel()
		if err != nil {
			return nil, err
		}
	}
	if ent.err != nil {
		return nil, ent.err
	}
	n := *ent.net
	n.Date = req.Date
	return &n, nil
}

// SnapshotsContext resolves a batch of requests in order, in two
// passes. The first looks every request up on the caller: a hit is
// ready at once, and a miss starts its rebuild on a fill goroutine
// (bounded by the worker semaphore like any other), so every
// independent rebuild of the batch is queued before the caller waits
// on any of them; duplicate keys coalesce onto one rebuild. The second
// waits for the pending entries under one deadline for the whole
// batch: ctx, cut to the engine's rebuild timeout. The first error in
// request order is returned, and a snapshot that is ready is never
// turned into a timeout. The returned headers share one allocation.
func (e *Engine) SnapshotsContext(ctx context.Context, reqs []core.SnapshotRequest) ([]*core.Network, error) {
	ents, pending := e.lookupAll(reqs)
	if pending {
		var cancel context.CancelFunc
		ctx, cancel = e.bound(ctx)
		defer cancel()
	}
	nets := make([]*core.Network, len(reqs))
	hdrs := make([]core.Network, len(reqs))
	for i, ent := range ents {
		if err := wait(ctx, ent); err != nil {
			return nil, err
		}
		if ent.err != nil {
			return nil, ent.err
		}
		hdrs[i] = *ent.net
		hdrs[i].Date = reqs[i].Date
		nets[i] = &hdrs[i]
	}
	return nets, nil
}

// lookup finds req's memo entry or starts its rebuild, and reports
// whether the entry was already complete (a hit). It is the first half
// of every read; wait is the second.
//
// Anchor re-keying: the requested date collapses onto the date of the
// last event at or before it — every date between two events shares
// one memo entry. Callers hand out headers carrying the literal
// requested date.
func (e *Engine) lookup(req core.SnapshotRequest) (ent *entry, done bool) {
	req, rekeyed := e.rekey(req)
	var buf [keyBuf]byte
	key := appendKey(buf[:0], req)

	e.mu.Lock()
	defer e.mu.Unlock()
	if g := e.db.Generation(); g != e.gen {
		// The database changed under us: every memoized snapshot is
		// stale. Entries still in flight finish against the old data
		// and are dropped with the map.
		e.entries = make(map[string]*entry)
		e.gen = g
		e.stats.Invalidations++
	}
	ent, ok := e.entries[string(key)]
	switch {
	case !ok:
		ent = &entry{done: make(chan struct{})}
		k := string(key)
		e.entries[k] = ent
		e.stats.Misses++
		go e.fill(k, ent, req)
	case ent.ready():
		done = true
		e.stats.Hits++
		if rekeyed {
			e.stats.DeltaHits++
		}
	default:
		e.stats.Coalesced++
	}
	return ent, done
}

// lookupAll runs lookup over a batch, in order, and reports whether
// any entry is still pending.
func (e *Engine) lookupAll(reqs []core.SnapshotRequest) (ents []*entry, pending bool) {
	ents = make([]*entry, len(reqs))
	for i, r := range reqs {
		var done bool
		ents[i], done = e.lookup(r)
		pending = pending || !done
	}
	return ents, pending
}

// ready reports whether ent is final, without blocking.
func (ent *entry) ready() bool {
	select {
	case <-ent.done:
		return true
	default:
		return false
	}
}

// bound cuts ctx to the engine's rebuild timeout. Callers take it only
// once something is pending, so a completed hit never creates a timer.
func (e *Engine) bound(ctx context.Context) (context.Context, context.CancelFunc) {
	if e.rebuildTimeout > 0 {
		return context.WithTimeout(ctx, e.rebuildTimeout)
	}
	return ctx, func() {}
}

// wait blocks until ent is final or ctx ends. A result that arrived
// together with the deadline still counts: never turn a ready snapshot
// into a timeout.
func wait(ctx context.Context, ent *entry) error {
	if ent.ready() {
		return nil
	}
	select {
	case <-ent.done:
		return nil
	case <-ctx.Done():
		if ent.ready() {
			return nil
		}
		return fmt.Errorf("engine: waiting for snapshot rebuild: %w", ctx.Err())
	}
}

// fill runs the reconstruction for a freshly created entry and
// publishes the result. The rebuild is the oracle's own reconstruction
// (core.DirectProvider) at the anchor date rekey chose, over the
// canonical licensee list, so a union's label does not depend on the
// order its names were requested in. Error entries are evicted so
// failures are retried rather than served from the memo store.
func (e *Engine) fill(key string, ent *entry, req core.SnapshotRequest) {
	e.sem <- struct{}{}
	req.Licensees = canonNames(req.Licensees)
	ent.net, ent.err = core.DirectProvider(e.db).Snapshot(req)
	<-e.sem

	e.mu.Lock()
	e.stats.Rebuilds++
	if ent.err != nil && e.entries[key] == ent {
		delete(e.entries, key)
	}
	e.mu.Unlock()
	close(ent.done)
}

// Snapshots is SnapshotsContext without a caller deadline.
func (e *Engine) Snapshots(reqs []core.SnapshotRequest) ([]*core.Network, error) {
	return e.SnapshotsContext(context.Background(), reqs)
}

// Prewarm primes the memo store with the given requests and returns
// how many completed successfully before ctx expired. It looks the
// whole batch up at once, as SnapshotsContext does, so the rebuilds
// run through the same bounded worker pool queries use (requests
// already memoized are free), and a warm-booted service can prewarm its
// default query surface in the background: the first real request
// after a restart pays a memo hit instead of a rebuild. Failures are
// not retried: a request that fails here simply stays cold, and the
// next real query for it retries from scratch.
func (e *Engine) Prewarm(ctx context.Context, reqs []core.SnapshotRequest) int {
	if ctx.Err() != nil {
		return 0
	}
	ents, _ := e.lookupAll(reqs)
	ctx, cancel := e.bound(ctx)
	defer cancel()
	n := 0
	for _, ent := range ents {
		if wait(ctx, ent) == nil && ent.err == nil {
			n++
		}
	}
	return n
}

// Inherit adopts prev's memoized snapshots that are still exact against
// this engine's database and returns how many it adopted. Call it on a
// fresh engine over the next corpus generation before the engine
// serves: consecutive generations usually differ in a few licensees,
// and every snapshot of the others stays valid.
//
// A completed, error-free entry carries over when no licensee its
// family key names has changed filings (uls.ChangedLicensees; a ""
// name, the whole database, carries over only when nothing changed).
// An unchanged licensee has the same licenses field for field, hence
// the same event stream: equal anchors and equal active sets at them,
// so the adopted network is deep-equal to the one this engine would
// build, and its memoized route and APA answers are exact too. Networks
// own their memory (see core.Network), so adopting one pins nothing of
// prev's database. Entries still in flight are skipped, and prev is
// ignored when its database moved since its memo was built (an
// in-place Add: licenses may have changed in place) or when its memo is
// empty, in which case the databases are not compared.
func (e *Engine) Inherit(prev *Engine) int {
	if prev == nil || prev == e {
		return 0
	}
	prev.mu.Lock()
	var done map[string]*entry
	if prev.db.Generation() == prev.gen {
		for k, ent := range prev.entries {
			if ent.ready() && ent.err == nil {
				if done == nil {
					done = make(map[string]*entry, len(prev.entries))
				}
				done[k] = ent
			}
		}
	}
	prev.mu.Unlock()
	if len(done) == 0 {
		return 0
	}

	changed := uls.ChangedLicensees(prev.db, e.db)
	for k := range done {
		// The family's licensee names lead the key, ␟-separated
		// (appendFamily); an empty list is one "" name, the whole
		// database.
		names, _, _ := strings.Cut(k, "\x1e")
		for more := true; more; {
			var name string
			name, names, more = strings.Cut(names, "\x1f")
			if changed[name] || (name == "" && len(changed) > 0) {
				delete(done, k)
				break
			}
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for k, ent := range done {
		if _, ok := e.entries[k]; !ok {
			e.entries[k] = ent
			n++
		}
	}
	e.stats.Inherited += int64(n)
	return n
}

// ConnectedNetworks is core.ConnectedNetworksVia over this engine.
func (e *Engine) ConnectedNetworks(date uls.Date, path sites.Path, opts core.Options) ([]core.NetworkSummary, error) {
	return core.ConnectedNetworksVia(e, date, path, opts)
}

// RankNetworks is core.RankNetworksVia over this engine.
func (e *Engine) RankNetworks(date uls.Date, paths []sites.Path, topN int, opts core.Options) ([]core.PathRanking, error) {
	return core.RankNetworksVia(e, date, paths, topN, opts)
}

// Evolution is core.EvolutionVia over this engine: the per-date sweep
// runs in parallel, and repeated sweeps are served from the memo store.
func (e *Engine) Evolution(licensee string, path sites.Path, dates []uls.Date, opts core.Options) ([]core.EvolutionPoint, error) {
	return core.EvolutionVia(e, licensee, path, dates, opts)
}

// Stats is a point-in-time snapshot of the engine's counters. The
// snapshot is internally consistent: all fields are captured under one
// lock, so cross-field invariants (Rebuilds ≤ Misses, one rebuild per
// miss absent invalidations) hold in every snapshot even while query
// traffic is mutating the counters.
type Stats struct {
	// Hits counts requests served from a completed memo entry.
	Hits int64
	// Misses counts requests that created a new memo entry.
	Misses int64
	// Coalesced counts requests that joined an in-flight
	// reconstruction instead of starting their own.
	Coalesced int64
	// Rebuilds counts reconstructions actually executed; with no
	// invalidations it equals Misses and, per key, is exactly 1.
	Rebuilds int64
	// Invalidations counts memo-store flushes triggered by database
	// generation changes.
	Invalidations int64
	// Inherited counts memo entries adopted from the previous corpus
	// generation's engine when this one started (Inherit): snapshots
	// whose licensees' event streams did not change, served as hits
	// without a rebuild.
	Inherited int64
	// DeltaHits counts memo hits where anchor re-keying collapsed a
	// requested date onto an earlier anchor's snapshot — requests the
	// pre-delta engine would have rebuilt under a distinct date key.
	DeltaHits int64
	// EventsReplayed always reads 0: a miss rebuilds from the active
	// set at its anchor and replays no events.
	//
	// Deprecated: nothing counts into it; it stays only so existing
	// readers compile.
	EventsReplayed int64
	// Entries is the current memo-store size.
	Entries int
}

// Stats returns a consistent snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	st := e.stats
	st.Entries = len(e.entries)
	e.mu.Unlock()
	return st
}

// FailureClass buckets the errors SnapshotContext can return, for
// circuit-breaker policy: only FailureTimeout and FailureRebuild count
// against the engine's health; FailureCanceled is the caller's doing
// and FailureNone is success.
type FailureClass int

const (
	// FailureNone: no error.
	FailureNone FailureClass = iota
	// FailureTimeout: the wait for a rebuild exceeded its deadline
	// (the engine's rebuild timeout or the request deadline).
	FailureTimeout
	// FailureCanceled: the caller canceled the request.
	FailureCanceled
	// FailureRebuild: the reconstruction itself failed.
	FailureRebuild
)

// String renders the class for logs and status endpoints.
func (c FailureClass) String() string {
	switch c {
	case FailureNone:
		return "none"
	case FailureTimeout:
		return "timeout"
	case FailureCanceled:
		return "canceled"
	default:
		return "rebuild"
	}
}

// Classify buckets an error returned by SnapshotContext (or by an
// analysis running over the engine).
func Classify(err error) FailureClass {
	switch {
	case err == nil:
		return FailureNone
	case errors.Is(err, context.DeadlineExceeded):
		return FailureTimeout
	case errors.Is(err, context.Canceled):
		return FailureCanceled
	default:
		return FailureRebuild
	}
}
