// Package serve is the resilience-first HTTP query service over the
// snapshot engine: the paper's analyses (§3–§5 connected-network
// tables, rankings, longitudinal evolution, alternate-path
// availability) exposed as an always-on API that degrades gracefully
// instead of falling over.
//
// Every query flows through a composable middleware stack:
//
//   - panic recovery — a bad request can 500, never kill the process;
//   - admission control — a bounded concurrency limiter with a
//     max-wait queue sheds excess load with 503 + Retry-After;
//   - per-request deadlines — propagated via context into every
//     engine wait;
//   - a circuit breaker around engine rebuilds — consecutive rebuild
//     failures or timeouts trip it open, half-open probes decide when
//     to close it again.
//
// The corpus lives in an immutable generation (database + engine pair)
// behind one atomic pointer: a request pins its generation once at
// entry and can never observe a half-loaded corpus, and the hot
// reloader swaps in a replacement generation only after the candidate
// passes ingestion's error budget and the cross-record integrity pass.
// A failed reload keeps the old generation serving and surfaces on
// /readyz. Each generation keeps the encoded answers it has served
// (answers.go), so a repeated query costs its bytes, not its analysis.
package serve

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hftnetview/internal/engine"
	"hftnetview/internal/uls"
)

// Config tunes the service's resilience envelope. The zero value is
// usable: every field falls back to the default documented on it.
type Config struct {
	// MaxInFlight bounds concurrently executing queries (default 64).
	MaxInFlight int
	// MaxQueueWait is how long an arriving request may wait for a slot
	// before being shed (default 100ms).
	MaxQueueWait time.Duration
	// RetryAfter is the hint sent with 503 responses (default 1s).
	RetryAfter time.Duration
	// RequestTimeout is the per-request deadline (default 10s).
	RequestTimeout time.Duration
	// BreakerThreshold trips the circuit breaker after this many
	// consecutive engine failures (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker rejects work
	// before admitting a half-open probe (default 5s).
	BreakerCooldown time.Duration
	// RebuildTimeout caps each generation engine's snapshot waits
	// (default: RequestTimeout; the per-request context usually fires
	// first, this is the backstop for requests without deadlines).
	RebuildTimeout time.Duration
	// WatchMaxStreams bounds concurrently open /v1/watch replay
	// streams; excess requests are shed with 503 (default 64).
	WatchMaxStreams int
	// WatchHeartbeat is how often an idle watch stream emits an SSE
	// heartbeat comment to keep the connection alive (default 15s).
	WatchHeartbeat time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueueWait <= 0 {
		c.MaxQueueWait = 100 * time.Millisecond
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.RebuildTimeout <= 0 {
		c.RebuildTimeout = c.RequestTimeout
	}
	if c.WatchMaxStreams <= 0 {
		c.WatchMaxStreams = 64
	}
	if c.WatchHeartbeat <= 0 {
		c.WatchHeartbeat = 15 * time.Second
	}
	return c
}

// generation is one immutable corpus: a database and the engine built
// over it. Requests pin a generation at entry; reloads swap the
// pointer, never mutate a published generation.
type generation struct {
	id       int64
	db       *uls.Database
	eng      *engine.Engine
	source   string
	loadedAt time.Time

	// Store identity, when known: the persisted generation id and
	// corpus digest this in-memory generation corresponds to. Unlike
	// the process-local id above, these are comparable across processes
	// — the fleet's replicas and front tier use them to detect
	// wrong-generation responses and measure staleness. Zero/empty for
	// a corpus that was never persisted.
	storeGen int64
	digest   string

	// answers holds the encoded 200 bodies this corpus has served. By
	// pointer, so annotateStoreIdentity's shallow copy shares it: the
	// bodies carry id, which the copy keeps, not the store identity.
	answers *answerCache
}

// Server is the query service. Create with New, install a corpus with
// SetCorpus (or LoadCorpusFile), and serve Handler().
type Server struct {
	cfg     Config
	limiter *Limiter
	breaker *Breaker

	gen    atomic.Pointer[generation]
	nextID atomic.Int64

	counters struct {
		requests atomic.Int64 // queries entering the /v1 surface
		shed     atomic.Int64 // 503s from the admission queue
		rejected atomic.Int64 // 503s from the open breaker
		failures atomic.Int64 // engine failures (timeouts + rebuild errors)
		panics   atomic.Int64 // handler panics recovered
	}

	reloadMu sync.Mutex
	reload   ReloadStatus

	persist persistState

	watch watchState

	auxMu sync.Mutex
	aux   map[string]func() any

	started time.Time
}

// RegisterStats installs a named auxiliary stats source whose snapshot
// is embedded in /statsz under "extra" — how subsystems layered on top
// of the server (the fleet's pull loop, for one) surface their health
// through the existing endpoint without serve depending on them.
// Registering the same name again replaces the source.
func (s *Server) RegisterStats(name string, fn func() any) {
	s.auxMu.Lock()
	defer s.auxMu.Unlock()
	if s.aux == nil {
		s.aux = make(map[string]func() any)
	}
	s.aux[name] = fn
}

// New returns a server with no corpus loaded; /readyz reports 503
// until SetCorpus or LoadCorpusFile installs one.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		limiter: NewLimiter(cfg.MaxInFlight, cfg.MaxQueueWait),
		breaker: NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		started: time.Now(),
	}
	s.watch.sem = make(chan struct{}, cfg.WatchMaxStreams)
	s.watch.stop = make(chan struct{})
	return s
}

// Config returns the server's effective (default-filled) configuration.
func (s *Server) Config() Config { return s.cfg }

// SetCorpus atomically swaps in a new corpus generation: a fresh engine
// is built over db, inherits the outgoing engine's snapshots of every
// licensee whose filings did not change (engine.Inherit), and is
// published with one pointer store. In-flight requests keep the
// generation they pinned at entry; new requests see the new one. The
// previous generation is garbage once its last request drains. With a
// store attached (AttachStore) the corpus is also persisted as a new
// on-disk generation.
func (s *Server) SetCorpus(db *uls.Database, source string) {
	s.publish(db, source)
	s.persistCorpus(db, source)
}

// publish installs the corpus as the live generation without touching
// the persistence layer (WarmStart uses it directly: re-saving what
// was just recovered would duplicate generations on every boot).
func (s *Server) publish(db *uls.Database, source string) {
	s.publishMeta(db, source, 0, "")
}

// publishMeta is publish with the corpus's store identity attached,
// when the caller knows it (warm starts and replica installs do).
func (s *Server) publishMeta(db *uls.Database, source string, storeGen int64, digest string) {
	eng := engine.New(db, engine.WithRebuildTimeout(s.cfg.RebuildTimeout))
	// Consecutive corpora usually differ in a few licensees: carry the
	// rest of the memo over, so the reads after the swap stay hits.
	inherited := 0
	if prev := s.gen.Load(); prev != nil {
		inherited = eng.Inherit(prev.eng)
	}
	g := &generation{
		id:       s.nextID.Add(1),
		db:       db,
		eng:      eng,
		source:   source,
		loadedAt: time.Now(),
		storeGen: storeGen,
		digest:   digest,
		answers:  new(answerCache),
	}
	s.gen.Store(g)
	if inherited > 0 {
		// Every read re-keys its date on the new corpus's event log.
		// Build it now that the outgoing generation is unpublished,
		// rather than in the first read after the swap. A server that
		// serves no reads inherits nothing and never builds it.
		db.EventLog()
	}
}

// annotateStoreIdentity attaches a just-persisted store identity to the
// live generation, if it still serves the same database. The swap
// republishes a shallow copy sharing db and engine (generations are
// immutable once visible to requests); a CAS failure means a newer
// generation was published mid-persist and the identity belongs to a
// corpus that is no longer live — dropped, correctly.
func (s *Server) annotateStoreIdentity(db *uls.Database, storeGen int64, digest string) {
	g := s.gen.Load()
	if g == nil || g.db != db || (g.storeGen == storeGen && g.digest == digest) {
		return
	}
	g2 := *g
	g2.storeGen = storeGen
	g2.digest = digest
	s.gen.CompareAndSwap(g, &g2)
}

// StoreIdentity reports the live generation's cross-process identity:
// the persisted store generation id and corpus digest. ok is false when
// no corpus is loaded or the live corpus was never persisted — callers
// (the fleet announcer, for one) then omit the identity rather than
// report zeros as fact.
func (s *Server) StoreIdentity() (gen int64, digest string, ok bool) {
	g := s.gen.Load()
	if g == nil || g.storeGen == 0 {
		return 0, "", false
	}
	return g.storeGen, g.digest, true
}

// generationInfo is the serialized view of the live generation, shaped
// for remote staleness probes: a front tier or sibling replica reads
// store_generation, corpus_sha256, and age_seconds straight off
// /readyz or /statsz — no store dependency, no disk access.
type generationInfo struct {
	ID       int64  `json:"id"`
	Source   string `json:"source"`
	LoadedAt string `json:"loaded_at"`
	Licenses int    `json:"licenses"`
	// StoreGeneration is the cross-process generation id from the
	// corpus store (0 when the corpus was never persisted).
	StoreGeneration int64 `json:"store_generation,omitempty"`
	// CorpusSHA256 is the persisted corpus digest ("" when unknown).
	CorpusSHA256 string `json:"corpus_sha256,omitempty"`
	// AgeSeconds is how long this generation has been live.
	AgeSeconds float64 `json:"age_seconds"`
}

func (g *generation) info() generationInfo {
	return generationInfo{
		ID:              g.id,
		Source:          g.source,
		LoadedAt:        g.loadedAt.UTC().Format(time.RFC3339),
		Licenses:        g.db.Len(),
		StoreGeneration: g.storeGen,
		CorpusSHA256:    g.digest,
		AgeSeconds:      time.Since(g.loadedAt).Seconds(),
	}
}

// licensee returns the corpus's own copy of name, and whether this
// generation's corpus files under it. The name list is cached per
// database, so the check copies nothing.
func (g *generation) licensee(name string) (string, bool) {
	names := g.db.Licensees()
	i, ok := slices.BinarySearch(names, name)
	if !ok {
		return "", false
	}
	return names[i], true
}

// ServeStats is the /statsz payload: serving counters, the live
// generation, its answer cache and engine memo counters, breaker
// state, and reload history.
type ServeStats struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	Requests      int64           `json:"requests"`
	Shed          int64           `json:"shed"`
	BreakerReject int64           `json:"breaker_rejected"`
	Failures      int64           `json:"engine_failures"`
	Panics        int64           `json:"panics"`
	InFlight      int             `json:"in_flight"`
	Generation    *generationInfo `json:"generation,omitempty"`
	Answers       *AnswerStats    `json:"answers,omitempty"`
	Engine        *engine.Stats   `json:"engine,omitempty"`
	Breaker       BreakerStats    `json:"breaker"`
	Reload        ReloadStatus    `json:"reload"`
	Persist       *PersistStatus  `json:"persist,omitempty"`
	Watch         WatchStats      `json:"watch"`
	Extra         map[string]any  `json:"extra,omitempty"`
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() ServeStats {
	st := ServeStats{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Requests:      s.counters.requests.Load(),
		Shed:          s.counters.shed.Load(),
		BreakerReject: s.counters.rejected.Load(),
		Failures:      s.counters.failures.Load(),
		Panics:        s.counters.panics.Load(),
		InFlight:      s.limiter.InFlight(),
		Breaker:       s.breaker.Stats(),
		Reload:        s.ReloadStatus(),
		Watch:         s.watch.stats(),
	}
	if ps := s.PersistStatus(); ps.Enabled {
		st.Persist = &ps
	}
	if g := s.gen.Load(); g != nil {
		info := g.info()
		st.Generation = &info
		ans := g.answers.stats()
		st.Answers = &ans
		est := g.eng.Stats()
		st.Engine = &est
	}
	s.auxMu.Lock()
	for name, fn := range s.aux {
		if st.Extra == nil {
			st.Extra = make(map[string]any, len(s.aux))
		}
		st.Extra[name] = fn()
	}
	s.auxMu.Unlock()
	return st
}
