package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hftnetview/internal/serve"
)

// FrontConfig tunes the failover front tier. The zero value of every
// field falls back to the default documented on it.
type FrontConfig struct {
	// Replicas is the statically configured serving fleet: permanent
	// members that never lease-expire. May be empty when the fleet
	// self-registers via /v1/fleet/join.
	Replicas []Replica
	// Primary is the base URL of the primary's shipping endpoints;
	// the front polls /v1/gen/latest there to know the newest
	// published generation. "" disables staleness exclusion.
	Primary string
	// StalenessBound K: a replica whose live generation is more than K
	// behind the primary's newest is excluded from routing (default 2).
	StalenessBound int64
	// LeaseTTL is the membership lease granted to self-registering
	// replicas; a member that stops renewing is evicted from the ring
	// within one TTL (default 3s).
	LeaseTTL time.Duration
	// MinHealthy is the healthy-member floor: when fewer routable
	// members remain, the front sheds every request with 503 +
	// Retry-After instead of piling the whole fleet's load onto a
	// rump that cannot absorb it (default 1, i.e. serve from whatever
	// remains).
	MinHealthy int
	// HedgeAfter is the per-request hedging deadline: if the chosen
	// replica has not answered within it, the request is also sent to
	// the next replica in ring order and the first answer wins; the
	// loser is canceled (default 150ms).
	HedgeAfter time.Duration
	// RequestTimeout bounds one client request end to end, across all
	// attempts (default 15s), or a /v1/watch attempt's wait for its head.
	RequestTimeout time.Duration
	// RetryAfter is the base hint on shed responses; the emitted
	// header is jittered to break up retry waves (default 1s).
	RetryAfter time.Duration
	// CheckInterval is the front's tick: each tick sweeps lapsed
	// leases, probes every member's /readyz for health and staleness,
	// and runs the source election (default 250ms); FailAfter the
	// consecutive probe failures that mark a replica down (default 2).
	CheckInterval time.Duration
	FailAfter     int
	// Promote enables epoch-fenced source promotion: the front tracks a
	// source role (the member pullers replicate from), and when the
	// role holder's lease lapses or its /readyz fails FailAfter
	// consecutive probes, deterministically promotes the healthy member
	// holding the newest generation under the next epoch. With Promote
	// on, the front's observed primary generation follows the probed
	// source instead of a static Primary URL. Default off: a statically
	// wired fleet (Primary + pull-from) behaves exactly as before.
	Promote bool
	// Vnodes is the consistent-hash virtual node count (default 64).
	Vnodes int
	// Client issues proxied requests and probes (default: 15s timeout,
	// keep-alives on — connection reuse per replica is the point).
	Client *http.Client
}

func (c FrontConfig) withDefaults() FrontConfig {
	if c.StalenessBound <= 0 {
		c.StalenessBound = 2
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * time.Second
	}
	if c.MinHealthy <= 0 {
		c.MinHealthy = 1
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 150 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = 250 * time.Millisecond
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 15 * time.Second}
	}
	return c
}

// Front is the fleet's failover proxy: consistent-hash routing over a
// self-healing member set, health- and staleness-aware failover,
// hedged idempotent reads, and load shedding when the healthy quorum
// drops below the floor.
type Front struct {
	cfg          FrontConfig
	members      *Membership
	probeTimeout time.Duration // per probe, derived from CheckInterval

	primaryGen atomic.Int64

	ctxMu sync.Mutex
	ctx   context.Context // the Run context; background before Run

	counters struct {
		requests atomic.Int64 // client requests entering /v1
		proxied  atomic.Int64 // attempts forwarded to replicas
		retried  atomic.Int64 // failovers to a later candidate
		hedged   atomic.Int64 // hedge attempts launched on the timer
		shed     atomic.Int64 // 503s from the front itself
	}
	started time.Time
}

// NewFront builds the front tier. Call Run to start its tick, then
// serve Handler.
func NewFront(cfg FrontConfig) *Front {
	cfg = cfg.withDefaults()
	return &Front{
		cfg:          cfg,
		members:      NewMembership(cfg.Replicas, cfg.LeaseTTL, cfg.Vnodes),
		probeTimeout: probeTimeoutFor(cfg.CheckInterval),
		started:      time.Now(),
	}
}

// Members exposes the membership registry (tests and the fleet
// handlers use it; the proxy path goes through candidates).
func (f *Front) Members() *Membership { return f.members }

// Run drives the front until ctx is done: the primary-generation poll,
// and a tick every CheckInterval that sweeps lapsed leases, probes
// every member and elects the source. The first tick runs at once, so
// a freshly started front begins routing within one probe round-trip,
// not one interval. A tick waits for its slowest probe, so a lease is
// evicted at most CheckInterval plus one per-probe timeout after it
// lapses.
func (f *Front) Run(ctx context.Context) {
	f.ctxMu.Lock()
	f.ctx = ctx
	f.ctxMu.Unlock()
	if f.cfg.Primary != "" {
		go f.pollPrimary(ctx)
	}
	for {
		for _, r := range f.members.Sweep() {
			log.Printf("fleet: lease lapsed, evicted %s (%s)", r.Name, r.URL)
		}
		f.probeAll(ctx)
		f.maybePromote()
		select {
		case <-ctx.Done():
			return
		case <-time.After(f.cfg.CheckInterval):
		}
	}
}

// runCtx returns the Run context (Background before Run is called) —
// join-triggered immediate probes hang off it, not the join request's
// own context, so they outlive the announce round-trip.
func (f *Front) runCtx() context.Context {
	f.ctxMu.Lock()
	defer f.ctxMu.Unlock()
	if f.ctx != nil {
		return f.ctx
	}
	return context.Background()
}

// maybePromote keeps the source role filled (see Membership.elect)
// and tracks the role holder's probed generation as the fleet's newest
// published truth. On a promotion the observed primary generation is
// reset to the new source's: the dead source's unshipped generations
// are gone, and a staleness bound anchored to them would strand the
// whole fleet as "too stale".
func (f *Front) maybePromote() {
	if !f.cfg.Promote {
		return
	}
	src, gen, promoted := f.members.elect()
	if gen > 0 {
		f.primaryGen.Store(gen)
	}
	if promoted {
		log.Printf("fleet: promoted %s (%s) to source at epoch %d, generation %d",
			src.Name, src.URL, src.Epoch, gen)
	}
}

// PrimaryGeneration is the newest generation id observed at the
// primary (0 before the first successful poll or with no primary).
func (f *Front) PrimaryGeneration() int64 { return f.primaryGen.Load() }

func (f *Front) pollPrimary(ctx context.Context) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.cfg.Primary+shipPrefix+"latest", nil)
		if err == nil {
			if resp, err := f.cfg.Client.Do(req); err == nil {
				var v struct {
					ID int64 `json:"id"`
				}
				if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&v) == nil && v.ID > 0 {
					f.primaryGen.Store(v.ID)
				}
				resp.Body.Close()
			}
			// An unreachable primary keeps the last known generation:
			// nothing new can have been published by a primary that is
			// down, so the staleness bound keeps meaning "within K of
			// the newest anything a replica could have pulled" — and the
			// replicas keep serving their last installed generation.
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(f.cfg.CheckInterval):
		}
	}
}

// candidates is the failover order for one key: the ring's walk from
// the key's owner, restricted to routable members.
func (f *Front) candidates(key string) []Replica {
	return f.members.route(key, f.primaryGen.Load(), f.cfg.StalenessBound)
}

// routable returns every routable member: each lies on every key's
// walk.
func (f *Front) routable() []Replica { return f.candidates("") }

// shardKey derives the routing key: per-licensee when the query names
// one (so a licensee's snapshot memos concentrate on one replica's
// engine), else the full path+query (so identical queries still reuse
// one replica's memo).
func shardKey(r *http.Request) string {
	if l := r.URL.Query().Get("licensee"); l != "" {
		return "licensee:" + l
	}
	return r.URL.Path + "?" + r.URL.RawQuery
}

// Handler returns the front tier's HTTP surface: /v1/* proxied to the
// fleet, the membership control surface under /v1/fleet/, plus the
// front's own health endpoints.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", f.handleReadyz)
	mux.HandleFunc("/statsz", f.handleStatsz)
	mux.HandleFunc(fleetPrefix, f.handleFleet)
	mux.HandleFunc("/v1/", f.handleProxy)
	return mux
}

// io1MB bounds a control-surface request body read.
func io1MB(r *http.Request) io.Reader { return io.LimitReader(r.Body, 1<<20) }

// bufferedResp is one fully-read replica response: buffering decouples
// failover from streaming (a replica killed mid-body is a retry, never
// a truncated client response).
type bufferedResp struct {
	status  int
	header  http.Header
	body    []byte
	replica string
}

func (f *Front) handleProxy(w http.ResponseWriter, r *http.Request) {
	f.counters.requests.Add(1)
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "fleet front proxies idempotent reads only", http.StatusMethodNotAllowed)
		return
	}
	cands := f.candidates(shardKey(r))
	if len(cands) == 0 {
		f.shed(w, "no healthy replica within the staleness bound")
		return
	}
	// The quorum floor: a rump fleet below MinHealthy sheds rather
	// than absorbing the whole fleet's load — a partition that leaves
	// one straggler serving everyone would just melt it down and turn
	// a partial outage into a total one. The walk holds every routable
	// member, so its length is the count.
	if len(cands) < f.cfg.MinHealthy {
		f.shed(w, fmt.Sprintf("healthy members %d below floor %d", len(cands), f.cfg.MinHealthy))
		return
	}
	if r.URL.Path == "/v1/watch" {
		f.streamWatch(w, r, cands)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), f.cfg.RequestTimeout)
	defer cancel()

	// Bulk segment fetches fail over but never hedge: racing two
	// replicas on a multi-megabyte body duplicates the very transfer
	// bytes the delta-shipping path exists to save, to shave a tail the
	// puller's resumable staging already tolerates.
	hedge := !strings.HasPrefix(r.URL.Path, shipPrefix+"segment/")
	resp := f.hedgedFetch(ctx, cands, r.URL.RequestURI(), r.Header, hedge)
	if resp == nil {
		f.shed(w, "all replicas failed")
		return
	}
	writeHead(w, resp.header, resp.replica, resp.status)
	w.Write(resp.body)
}

// writeHead relays a replica's status and headers, naming the replica.
func writeHead(w http.ResponseWriter, hdr http.Header, replica string, status int) {
	for k, vs := range hdr {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-Fleet-Replica", replica)
	w.WriteHeader(status)
}

// streamWatch relays a /v1/watch replay from the first candidate in
// ring order to answer below 500 within RequestTimeout, flushing each
// frame as it arrives. The replay itself has no deadline (a client
// Timeout would cover the body too): the replica's stream limit and
// drain bound it, and so does Run's context, so a shutdown drains.
func (f *Front) streamWatch(w http.ResponseWriter, r *http.Request, cands []Replica) {
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(f.runCtx(), cancel)()
	client := &http.Client{Transport: f.cfg.Client.Transport}
	for _, rep := range cands {
		f.counters.proxied.Add(1)
		attempt, abandon := context.WithCancel(ctx)
		head := time.AfterFunc(f.cfg.RequestTimeout, abandon) // a hung replica never answers
		resp, err := forward(attempt, client, rep, r.URL.RequestURI(), r.Header)
		if head.Stop() && err == nil && passable(resp.StatusCode) {
			writeHead(w, resp.Header, rep.Name, resp.StatusCode)
			_, _ = io.Copy(flushWriter{w}, resp.Body) // ends with the replay, or when either side drops
			resp.Body.Close()
			return
		}
		if err == nil {
			resp.Body.Close()
		}
		abandon()
	}
	f.shed(w, "all replicas failed")
}

// flushWriter flushes every write through to the client.
type flushWriter struct{ http.ResponseWriter }

func (fw flushWriter) Write(p []byte) (int, error) {
	n, err := fw.ResponseWriter.Write(p)
	if err == nil {
		err = http.NewResponseController(fw.ResponseWriter).Flush()
	}
	return n, err
}

// hedgedFetch tries candidates in order. One attempt runs at a time
// until HedgeAfter elapses without an answer — then the next candidate
// is raced against it (tail-latency hedging; the reads are idempotent
// by construction; hedge=false, used for bulk transfers, disables the
// timer so failover stays strictly sequential). An attempt that fails
// at transport level or answers 5xx/timeout triggers immediate
// failover to the next candidate. The first passable answer wins and
// cancels every losing attempt still in flight (the shared context is
// torn down on return, reeling in hedges so a slow loser never holds a
// replica slot after the race is decided); nil means everything
// failed.
func (f *Front) hedgedFetch(ctx context.Context, cands []Replica, uri string, hdr http.Header, hedge bool) *bufferedResp {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // reels in the losing attempts

	results := make(chan *bufferedResp, len(cands))
	next := 0
	inFlight := 0
	launch := func() {
		if next >= len(cands) {
			return
		}
		rep := cands[next]
		next++
		inFlight++
		f.counters.proxied.Add(1)
		go func() { results <- f.attempt(ctx, rep, uri, hdr) }()
	}
	launch()

	var hedgeC <-chan time.Time
	if hedge {
		t := time.NewTimer(f.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}

	for inFlight > 0 {
		select {
		case res := <-results:
			inFlight--
			if res != nil && passable(res.status) {
				return res
			}
			// Transport failure or 5xx: fail over immediately.
			if next < len(cands) {
				f.counters.retried.Add(1)
				launch()
			}
		case <-hedgeC:
			if next < len(cands) {
				f.counters.hedged.Add(1)
				launch()
			}
		case <-ctx.Done():
			return nil
		}
	}
	return nil
}

// hopByHop are the headers a proxy must not forward (RFC 7230 §6.1);
// everything else from the client request — notably Range and
// If-Range, which a resuming puller behind the front depends on —
// passes through to the replica.
var hopByHop = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Proxy-Connection":    true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
}

// passable reports whether a replica's status is returned to the
// client as-is. 2xx–4xx are real answers; a replica's own 503 shed,
// 5xx, and the replica-deadline 504 all mean "try another replica" —
// a saturated or broken replica is precisely when a sibling should
// absorb the read. When every candidate is exhausted the front sheds
// with its own 503 + jittered Retry-After, so the client-visible error
// surface stays exactly one status wide.
func passable(status int) bool { return status < 500 }

// forward sends rep the GET for uri through client, carrying every
// end-to-end header of the client's request.
func forward(ctx context.Context, client *http.Client, rep Replica, uri string, hdr http.Header) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.URL+uri, nil)
	if err != nil {
		return nil, err
	}
	for k, vs := range hdr {
		if hopByHop[http.CanonicalHeaderKey(k)] || k == "Host" {
			continue
		}
		req.Header[http.CanonicalHeaderKey(k)] = vs
	}
	return client.Do(req)
}

func (f *Front) attempt(ctx context.Context, rep Replica, uri string, hdr http.Header) *bufferedResp {
	resp, err := forward(ctx, f.cfg.Client, rep, uri, hdr)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxShipBytes))
	if err != nil {
		// Killed mid-body: the buffered read makes this a clean retry.
		return nil
	}
	return &bufferedResp{status: resp.StatusCode, header: resp.Header, body: body, replica: rep.Name}
}

// shed is the front's own 503: jittered Retry-After, JSON error body.
func (f *Front) shed(w http.ResponseWriter, msg string) {
	f.counters.shed.Add(1)
	w.Header().Set("Retry-After", serve.RetryAfterJitter(f.cfg.RetryAfter))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(struct {
		Error string `json:"error"`
	}{msg})
}

// FrontStats is the /statsz payload.
type FrontStats struct {
	UptimeSeconds     float64         `json:"uptime_seconds"`
	Requests          int64           `json:"requests"`
	Proxied           int64           `json:"proxied"`
	Retried           int64           `json:"retried"`
	Hedged            int64           `json:"hedged"`
	Shed              int64           `json:"shed"`
	PrimaryGeneration int64           `json:"primary_generation"`
	StalenessBound    int64           `json:"staleness_bound"`
	MinHealthy        int             `json:"min_healthy"`
	Membership        MembershipStats `json:"membership"`
}

// Stats snapshots the front's counters and fleet view.
func (f *Front) Stats() FrontStats {
	return FrontStats{
		UptimeSeconds:     time.Since(f.started).Seconds(),
		Requests:          f.counters.requests.Load(),
		Proxied:           f.counters.proxied.Load(),
		Retried:           f.counters.retried.Load(),
		Hedged:            f.counters.hedged.Load(),
		Shed:              f.counters.shed.Load(),
		PrimaryGeneration: f.primaryGen.Load(),
		StalenessBound:    f.cfg.StalenessBound,
		MinHealthy:        f.cfg.MinHealthy,
		Membership:        f.members.Stats(),
	}
}

func (f *Front) handleReadyz(w http.ResponseWriter, r *http.Request) {
	routable := len(f.routable())
	rows := f.members.Stats().Members
	body := struct {
		Ready             bool         `json:"ready"`
		Routable          int          `json:"routable"`
		Members           int          `json:"members"`
		MinHealthy        int          `json:"min_healthy"`
		PrimaryGeneration int64        `json:"primary_generation"`
		Replicas          []MemberInfo `json:"replicas"`
	}{
		Ready:             routable >= f.cfg.MinHealthy,
		Routable:          routable,
		Members:           len(rows),
		MinHealthy:        f.cfg.MinHealthy,
		PrimaryGeneration: f.primaryGen.Load(),
		Replicas:          rows,
	}
	w.Header().Set("Content-Type", "application/json")
	if !body.Ready {
		w.Header().Set("Retry-After", serve.RetryAfterJitter(f.cfg.RetryAfter))
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(body); err != nil {
		log.Printf("fleet: encoding readyz: %v", err)
	}
}

func (f *Front) handleStatsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(f.Stats())
}
