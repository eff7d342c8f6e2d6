package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hftnetview/internal/serve"
	"hftnetview/internal/store"
	"hftnetview/internal/synth"
)

// Chaos harness: in-process stand-ins for the fleet's failure modes.
// A ChaosReplica is a full replica (store + serve server + pull loop +
// announcer + listener) whose Kill is SIGKILL-shaped — the listener
// and every open connection are slammed shut mid-flight, the pull and
// announce loops are abandoned wherever they were (no graceful leave:
// the lease must lapse), nothing is drained or closed; Restart
// warm-boots from the surviving store directory exactly like a
// respawned process. A FaultyTransport sits under the puller's HTTP
// client and corrupts segment downloads with mutations drawn from a
// synth corruption profile's weights. A Partitioner is a network
// partition at the transport layer: requests to blocked hosts fail
// without a packet sent. A SkewTransport shifts the clock a replica
// reports in its announces. A SlowGate makes a replica slow or hung
// without killing it. The Campaign runner (campaign_test.go) composes
// these into seeded multi-fault rounds.

// ChaosReplica is one killable, restartable replica.
type ChaosReplica struct {
	Name     string
	StoreDir string // survives kills, like a real machine's disk
	Primary  string
	// PullInterval is the replica's poll cadence; ServeCfg its query
	// service envelope; Transport, when set, underlies the puller's
	// HTTP client (inject a FaultyTransport and/or Partitioner here);
	// Keep the local GC retention.
	PullInterval time.Duration
	ServeCfg     serve.Config
	Transport    http.RoundTripper
	Keep         int

	// PullFront, when set, makes the pull source dynamic: the puller
	// resolves the fleet's current source role from this front-tier URL
	// each poll (epoch-fenced) instead of pulling the static Primary.
	PullFront string

	// ScrubInterval > 0 runs a background anti-entropy scrubber over
	// the replica's store, repairing corrupt segments from fleet peers
	// (resolved via PullFront's member table when set, else the static
	// Primary) through the puller, so Transport's faults reach repair
	// reads too. ScrubPause throttles it between segments;
	// ScrubQuarantineAfter is the consecutive-miss ladder to
	// whole-generation quarantine.
	ScrubInterval        time.Duration
	ScrubPause           time.Duration
	ScrubQuarantineAfter int

	// Front, when set, makes the replica self-register: each Start
	// boots an announcer against this front-tier URL; Kill abandons it
	// mid-lease. AnnounceTransport underlies the announce client
	// (inject a Partitioner to cut the replica off from the front);
	// AnnounceInterval overrides the front-suggested heartbeat.
	Front             string
	AnnounceTransport http.RoundTripper
	AnnounceInterval  time.Duration

	// Gate, when set, wraps the replica's handler — the campaign dials
	// it to make this replica slow or hung without killing it.
	Gate *SlowGate

	mu             sync.Mutex
	addr           string
	st             *store.Store
	srv            *serve.Server
	puller         *Puller
	scrubber       *store.Scrubber
	announcer      *Announcer
	httpSrv        *http.Server
	cancelPull     context.CancelFunc
	pullDone       chan struct{}
	scrubDone      chan struct{}
	cancelAnnounce context.CancelFunc
	announceDone   chan struct{}
	running        bool
	cum            PullStatus        // accumulated across kills; a restart starts a fresh Puller
	cumScrub       store.ScrubStatus // likewise for the scrubber
}

// Announcer returns the live announcer (nil while killed or when no
// Front is configured).
func (r *ChaosReplica) Announcer() *Announcer {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.announcer
}

// URL returns the replica's base URL ("" before the first Start).
func (r *ChaosReplica) URL() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.addr == "" {
		return ""
	}
	return "http://" + r.addr
}

// Running reports whether the replica is currently serving.
func (r *ChaosReplica) Running() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.running
}

// Server returns the live serve.Server (nil while killed) — for test
// assertions against /statsz-level state.
func (r *ChaosReplica) Server() *serve.Server {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.srv
}

// Start boots (or re-boots) the replica: open the store, warm-start
// from whatever generation survived, start the pull loop, and listen.
// The first Start picks a free port; restarts re-bind the same one so
// the front tier's replica URL stays valid, retrying briefly while the
// kernel releases the old socket.
func (r *ChaosReplica) Start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running {
		return fmt.Errorf("chaos replica %s: already running", r.Name)
	}

	st, err := store.Open(r.StoreDir)
	if err != nil {
		return err
	}
	srv := serve.New(r.ServeCfg)
	srv.AttachStore(st)
	// An empty store (first boot) just serves nothing until the first
	// pull lands; any other warm-start failure is likewise survivable.
	_, _ = srv.WarmStart()

	// Bind the listener before wiring the loops: the puller's self-URL
	// fence and the scrubber's peer exclusion both need the bound addr.
	addr := r.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	for deadline := time.Now().Add(5 * time.Second); ; {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			st.Close()
			return fmt.Errorf("chaos replica %s: rebinding %s: %w", r.Name, addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	r.addr = ln.Addr().String()
	self := "http://" + r.addr

	client := &http.Client{Timeout: 30 * time.Second}
	if r.Transport != nil {
		client.Transport = r.Transport
	}
	puller := NewPuller(PullerConfig{
		Primary:  r.Primary,
		Front:    r.PullFront,
		Self:     self,
		Store:    st,
		Server:   srv,
		Interval: r.PullInterval,
		Client:   client,
		Keep:     r.Keep,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		puller.Run(ctx)
	}()

	var scrubber *store.Scrubber
	var sdone chan struct{}
	if r.ScrubInterval > 0 {
		var peers PeerLister
		switch {
		case r.PullFront != "":
			peers = FrontMembers(r.PullFront, client)
		case r.Front != "":
			peers = FrontMembers(r.Front, client)
		default:
			peers = StaticPeers(Replica{Name: "primary", URL: r.Primary})
		}
		scrubber = store.NewScrubber(st, store.ScrubConfig{
			Interval:        r.ScrubInterval,
			Pause:           r.ScrubPause,
			Fetch:           puller.RepairFrom(peers),
			QuarantineAfter: r.ScrubQuarantineAfter,
		})
		srv.RegisterStats("scrub", func() any { return scrubber.Status() })
		sdone = make(chan struct{})
		go func() {
			defer close(sdone)
			scrubber.Run(ctx)
		}()
	}

	// Every replica ships: peers repair from each other, and a promoted
	// source serves pulls with no reconfiguration.
	var handler http.Handler = WithShipping(srv.Handler(), NewShipper(st))
	if r.Gate != nil {
		handler = r.Gate.Wrap(handler)
	}
	httpSrv := &http.Server{Handler: handler}
	go httpSrv.Serve(ln)

	if r.Front != "" {
		annClient := &http.Client{Timeout: 5 * time.Second}
		if r.AnnounceTransport != nil {
			annClient.Transport = r.AnnounceTransport
		}
		ann := NewAnnouncer(AnnouncerConfig{
			Front:    r.Front,
			Self:     Replica{Name: r.Name, URL: "http://" + r.addr},
			Server:   srv,
			Interval: r.AnnounceInterval,
			// Retry on the same cadence: rejoin latency after a healed
			// partition is then bounded by one announce interval, which
			// the soak's convergence assertions depend on.
			RetryInterval: r.AnnounceInterval,
			Client:        annClient,
			// LeaveOnExit stays false: Kill is a crash, and the lease
			// lapsing unannounced is the behavior under test.
		})
		actx, acancel := context.WithCancel(context.Background())
		adone := make(chan struct{})
		go func() {
			defer close(adone)
			ann.Run(actx)
		}()
		r.announcer = ann
		r.cancelAnnounce = acancel
		r.announceDone = adone
	}

	r.st = st
	r.srv = srv
	r.puller = puller
	r.scrubber = scrubber
	r.httpSrv = httpSrv
	r.cancelPull = cancel
	r.pullDone = done
	r.scrubDone = sdone
	r.running = true
	return nil
}

// Store returns the live store (nil while killed) — for test seeding
// and on-disk fault injection against a running replica.
func (r *ChaosReplica) Store() *store.Store {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

// CumulativeStatus sums the pull counters over the replica's whole
// life, across every kill/restart (gauges are the live loop's).
func (r *ChaosReplica) CumulativeStatus() PullStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.cum
	if r.puller != nil {
		out = addPullCounters(out, r.puller.Status())
	}
	return out
}

func addPullCounters(acc, s PullStatus) PullStatus {
	acc.Polls += s.Polls
	acc.Attempts += s.Attempts
	acc.Installs += s.Installs
	acc.Rejections += s.Rejections
	acc.Retried += s.Retried
	acc.Backoffs += s.Backoffs
	acc.SegmentsFetched += s.SegmentsFetched
	acc.BytesFetched += s.BytesFetched
	acc.Resumed += s.Resumed
	acc.ReusedSegments += s.ReusedSegments
	acc.BytesSaved += s.BytesSaved
	acc.ThrottleWaits += s.ThrottleWaits
	if s.Generation > acc.Generation {
		acc.Generation = s.Generation
	}
	if s.LastInstall > acc.LastInstall {
		acc.LastInstall = s.LastInstall
	}
	acc.LastError = s.LastError
	return acc
}

// CumulativeScrub sums the scrub counters over the replica's whole
// life, across every kill/restart.
func (r *ChaosReplica) CumulativeScrub() store.ScrubStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.cumScrub
	if r.scrubber != nil {
		out = addScrubCounters(out, r.scrubber.Status())
	}
	return out
}

func addScrubCounters(acc, s store.ScrubStatus) store.ScrubStatus {
	acc.Cycles += s.Cycles
	acc.Segments += s.Segments
	acc.Corrupt += s.Corrupt
	acc.Repaired += s.Repaired
	acc.Quarantined += s.Quarantined
	acc.Unrepaired += s.Unrepaired
	acc.Collected += s.Collected
	acc.GenerationsQuarantined += s.GenerationsQuarantined
	acc.LastError = s.LastError
	if s.LastRepair != "" {
		acc.LastRepair = s.LastRepair
	}
	return acc
}

// Kill is the SIGKILL analogue: listener and connections slam shut
// (in-flight responses are cut mid-byte), the pull loop's context is
// cancelled and whatever install was mid-verify is abandoned (its temp
// directory is swept by the next Start, like crash debris), and the
// store is NOT cleanly closed. Kill waits only for the pull goroutine
// to notice the cancel, so a Restart never races the old loop's file
// writes.
func (r *ChaosReplica) Kill() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.running {
		return
	}
	r.cancelPull()
	if r.cancelAnnounce != nil {
		r.cancelAnnounce()
	}
	r.httpSrv.Close()
	select {
	case <-r.pullDone:
	case <-time.After(5 * time.Second):
	}
	if r.scrubDone != nil {
		select {
		case <-r.scrubDone:
		case <-time.After(5 * time.Second):
		}
	}
	if r.announceDone != nil {
		select {
		case <-r.announceDone:
		case <-time.After(5 * time.Second):
		}
	}
	r.cum = addPullCounters(r.cum, r.puller.Status())
	if r.scrubber != nil {
		r.cumScrub = addScrubCounters(r.cumScrub, r.scrubber.Status())
	}
	r.st = nil
	r.srv = nil
	r.puller = nil
	r.scrubber = nil
	r.announcer = nil
	r.httpSrv = nil
	r.cancelAnnounce = nil
	r.announceDone = nil
	r.scrubDone = nil
	r.running = false
}

// FaultyTransport corrupts segment downloads passing through it:
// with probability Rate (atomically adjustable mid-soak), the response
// body of a /v1/gen/segment/ GET is mutated — the mutation kind drawn
// from the synth corruption profile's weights, reusing the calibrated
// recipes the ingestion salvage tests are built on. GarbleW flips
// bits, TruncateW cuts the tail, DuplicateW appends a re-read chunk,
// ReorderW swaps two chunks, ShredW deletes an interior chunk. Every
// mutation must be caught by the manifest's size/SHA-256 checks —
// Corrupted counts injections, so tests can assert rejections match.
type FaultyTransport struct {
	Base    http.RoundTripper
	Profile synth.Profile
	Seed    uint64
	// CorruptManifests extends injection to manifest downloads (off by
	// default: segment corruption is the common partial-transfer mode).
	CorruptManifests bool

	rate      atomic.Uint64 // current rate in fixed-point parts-per-1e9
	Corrupted atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

// NewFaultyTransport wraps base (nil means http.DefaultTransport).
func NewFaultyTransport(base http.RoundTripper, profile synth.Profile, seed uint64) *FaultyTransport {
	t := &FaultyTransport{Base: base, Profile: profile, Seed: seed}
	t.SetRate(profile.Rate)
	t.rng = rand.New(rand.NewPCG(seed, hash64(profile.Name)|1))
	return t
}

// SetRate adjusts the corruption probability (0 disables injection).
func (t *FaultyTransport) SetRate(rate float64) {
	t.rate.Store(floatBits(rate))
}

func floatBits(f float64) uint64 { return uint64(int64(f * 1e9)) }

func (t *FaultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	target := strings.Contains(req.URL.Path, shipPrefix+"segment/") ||
		(t.CorruptManifests && strings.Contains(req.URL.Path, shipPrefix+"manifest"))
	// 206 bodies are corrupted too: a resumed range is exactly where a
	// flaky link keeps injecting damage, and the puller's whole-file
	// re-verification must catch a poisoned tail.
	if err != nil || !target ||
		(resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent) {
		return resp, err
	}
	rate := float64(t.rate.Load()) / 1e9
	t.mu.Lock()
	hit := rate > 0 && t.rng.Float64() < rate
	var seed uint64
	var kind int
	if hit {
		seed = t.rng.Uint64()
		kind = t.pickKind()
	}
	t.mu.Unlock()
	if !hit {
		return resp, nil
	}

	body, err := io.ReadAll(io.LimitReader(resp.Body, maxShipBytes))
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	body = corruptBytes(body, kind, seed)
	t.Corrupted.Add(1)
	resp.Body = io.NopCloser(bytes.NewReader(body))
	resp.ContentLength = int64(len(body))
	resp.Header = resp.Header.Clone()
	resp.Header.Del("Content-Length")
	return resp, nil
}

// errLinkCut is what a severed connection surfaces to a body reader.
var errLinkCut = fmt.Errorf("fleet: connection cut mid-stream (injected)")

// CutTransport severs segment downloads mid-stream: with probability
// Rate, a /v1/gen/segment/ response body delivers a seeded fraction of
// its bytes and then fails with a transport error — exactly the shape
// a dropped TCP connection presents to a reader, as opposed to
// FaultyTransport's complete-but-wrong bodies. The resumable puller
// must keep the delivered prefix staged and continue it with a ranged
// GET; Cuts counts injections so soaks can assert the drill actually
// fired. 206 resumption responses are cut too — a flaky link does not
// spare retries.
type CutTransport struct {
	Base http.RoundTripper
	Seed uint64

	rate atomic.Uint64 // fixed-point parts-per-1e9, like FaultyTransport
	Cuts atomic.Int64

	mu  sync.Mutex
	rng *rand.Rand
}

// NewCutTransport wraps base (nil means http.DefaultTransport).
func NewCutTransport(base http.RoundTripper, seed uint64) *CutTransport {
	t := &CutTransport{Base: base, Seed: seed}
	t.rng = rand.New(rand.NewPCG(seed, 0xC11))
	return t
}

// SetRate adjusts the cut probability (0 disables injection).
func (t *CutTransport) SetRate(rate float64) { t.rate.Store(floatBits(rate)) }

func (t *CutTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil || !strings.Contains(req.URL.Path, shipPrefix+"segment/") ||
		(resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent) {
		return resp, err
	}
	rate := float64(t.rate.Load()) / 1e9
	t.mu.Lock()
	hit := rate > 0 && t.rng.Float64() < rate
	var frac float64
	if hit {
		frac = t.rng.Float64()
	}
	t.mu.Unlock()
	if !hit {
		return resp, nil
	}
	length := resp.ContentLength
	if length <= 0 {
		length = 64 << 10
	}
	t.Cuts.Add(1)
	resp.Body = &cutBody{rc: resp.Body, remaining: int64(frac * float64(length))}
	return resp, nil
}

// cutBody delivers its byte budget, then fails like a severed link.
type cutBody struct {
	rc        io.ReadCloser
	remaining int64
}

func (c *cutBody) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		return 0, errLinkCut
	}
	if int64(len(p)) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.rc.Read(p)
	c.remaining -= int64(n)
	return n, err
}

func (c *cutBody) Close() error { return c.rc.Close() }

// Partitioner is a network partition at the RoundTripper layer:
// requests to blocked hosts fail immediately with a transport error —
// no packet sent, exactly the shape a severed link presents to an HTTP
// client. One Partitioner per directed edge (front→replica,
// replica→primary, replica→front); composing over a FaultyTransport
// (Base) stacks partition on top of corruption.
type Partitioner struct {
	Base http.RoundTripper

	mu      sync.Mutex
	blocked map[string]bool

	Blocked atomic.Int64 // requests refused, for test accounting
}

// NewPartitioner wraps base (nil means http.DefaultTransport).
func NewPartitioner(base http.RoundTripper) *Partitioner {
	return &Partitioner{Base: base, blocked: make(map[string]bool)}
}

// Block severs the link to each URL's host until Unblock/Heal.
func (p *Partitioner) Block(urls ...string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, u := range urls {
		if h := hostOf(u); h != "" {
			p.blocked[h] = true
		}
	}
}

// Unblock restores the link to each URL's host.
func (p *Partitioner) Unblock(urls ...string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, u := range urls {
		delete(p.blocked, hostOf(u))
	}
}

// Heal restores every link.
func (p *Partitioner) Heal() {
	p.mu.Lock()
	defer p.mu.Unlock()
	clear(p.blocked)
}

func (p *Partitioner) isBlocked(host string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blocked[host]
}

func (p *Partitioner) RoundTrip(req *http.Request) (*http.Response, error) {
	if p.isBlocked(req.URL.Host) {
		p.Blocked.Add(1)
		return nil, fmt.Errorf("chaos: partitioned from %s", req.URL.Host)
	}
	base := p.Base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}

// hostOf extracts host:port from a URL or returns the input when it
// already is one ("127.0.0.1:8080" parses with an empty url.Host).
func hostOf(u string) string {
	if parsed, err := url.Parse(u); err == nil && parsed.Host != "" {
		return parsed.Host
	}
	return u
}

// SkewTransport shifts the sent_at timestamp of every /v1/fleet/join
// body passing through it by an adjustable offset: the clock-skew
// fault. Leases live on the front's clock, so the front must keep
// granting them regardless.
type SkewTransport struct {
	offset atomic.Int64 // nanoseconds
}

// Set makes the announcing replica's clock run d fast (slow if d < 0).
func (s *SkewTransport) Set(d time.Duration) { s.offset.Store(int64(d)) }

// Offset reports the current clock offset.
func (s *SkewTransport) Offset() time.Duration { return time.Duration(s.offset.Load()) }

func (s *SkewTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if d := s.Offset(); d != 0 && req.URL.Path == fleetPrefix+"join" {
		var body joinRequest
		err := json.NewDecoder(req.Body).Decode(&body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		if at, err := time.Parse(time.RFC3339Nano, body.SentAt); err == nil {
			body.SentAt = at.Add(d).Format(time.RFC3339Nano)
		}
		payload, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		req = req.Clone(req.Context())
		req.Body, req.ContentLength = io.NopCloser(bytes.NewReader(payload)), int64(len(payload))
	}
	return http.DefaultTransport.RoundTrip(req)
}

// SlowGate makes a handler slow or hung without killing the process:
// the slow-replica fault. Delay > 0 stalls every request by that much
// before serving; Hang blocks requests until the client gives up (the
// hung-replica fault — the caller's timeout, not this gate, ends the
// wait). Zero value is a transparent gate.
type SlowGate struct {
	delayNanos atomic.Int64 // -1 = hang
}

// SetDelay stalls each gated request by d (0 restores pass-through).
func (g *SlowGate) SetDelay(d time.Duration) { g.delayNanos.Store(int64(d)) }

// Hang blocks every gated request until its client disconnects.
func (g *SlowGate) Hang() { g.delayNanos.Store(-1) }

// Clear restores pass-through.
func (g *SlowGate) Clear() { g.delayNanos.Store(0) }

// Wrap gates h.
func (g *SlowGate) Wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch d := g.delayNanos.Load(); {
		case d < 0:
			<-r.Context().Done() // hung: never answer, let the probe/request deadline fire
			return
		case d > 0:
			select {
			case <-time.After(time.Duration(d)):
			case <-r.Context().Done():
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

// Mutation kinds, selected by the profile's weights.
const (
	mutGarble = iota
	mutTruncate
	mutDuplicate
	mutReorder
	mutShred
)

func (t *FaultyTransport) pickKind() int {
	p := t.Profile
	total := p.GarbleW + p.TruncateW + p.DuplicateW + p.ReorderW + p.ShredW
	if total == 0 {
		return mutGarble
	}
	r := t.rng.IntN(total)
	switch {
	case r < p.GarbleW:
		return mutGarble
	case r < p.GarbleW+p.TruncateW:
		return mutTruncate
	case r < p.GarbleW+p.TruncateW+p.DuplicateW:
		return mutDuplicate
	case r < p.GarbleW+p.TruncateW+p.DuplicateW+p.ReorderW:
		return mutReorder
	default:
		return mutShred
	}
}

// corruptBytes applies one byte-level mutation. Deterministic in
// (data, kind, seed). Always returns a buffer that differs from data
// when len(data) > 0.
func corruptBytes(data []byte, kind int, seed uint64) []byte {
	if len(data) == 0 {
		return []byte{0xFF}
	}
	rng := rand.New(rand.NewPCG(seed, uint64(kind)|1))
	chunk := len(data) / 4
	if chunk < 1 {
		chunk = 1
	}
	switch kind {
	case mutTruncate:
		return data[:rng.IntN(len(data))]
	case mutDuplicate:
		at := rng.IntN(len(data))
		n := min(chunk, len(data)-at)
		return append(append([]byte{}, data...), data[at:at+n]...)
	case mutReorder:
		if len(data) >= 2*chunk {
			out := append([]byte{}, data...)
			a := rng.IntN(len(out) - 2*chunk + 1)
			b := a + chunk
			for i := 0; i < chunk; i++ {
				out[a+i], out[b+i] = out[b+i], out[a+i]
			}
			if !bytes.Equal(out, data) {
				return out
			}
		}
		return synth.FlipBits(data, seed, 3)
	case mutShred:
		at := rng.IntN(len(data))
		n := min(chunk, len(data)-at)
		return append(append([]byte{}, data[:at]...), data[at+n:]...)
	default: // mutGarble
		return synth.FlipBits(data, seed, 1+rng.IntN(8))
	}
}
