package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hftnetview/internal/serve"
	"hftnetview/internal/store"
	"hftnetview/internal/synth"
)

// The chaos soaks E21, E23 and E24 share one harness: a soakSpec names
// a drill's wiring, sizes, cadences and fault palette, and the harness
// assembles the fleet, publishes, waits out the bootstrap, drives the
// audited client load and the seeded Campaign, waits for the fleet to
// re-converge after every round, and runs the shared end-of-drill
// checks. Each entry point adds only the drills that are its own.

// soakWiring is how the replicas find the front and their pull source.
type soakWiring int

const (
	staticReplicas soakWiring = iota // permanent members pulling a primary (E21, hftload's fleet-churn)
	selfRegistered                   // lease-holding members pulling a primary (E23)
	promotedSource                   // lease-holding members pulling the source the front elects (E24)
)

// soakSpec is one drill; its durations carry the drill's raceScale.
// The campaign runs soakFor and the client load soakFor+loadTail, on
// into the entry point's own drills. The harness adds the members, the
// primary, promotion and a partitionable transport to front. A 200 may
// lag the newest generation published before its request by
// front.StalenessBound+slack. publishKeep and keep are the GC retention
// at the write source and at each replica, segmentTarget sizes the seed
// generation, and scrubEvery 0 runs no scrubber. Replica i's pull wire
// corrupts segment downloads at wireRate, seeded wireSeed+i; the last
// replica's clock is off by skew. Client c reads queries[c mod len] (or
// draws each from PCG(c, drawSeed) when set), pausing shedPause after a
// 503. The harness adds the palette and the convergence wait to
// campaign; converged, when set, must also hold.
type soakSpec struct {
	wiring                                             soakWiring
	replicas, clients                                  int
	soakFor, loadTail                                  time.Duration
	front                                              FrontConfig
	slack                                              int64
	publishEvery, pullEvery, announceEvery, scrubEvery time.Duration
	publishKeep, keep, segmentTarget                   int
	wireSeed, drawSeed                                 uint64
	wireRate                                           float64
	skew, bootstrapWait, convergeBudget, shedPause     time.Duration
	queries                                            []string
	campaign                                           Campaign
	palette                                            func(s *soak) []Fault
	converged                                          func(s *soak) bool
}

// leasedFront is the front of the lease-holding drills (E23, E24).
func leasedFront(leaseTTL, checkEvery time.Duration) FrontConfig {
	return FrontConfig{
		StalenessBound: 3,
		LeaseTTL:       leaseTTL,
		HedgeAfter:     50 * time.Millisecond,
		RequestTimeout: 3 * time.Second,
		RetryAfter:     100 * time.Millisecond,
		CheckInterval:  checkEvery,
		Client:         &http.Client{Timeout: 2 * time.Second},
	}
}

// soakQueries is the audited read mix.
var soakQueries = []string{
	"/v1/snapshot",
	"/v1/snapshot?licensee=New%20Line%20Networks",
	"/v1/rank?metric=rail",
	"/v1/evolution?licensee=Webline%20Holdings",
	"/v1/apa",
}

// soakMember is one replica with the fault handles wired around it.
type soakMember struct {
	*ChaosReplica
	wire     *FaultyTransport
	pull     *Partitioner // replica→source, over the wire
	announce *Partitioner // replica→front, over the skew
	skew     *SkewTransport
	gate     *SlowGate
}

// soak is one running drill.
type soak struct {
	t    *testing.T
	spec soakSpec

	ctx         context.Context
	cancel      context.CancelFunc
	bg, clients sync.WaitGroup

	primary    *store.Store // nil when the source is promoted
	primaryURL string
	f          *Front
	frontURL   string
	frontPart  *Partitioner // front→replica
	outage     *Partitioner // everyone→primary, under the other links
	replicas   []*soakMember

	// published holds every (generation, digest) pair ever published: a
	// promoted source's branch may reuse ids of the dead source's
	// unshipped tail, and both are real. latest only rises.
	published sync.Map // pubKey → true
	latest    atomic.Int64
	pubPaused atomic.Bool
	killMu    sync.Mutex // a Save never races the kill of its target

	oks, sheds atomic.Int64
	drawn      map[string]int // injections per fault kind; campaign goroutine only
	flips      int            // bit flips landed; likewise
}

type pubKey struct {
	id     int64
	digest string
}

func (s *soak) record(gi *store.GenInfo) {
	s.published.Store(pubKey{gi.ID, gi.CorpusSHA256}, true)
	for cur := s.latest.Load(); gi.ID > cur && !s.latest.CompareAndSwap(cur, gi.ID); cur = s.latest.Load() {
	}
}

// startSoak assembles the drill's fleet, starts the publisher, and
// waits until every member is routable (and, for a promoted fleet, r1
// holds the source role).
func startSoak(t *testing.T, spec soakSpec) *soak {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	s := &soak{t: t, spec: spec, drawn: map[string]int{}}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	if spec.wiring != promotedSource {
		var gi *store.GenInfo
		s.primary, gi, s.primaryURL = newPrimary(t, corpus(t), spec.segmentTarget)
		s.record(gi)
	}
	// Bind the front first: replicas announce to it, and a static front
	// lists the replicas' addresses.
	frontSrv := httptest.NewUnstartedServer(nil)
	t.Cleanup(frontSrv.Close)
	s.frontURL = "http://" + frontSrv.Listener.Addr().String()

	baseDir := t.TempDir()
	mixed := synth.Profiles()[len(synth.Profiles())-1]
	s.outage = NewPartitioner(nil)
	for i := 0; i < spec.replicas; i++ {
		m := &soakMember{wire: NewFaultyTransport(s.outage, mixed, spec.wireSeed+uint64(i)), skew: &SkewTransport{}, gate: &SlowGate{}}
		m.wire.SetRate(spec.wireRate)
		m.pull, m.announce = NewPartitioner(m.wire), NewPartitioner(m.skew)
		name := fmt.Sprintf("r%d", i+1)
		m.ChaosReplica = &ChaosReplica{
			Name:          name,
			StoreDir:      filepath.Join(baseDir, name),
			PullInterval:  spec.pullEvery,
			Transport:     m.pull,
			Keep:          spec.keep,
			ScrubInterval: spec.scrubEvery,
			ScrubPause:    time.Millisecond,
			// High enough that the ladder never quarantines a generation
			// the campaign's repair paths just haven't reached yet.
			ScrubQuarantineAfter: 25,
			ServeCfg: serve.Config{
				MaxInFlight:      4,
				MaxQueueWait:     2 * time.Millisecond,
				RequestTimeout:   5 * time.Second,
				BreakerThreshold: 1 << 30, // engine faults aren't the soaks' chaos
			},
			AnnounceTransport: m.announce,
			AnnounceInterval:  spec.announceEvery,
			Gate:              m.gate,
		}
		if spec.wiring == promotedSource {
			m.PullFront = s.frontURL
		} else {
			m.Primary = s.primaryURL
		}
		if spec.wiring != staticReplicas {
			m.Front = s.frontURL
		}
		s.replicas = append(s.replicas, m)
	}
	s.replicas[spec.replicas-1].skew.Set(spec.skew)
	if spec.wiring == promotedSource { // r1 boots holding a generation, so the first election picks it
		seed, err := store.Open(s.replicas[0].StoreDir, store.WithSegmentTarget(spec.segmentTarget), store.WithBlockLicenses(8))
		if err != nil {
			t.Fatal(err)
		}
		gi, err := seed.Save(corpus(t), "soak seed")
		if err != nil {
			t.Fatal(err)
		}
		s.record(gi)
		seed.Close()
	}
	cfg := spec.front
	for _, m := range s.replicas {
		if err := m.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Kill)
		if spec.wiring == staticReplicas {
			cfg.Replicas = append(cfg.Replicas, Replica{Name: m.Name, URL: m.URL()})
		}
	}

	cfg.Primary, cfg.Promote = s.primaryURL, spec.wiring == promotedSource
	s.frontPart = NewPartitioner(s.outage)
	cfg.Client.Transport = s.frontPart
	s.f = NewFront(cfg)
	frontSrv.Config.Handler = s.f.Handler()
	frontSrv.Start()
	go s.f.Run(s.ctx)
	// Registered last, so it runs first: the load and the background
	// loops stop before the servers they talk to close.
	t.Cleanup(func() { s.cancel(); s.clients.Wait(); s.bg.Wait() })

	waitFor(t, spec.bootstrapWait, "fleet bootstrap", func() bool {
		return len(s.f.routable()) == spec.replicas && s.f.Members().Len() == spec.replicas &&
			(spec.wiring != promotedSource || s.f.Members().Source().Name == "r1")
	})
	// A promoted source's save fails only while it is being torn down,
	// and the next tick follows the new role; the primary never is.
	n := 0
	s.every(spec.publishEvery, func() {
		n++
		if err := s.publish(n); err != nil && s.primary != nil {
			t.Errorf("publisher %d: %v", n, err)
		}
	})
	return s
}

// every runs fn every d on a background goroutine until the soak stops.
func (s *soak) every(d time.Duration, fn func()) {
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		for {
			select {
			case <-s.ctx.Done():
				return
			case <-time.After(d):
			}
			fn()
		}
	}()
}

// publish saves generation n into the primary, or into whichever member
// holds the source role (the writer follows the election), unless
// publishing is paused, and GCs the source's history — racing replica
// pulls by design: a swept generation must surface to a puller as a
// clean retry, never a bad install.
func (s *soak) publish(n int) error {
	if s.pubPaused.Load() {
		return nil
	}
	s.killMu.Lock()
	defer s.killMu.Unlock()
	st, srv := s.primary, (*serve.Server)(nil)
	if m := s.replica(s.f.Members().Source().Name); st == nil && m != nil {
		st, srv = m.Store(), m.Server()
	}
	if st == nil || (s.primary == nil && srv == nil) {
		return nil
	}
	gi, err := st.Save(corpus(s.t), fmt.Sprintf("soak update %d", n))
	if err != nil {
		return err
	}
	if srv != nil {
		srv.PublishStoreGeneration(corpus(s.t), gi)
	}
	s.record(gi)
	_, err = st.GC(s.spec.publishKeep)
	return err
}

// replica returns the named member, or nil.
func (s *soak) replica(name string) *soakMember {
	for _, m := range s.replicas {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// run starts the audited client load and drives the Campaign for
// soakFor, returning its rounds. Within convergeBudget of every heal,
// each replica must be running and in the ring (and converged hold).
func (s *soak) run() int {
	deadline := time.Now().Add(s.spec.soakFor + s.spec.loadTail)
	for c := 0; c < s.spec.clients; c++ {
		s.clients.Add(1)
		go s.client(c, deadline)
	}
	ctx, cancel := context.WithTimeout(s.ctx, s.spec.soakFor)
	defer cancel()
	camp := s.spec.campaign
	camp.Faults = s.spec.palette(s)
	camp.OnRoundHealed = func(round int, injected []string) bool {
		healed := time.Now()
		for !s.converged() {
			if time.Since(healed) > s.spec.convergeBudget {
				s.t.Errorf("round %d (%s): fleet did not re-converge within %v of heal; %d members, source %+v",
					round, strings.Join(injected, "+"), s.spec.convergeBudget, s.f.Members().Len(), s.f.Members().Source())
				return false
			}
			time.Sleep(2 * time.Millisecond)
		}
		return true
	}
	return camp.Run(ctx)
}

func (s *soak) converged() bool {
	for _, m := range s.replicas {
		if !m.Running() || !s.f.Members().Has(m.Name) {
			return false
		}
	}
	return s.spec.converged == nil || s.spec.converged(s)
}

// client c reads the query mix until the deadline. Every response must
// be a 200 or a 503 with Retry-After. A 200 carries a published (generation,
// digest) pair — a corrupted shipment that slipped through verification
// would show up here — no staler than the bound plus the drill's slack
// (publishes mid-flight, probe lag, heal catch-up, a re-anchored floor).
func (s *soak) client(c int, deadline time.Time) {
	defer s.clients.Done()
	client := &http.Client{Timeout: 8 * time.Second}
	qs, rng := s.spec.queries, rand.New(rand.NewPCG(uint64(c), s.spec.drawSeed))
	for time.Now().Before(deadline) && s.ctx.Err() == nil {
		q := qs[c%len(qs)]
		if s.spec.drawSeed != 0 {
			q = qs[rng.IntN(len(qs))]
		}
		newest := s.latest.Load()
		resp, err := client.Get(s.frontURL + q)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			err = s.audit(resp, newest)
		}
		if err != nil {
			s.t.Errorf("client %d %s: %v", c, q, err)
			return
		}
	}
}

func (s *soak) audit(resp *http.Response, newest int64) error {
	switch resp.StatusCode {
	case http.StatusOK:
		s.oks.Add(1)
		gen, err := strconv.ParseInt(resp.Header.Get("X-Corpus-Generation"), 10, 64)
		if err != nil || gen <= 0 {
			return fmt.Errorf("200 with bad X-Corpus-Generation %q", resp.Header.Get("X-Corpus-Generation"))
		}
		digest := resp.Header.Get("X-Corpus-Digest")
		if _, ok := s.published.Load(pubKey{gen, digest}); !ok {
			return fmt.Errorf("200 served generation %d with digest %s, never published under that id — wrong corpus went live", gen, digest)
		}
		if bound := s.spec.front.StalenessBound; gen < newest-(bound+s.spec.slack) {
			return fmt.Errorf("response generation %d beyond staleness budget (newest was %d, bound %d)", gen, newest, bound)
		}
	case http.StatusServiceUnavailable:
		s.sheds.Add(1)
		if resp.Header.Get("Retry-After") == "" {
			return errors.New("503 without Retry-After")
		}
		// A drill may back off a beat: a client that hammers a shedding
		// front in a hot loop is its own chaos.
		time.Sleep(s.spec.shedPause)
	default:
		return fmt.Errorf("status %d — the error surface must be exactly {200, 503}", resp.StatusCode)
	}
	return nil
}

// fault builds one palette entry aimed at replica i (i < 0 for the
// primary outage), counting its injections in drawn.
func (s *soak) fault(kind string, i int) Fault {
	f := Fault{Name: kind}
	var m *soakMember
	if i >= 0 {
		m = s.replicas[i]
		f.Name += "-" + m.Name
	}
	switch kind {
	case "kill":
		f.Inject = func() { s.killMu.Lock(); m.Kill(); s.killMu.Unlock() }
		f.Heal = func() {
			if !m.Running() {
				if err := m.Start(); err != nil {
					s.t.Errorf("chaos restart %s: %v", m.Name, err)
				}
			}
		}
	case "partition-front": // both directions, renewals included
		f.Inject = func() { s.frontPart.Block(m.URL()); m.announce.Block(s.frontURL) }
		f.Heal = func() { s.frontPart.Unblock(m.URL()); m.announce.Unblock(s.frontURL) }
	case "pause-announce":
		// The silent death: the front still probes the replica, but no
		// renewal arrives; held past the TTL, the lease lapses.
		f.Inject = func() { m.announce.Block(s.frontURL) }
		f.Heal = func() { m.announce.Unblock(s.frontURL) }
	case "partition-primary": // it keeps serving its last install
		f.Inject = func() { m.pull.Block(s.primaryURL) }
		f.Heal = func() { m.pull.Unblock(s.primaryURL) }
	case "primary-outage":
		// Nobody can pull, the front's generation poll goes dark and
		// nothing new is published: the fleet answers from what it has.
		f.Inject = func() { s.pubPaused.Store(true); s.outage.Block(s.primaryURL) }
		f.Heal = func() { s.outage.Unblock(s.primaryURL); s.pubPaused.Store(false) }
	case "corrupt-burst":
		f.Inject = func() { m.wire.SetRate(0.25) }
		f.Heal = func() { m.wire.SetRate(s.spec.wireRate) }
	case "bitrot":
		f.Inject = func() {
			if flipOnDisk(m.ChaosReplica) {
				s.flips++
			}
		}
		f.Heal = func() {} // only the scrubber heals bit rot
	case "slow": // past the probe timeout: reads hedge to a sibling
		f.Inject = func() { m.gate.SetDelay(120 * time.Millisecond) }
		f.Heal = m.gate.Clear
	case "hang":
		f.Inject, f.Heal = m.gate.Hang, m.gate.Clear
	case "skew-flip": // three hours slow mid-lease; renewals sail through
		var was time.Duration
		f.Inject = func() { was = m.skew.Offset(); m.skew.Set(-3 * time.Hour) }
		f.Heal = func() { m.skew.Set(was) }
	default:
		s.t.Fatalf("unknown fault kind %q", kind)
	}
	inject := f.Inject
	f.Inject = func() { s.drawn[kind]++; inject() }
	return f
}

// each builds the named fault kinds for every replica, replica-major.
func (s *soak) each(kinds ...string) []Fault {
	var faults []Fault
	for i := range s.replicas {
		for _, kind := range kinds {
			faults = append(faults, s.fault(kind, i))
		}
	}
	return faults
}

// flipOnDisk injects bit rot: one payload byte of one committed
// segment, preferring the second-newest generation (already replicated
// to peers, so a verified repair copy exists). Returns whether a byte
// actually flipped.
func flipOnDisk(r *ChaosReplica) bool {
	st := r.Store()
	if st == nil {
		return false
	}
	gens, err := st.List()
	if err != nil || len(gens) == 0 {
		return false
	}
	g := gens[max(len(gens)-2, 0)]
	if len(g.Segments) == 0 {
		return false
	}
	path, _, _, err := st.SegmentHandle(g.ID, g.Segments[len(g.Segments)/2].Name)
	if err != nil {
		return false // generation GC'd or quarantined mid-draw
	}
	fh, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return false // likewise
	}
	defer fh.Close()
	buf := make([]byte, 1)
	// Offset 16 is the first payload byte: past the 8-byte magic and the
	// first frame's length+CRC header.
	if _, err := fh.ReadAt(buf, 16); err != nil {
		return false
	}
	buf[0] ^= 0x40
	_, err = fh.WriteAt(buf, 16)
	return err == nil
}

// soakTotals sums the replicas' lifetime counters and wire injections.
type soakTotals struct {
	Pull      PullStatus
	Scrub     store.ScrubStatus
	Corrupted int64
}

// check waits out the load, stops the background loops, and runs the
// end-of-drill assertions every drill shares: the campaign ran, clients
// got answers, every corrupted download was caught, every replica
// bootstrapped. It returns the totals for the entry point's own.
func (s *soak) check(rounds int) soakTotals {
	t := s.t
	s.clients.Wait()
	s.cancel()
	s.bg.Wait()
	if rounds < 3 {
		t.Errorf("only %d campaign rounds in %v — the fault mixer barely ran", rounds, s.spec.soakFor)
	}
	if s.oks.Load() == 0 {
		t.Fatal("no successful responses during the soak")
	}
	var tot soakTotals
	for _, m := range s.replicas {
		tot.Corrupted += m.wire.Corrupted.Load()
		tot.Pull = addPullCounters(tot.Pull, m.CumulativeStatus())
		tot.Scrub = addScrubCounters(tot.Scrub, m.CumulativeScrub())
	}
	if tot.Corrupted > 0 && tot.Pull.Rejections+tot.Scrub.Repaired == 0 {
		t.Error("the wire corrupted segments but nothing was ever rejected or repaired")
	}
	bootstraps := int64(len(s.replicas))
	if s.primary == nil {
		bootstraps-- // the seeded source boots from its own disk
	}
	if tot.Pull.Installs < bootstraps {
		t.Errorf("%d installs across the fleet, want at least the %d bootstrap pulls", tot.Pull.Installs, bootstraps)
	}
	ms, fs := s.f.Members().Stats(), s.f.Stats()
	t.Logf("soak: %d rounds, %d ok, %d shed; faults drawn %v, %d bit flips; %d corrupted downloads; pulls %+v; scrub %+v; membership: joins=%d renews=%d evictions=%d maxSkew=%.0fs source=%+v; front: requests=%d retried=%d hedged=%d shed=%d",
		rounds, s.oks.Load(), s.sheds.Load(), s.drawn, s.flips, tot.Corrupted, tot.Pull, tot.Scrub,
		ms.Joins, ms.Renews, ms.Evictions, ms.MaxSkewSeconds, ms.Source, fs.Requests, fs.Retried, fs.Hedged, fs.Shed)
	return tot
}

// TestFleetChaosSoak is E21: three static replicas behind the failover
// front tier, under saturating audited load, while the campaign kills
// one replica at a time and restarts it, the primary keeps publishing
// and GC'ing generations, and every replica's wire corrupts segment
// downloads with the synth corruption profiles. `make fleet-soak` runs
// it alone under -race; `make ci` runs it once, in `make race`.
func TestFleetChaosSoak(t *testing.T) {
	s := startSoak(t, soakSpec{
		wiring: staticReplicas, replicas: 3, clients: 8,
		soakFor: 4 * time.Second * raceScale,
		front: FrontConfig{
			StalenessBound: 3,
			HedgeAfter:     50 * time.Millisecond,
			RequestTimeout: 5 * time.Second,
			CheckInterval:  25 * time.Millisecond,
			Client:         &http.Client{Timeout: 5 * time.Second},
		},
		slack:        2,
		publishEvery: 350 * time.Millisecond * raceScale, pullEvery: 80 * time.Millisecond,
		publishKeep: 4, keep: 3, segmentTarget: 32 << 10,
		// ~5% of segment downloads arrive mangled: constant rejection
		// pressure while most replicas still keep up.
		wireSeed: 1000, wireRate: 0.05,
		bootstrapWait: 10 * time.Second,
		queries:       soakQueries, drawSeed: 99,
		palette: func(s *soak) []Fault { return s.each("kill") },
		// One kill at a time, restarted after 150ms, every 300ms.
		campaign: Campaign{Seed: 42, MaxActive: 1, HoldMin: 150 * time.Millisecond, HoldMax: 150 * time.Millisecond,
			Settle: 300 * time.Millisecond * raceScale},
	})
	tot := s.check(s.run())
	if s.drawn["kill"] < 3 {
		t.Errorf("only %d kills in %v — chaos controller barely ran", s.drawn["kill"], s.spec.soakFor)
	}
	if tot.Corrupted == 0 {
		t.Error("fault transports injected nothing — the corruption leg is vacuous")
	}
}
