package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hftnetview/internal/engine"
	"hftnetview/internal/fleet"
	"hftnetview/internal/serve"
	"hftnetview/internal/store"
	"hftnetview/internal/synth"
	"hftnetview/internal/uls"
)

// node is one replica: a query server on loopback, and in the fleet its
// store and pull loop.
type node struct {
	name   string
	url    string
	srv    *serve.Server
	puller *fleet.Puller
	fetch  *fetchClock // traced fleet runs only
	tally  engineTally
}

// rig is a running system under test, built from public constructors
// with default configuration everywhere but addresses, store
// directories and puller wiring.
type rig struct {
	target   string // base URL the load is sent to
	replicas []*node
	keys     []request // the hot keys set-up requested, in order
	touched  []outcome // and their outcomes

	// base is the corpus every generation derives from: a single
	// replica serves it as is, the fleet publishes it first and then
	// one variant of it per publish, each cut just before it is
	// published. gens maps every generation to the licensee its corpus
	// drops ("" for base), so a variant is rebuilt when needed and the
	// harness holds no corpus but base.
	base *uls.Database
	gens map[int64]string

	// Fleet only.
	primary *serve.Server
	pstore  *store.Store
	front   *fleet.Front
	order   []string   // the small licensees, in the seeded order variants drop them
	pub     *published // the checker's published set

	closers []func() // run in reverse by close
}

// close stops every server and drops them, so their memos are garbage
// by the time anything after the run — the layer replay — allocates.
func (r *rig) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	r.closers = nil
	for _, n := range r.replicas {
		n.srv, n.puller = nil, nil
	}
	r.primary, r.pstore, r.front = nil, nil, nil
}

// listen serves h on a fresh loopback port until the returned stop,
// which waits for the server loop to exit.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln) // returns ErrServerClosed on stop
		close(done)
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

// serveOn starts h and registers its stop with the rig.
func (r *rig) serveOn(h http.Handler) (string, error) {
	url, stop, err := listen(h)
	if err != nil {
		return "", err
	}
	r.closers = append(r.closers, stop)
	return url, nil
}

// waitReady polls url's /readyz until it answers 200 and, when
// routable > 0, reports at least that many routable replicas.
func waitReady(c *http.Client, url string, routable int) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(url + "/readyz")
		if err == nil {
			var body struct {
				Routable int `json:"routable"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && derr == nil && body.Routable >= routable {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/readyz not ready after 10s (last error: %v)", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// setup builds the workload's system, waits until every server is
// ready, and requests each hot key once through the load's target,
// checking every answer. tr, when set, wraps every handler and puller
// transport for the traced run.
func setup(w workload, seed uint64, workdir string, tr *tracer, keys []request, chk *checker) (*rig, error) {
	r := &rig{gens: make(map[int64]string), pub: chk.published}
	var err error
	if w.fleet {
		err = r.startFleet(seed, workdir, tr)
	} else {
		err = r.startSingle(tr)
	}
	if err == nil {
		err = r.touch(keys, chk)
	}
	if err != nil {
		r.close()
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	return r, nil
}

func wrapped(tr *tracer, layer, node string, h http.Handler) http.Handler {
	if tr == nil {
		return h
	}
	return tr.wrap(layer, node, h)
}

// startSingle is one replica serving the synthetic corpus.
func (r *rig) startSingle(tr *tracer) error {
	db, err := synth.Generate()
	if err != nil {
		return err
	}
	n := &node{name: "replica-1", srv: serve.New(serve.Config{})}
	n.srv.SetCorpus(db, "synth")
	r.base, r.gens[0] = db, "" // no store: responses carry no generation header
	if n.url, err = r.serveOn(wrapped(tr, "serve", n.name, n.srv.Handler())); err != nil {
		return err
	}
	r.replicas = []*node{n}
	r.target = n.url
	return waitReady(http.DefaultClient, n.url, 0)
}

// fleetReplicas is the fleet's replica count.
const fleetReplicas = 2

// startFleet is a publishing primary with its own store and shipping
// endpoints, two pull replicas with their own stores, and a front over
// the replicas. The publisher's variant k is the full corpus minus the
// k-th small licensee of a seeded permutation, so every generation ships
// a changed tail while the paper's tables stay fixed.
func (r *rig) startFleet(seed uint64, workdir string, tr *tracer) error {
	var err error
	if r.base, err = synth.Generate(); err != nil {
		return err
	}
	small := synth.SmallLicensees()
	for _, k := range rngFor(seed, "fleet-churn", "variants").Perm(len(small)) {
		r.order = append(r.order, small[k].Name)
	}

	dir, err := os.MkdirTemp(workdir, "hftload-fleet-")
	if err != nil {
		return err
	}
	r.closers = append(r.closers, func() { os.RemoveAll(dir) })
	open := func(name string) (*store.Store, error) {
		st, err := store.Open(filepath.Join(dir, name))
		if err == nil {
			r.closers = append(r.closers, func() { st.Close() })
		}
		return st, err
	}

	if r.pstore, err = open("primary"); err != nil {
		return err
	}
	r.primary = serve.New(serve.Config{})
	r.primary.AttachStore(r.pstore)
	if _, err := r.publish(r.base, ""); err != nil {
		return err
	}
	primaryURL, err := r.serveOn(fleet.WithShipping(r.primary.Handler(), fleet.NewShipper(r.pstore)))
	if err != nil {
		return err
	}

	var members []fleet.Replica
	for i := 1; i <= fleetReplicas; i++ {
		n := &node{name: fmt.Sprintf("replica-%d", i), srv: serve.New(serve.Config{})}
		st, err := open(n.name)
		if err != nil {
			return err
		}
		n.srv.AttachStore(st)
		pc := fleet.PullerConfig{Primary: primaryURL, Store: st, Server: n.srv}
		if tr != nil {
			n.fetch = &fetchClock{base: http.DefaultTransport}
			pc.Client = &http.Client{Timeout: 30 * time.Second, Transport: n.fetch}
		}
		n.puller = fleet.NewPuller(pc)
		if ok, err := n.puller.PullOnce(context.Background()); !ok {
			return fmt.Errorf("%s initial pull: installed=%v: %v", n.name, ok, err)
		}
		if n.url, err = r.serveOn(wrapped(tr, "serve", n.name, n.srv.Handler())); err != nil {
			return err
		}
		r.replicas = append(r.replicas, n)
		members = append(members, fleet.Replica{Name: n.name, URL: n.url})
	}

	r.front = fleet.NewFront(fleet.FrontConfig{Replicas: members, Primary: primaryURL})
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		r.front.Run(ctx)
		close(stopped)
	}()
	r.closers = append(r.closers, func() { cancel(); <-stopped })
	if r.target, err = r.serveOn(wrapped(tr, "fleet.front", "front", r.front.Handler())); err != nil {
		return err
	}
	for _, u := range []string{primaryURL, r.replicas[0].url, r.replicas[1].url} {
		if err := waitReady(http.DefaultClient, u, 0); err != nil {
			return err
		}
	}
	return waitReady(http.DefaultClient, r.target, fleetReplicas)
}

// without copies db minus every license of one licensee.
func without(db *uls.Database, licensee string) (*uls.Database, error) {
	var keep []*uls.License
	for _, l := range db.All() {
		if l.Licensee != licensee {
			keep = append(keep, l)
		}
	}
	out := uls.NewDatabase()
	if err := out.AddBulk(keep, uls.BulkAddOptions{TrustValidated: true}); err != nil {
		return nil, err
	}
	return out, nil
}

// publish installs db — base minus the licensee dropped — on the
// primary, which persists it as a new store generation, and records
// that generation as published.
func (r *rig) publish(db *uls.Database, dropped string) (int64, error) {
	r.primary.SetCorpus(db, "hftload variant")
	gen, digest, ok := r.primary.StoreIdentity()
	if _, seen := r.gens[gen]; !ok || seen {
		return 0, fmt.Errorf("primary did not persist a new generation: %+v", r.primary.PersistStatus())
	}
	r.pub.add(gen, digest)
	r.gens[gen] = dropped
	return gen, nil
}

// corpusOf rebuilds the corpus generation gen served.
func (r *rig) corpusOf(gen int64) (*uls.Database, error) {
	dropped, ok := r.gens[gen]
	switch {
	case !ok:
		return nil, fmt.Errorf("answer from unknown generation %d", gen)
	case dropped == "":
		return r.base, nil
	}
	return without(r.base, dropped)
}

// touch requests every key once through the target and checks it,
// keeping the outcomes for the layer replay.
func (r *rig) touch(keys []request, chk *checker) error {
	x := &exchanger{base: r.target, check: chk.check}
	c := newClient()
	defer c.CloseIdleConnections()
	r.keys = keys
	start := time.Now()
	for _, k := range keys {
		o := x.exchange(c, start, -1, k)
		if o.err != nil {
			return o.err
		}
		r.touched = append(r.touched, o)
	}
	return nil
}

// pubRecord is one publish: the primary's SetCorpus (which persists the
// generation), its store GC, and both replicas' pulls.
type pubRecord struct {
	at    time.Duration // SetCorpus start, from the loop's start
	gen   int64
	save  time.Duration
	pulls []pullRecord
	lag   time.Duration // SetCorpus start → last replica installed; 0 if one did not
}

type pullRecord struct {
	dur, manifest, segments time.Duration
	installed               bool
	err                     error
}

// publisher publishes the next corpus variant every interval and pulls
// it into every replica, from startPublisher until stop.
type publisher struct {
	r     *rig
	every time.Duration
	start time.Time

	quit     chan struct{}
	quitOnce sync.Once
	done     chan struct{}
	records  []pubRecord // written by the loop until done closes
	err      error
}

func startPublisher(r *rig, every time.Duration, start time.Time) *publisher {
	p := &publisher{r: r, every: every, start: start, quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(p.every)
		defer t.Stop()
		for k := 0; ; k++ {
			select {
			case <-p.quit:
				return
			case <-t.C:
			}
			rec, err := p.once(r.order[k%len(r.order)])
			p.records = append(p.records, rec)
			if err != nil && p.err == nil {
				p.err = err
			}
		}
	}()
	return p
}

// stop ends the loop, waits for it, and returns every publish with the
// first failure. A nil publisher (no fleet) has nothing to stop; stop
// may be called again.
func (p *publisher) stop() ([]pubRecord, error) {
	if p == nil {
		return nil, nil
	}
	p.quitOnce.Do(func() { close(p.quit) })
	<-p.done
	return p.records, p.err
}

// once is one publish of base minus the licensee drop: SetCorpus, GC(3)
// on the primary's store, then PullOnce on every replica concurrently.
// Cutting the variant comes first and is not part of the publish's
// times.
func (p *publisher) once(drop string) (pubRecord, error) {
	r := p.r
	db, err := without(r.base, drop)
	if err != nil {
		return pubRecord{at: time.Since(p.start)}, err
	}
	t0 := time.Now()
	rec := pubRecord{at: t0.Sub(p.start)}
	gen, err := r.publish(db, drop)
	rec.gen, rec.save = gen, time.Since(t0)
	if err != nil {
		return rec, err
	}
	if _, err := r.pstore.GC(3); err != nil {
		return rec, fmt.Errorf("primary gc: %w", err)
	}
	rec.pulls = make([]pullRecord, len(r.replicas))
	var wg sync.WaitGroup
	for i, n := range r.replicas {
		wg.Add(1)
		go func(i int, n *node) {
			defer wg.Done()
			n.tally.observe(n.srv.Stats())
			if n.fetch != nil {
				n.fetch.take()
			}
			s := time.Now()
			ok, err := n.puller.PullOnce(context.Background())
			pr := pullRecord{dur: time.Since(s), installed: ok, err: err}
			if n.fetch != nil {
				pr.manifest, pr.segments = n.fetch.take()
			}
			n.tally.observe(n.srv.Stats())
			rec.pulls[i] = pr
		}(i, n)
	}
	wg.Wait()
	rec.lag = time.Since(t0)
	for i, pr := range rec.pulls {
		if !pr.installed {
			rec.lag = 0
			if pr.err == nil {
				pr.err = errors.New("nothing new to install")
			}
			return rec, fmt.Errorf("%s pull of generation %d: %w", r.replicas[i].name, gen, pr.err)
		}
	}
	return rec, nil
}

// engineTally accumulates one replica's engine counters across the
// generation swaps of a window: each swap starts a fresh engine with
// fresh counters, so a window's total is the sum over every engine that
// served in it.
type engineTally struct {
	mu   sync.Mutex
	gen  int64        // serve generation of the last observation
	last engine.Stats // that engine's counters then
	sum  engine.Stats // engines already swapped out, minus the window start
}

// observe folds in a fresh Stats snapshot.
func (t *engineTally) observe(st serve.ServeStats) {
	if st.Engine == nil || st.Generation == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if st.Generation.ID != t.gen {
		t.sum = addStats(t.sum, t.last, 1)
		t.gen = st.Generation.ID
	}
	t.last = *st.Engine
}

// begin starts a window at the current counters.
func (t *engineTally) begin(st serve.ServeStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gen, t.last, t.sum = 0, engine.Stats{}, engine.Stats{}
	if st.Engine != nil && st.Generation != nil {
		t.gen, t.last = st.Generation.ID, *st.Engine
		t.sum = addStats(engine.Stats{}, t.last, -1)
	}
}

// total is the window's counters so far; Entries is the live engine's.
func (t *engineTally) total() engine.Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := addStats(t.sum, t.last, 1)
	out.Entries = t.last.Entries
	return out
}

func addStats(a, b engine.Stats, sign int64) engine.Stats {
	a.Hits += sign * b.Hits
	a.Misses += sign * b.Misses
	a.Coalesced += sign * b.Coalesced
	a.Rebuilds += sign * b.Rebuilds
	a.DeltaHits += sign * b.DeltaHits
	a.EventsReplayed += sign * b.EventsReplayed
	return a
}
