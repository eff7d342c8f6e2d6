package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMembershipLeaseLifecycle drives one member's entry through the
// whole lease state machine on a fake clock: join grants a TTL and a
// fresh entry, renewals push expiry forward and keep the entry with its
// probe state, a lapse evicts the entry from the table and the ring,
// and a rejoin after eviction is a fresh admission that starts
// unprobed.
func TestMembershipLeaseLifecycle(t *testing.T) {
	clock := time.Unix(1000, 0)
	m := NewMembership(nil, time.Second, 8)
	m.now = func() time.Time { return clock }
	row := func() MemberInfo {
		t.Helper()
		rows := m.Stats().Members
		if len(rows) != 1 {
			t.Fatalf("member table = %+v, want one row", rows)
		}
		return rows[0]
	}

	grant, mem, err := m.Join(joinRequest{Name: "r1", URL: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	if grant.TTLMillis != 1000 || grant.HeartbeatMillis >= grant.TTLMillis {
		t.Fatalf("grant = %+v; want 1s TTL with a heartbeat well inside it", grant)
	}
	if mem == nil || !m.Has("r1") || m.Len() != 1 || row().Healthy || len(m.route("k", 0, 0)) != 0 {
		t.Fatalf("after join: entry=%v has=%v len=%d row=%+v", mem, m.Has("r1"), m.Len(), row())
	}
	// A good probe of the entry makes it routable.
	m.record(mem, &readyzProbe{Ready: true}, nil, 2)
	if seq := m.route("k", 0, 0); len(seq) != 1 || seq[0].URL != "http://127.0.0.1:1" || !row().Healthy {
		t.Fatalf("after a good probe: route %v, row %+v", seq, row())
	}

	// Renewals keep the lease alive past the original expiry; they admit
	// nothing and keep the entry's probe state.
	for i := 0; i < 3; i++ {
		clock = clock.Add(600 * time.Millisecond)
		_, again, err := m.Join(joinRequest{Name: "r1", URL: "http://127.0.0.1:1"})
		if err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
		if again != nil {
			t.Fatalf("renew %d reported as an admission", i)
		}
		if ev := m.Sweep(); len(ev) != 0 {
			t.Fatalf("renewed member swept: %v", ev)
		}
	}
	if s := m.Stats(); s.Joins != 1 || s.Renews != 3 {
		t.Fatalf("stats after renewals = %+v", s)
	}
	if r := row(); r.LeaseSeconds != 1 || !r.Healthy || len(m.route("k", 0, 0)) != 1 {
		t.Fatalf("row after renewals = %+v; want a full 1s lease, still healthy and routable", r)
	}

	// Stop renewing: one TTL later the sweep evicts it.
	clock = clock.Add(1001 * time.Millisecond)
	ev := m.Sweep()
	if len(ev) != 1 || ev[0].Name != "r1" || m.Has("r1") || len(m.Stats().Members) != 0 {
		t.Fatalf("lapse: evicted=%v has=%v rows=%+v", ev, m.Has("r1"), m.Stats().Members)
	}
	if seq := m.ring.Seq("k"); len(seq) != 0 {
		t.Fatalf("evicted member still on the ring: %v", seq)
	}

	// A restarted process on the same name but a new port rejoins clean:
	// a new entry, unhealthy until its own first probe.
	_, fresh, err := m.Join(joinRequest{Name: "r1", URL: "http://127.0.0.1:2"})
	if err != nil {
		t.Fatalf("rejoin after eviction: %v", err)
	}
	if fresh == nil || fresh == mem {
		t.Fatal("rejoin after eviction did not admit a new entry")
	}
	if r := row(); r.URL != "http://127.0.0.1:2" || r.Healthy || len(m.route("k", 0, 0)) != 0 {
		t.Fatalf("rejoined row = %+v; want the new URL, not yet healthy nor routable", r)
	}
	if s := m.Stats(); s.Joins != 2 || s.Evictions != 1 {
		t.Fatalf("stats after rejoin = %+v", s)
	}
}

// TestMembershipValidation: joins are rejected for missing fields,
// relative URLs, and name collisions with a different live URL; a
// graceful leave evicts immediately; permanent (seeded) members are
// immune to both leave and sweep.
func TestMembershipValidation(t *testing.T) {
	m := NewMembership([]Replica{{Name: "seed", URL: "http://127.0.0.1:9"}}, 50*time.Millisecond, 8)

	for _, req := range []joinRequest{
		{Name: "", URL: "http://x"},
		{Name: "x", URL: ""},
		{Name: "x", URL: "not-a-url"},
		{Name: "x", URL: "/relative"},
	} {
		if _, _, err := m.Join(req); err == nil {
			t.Errorf("join %+v accepted, want rejection", req)
		}
	}
	if _, _, err := m.Join(joinRequest{Name: "r1", URL: "http://127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	// Same name, different URL, while the lease is live: operator error.
	if _, _, err := m.Join(joinRequest{Name: "r1", URL: "http://127.0.0.1:2"}); err == nil {
		t.Fatal("conflicting join accepted")
	}

	m.Leave("r1")
	if m.Has("r1") {
		t.Fatal("member still present after leave")
	}
	m.Leave("seed")
	time.Sleep(60 * time.Millisecond)
	m.Sweep()
	if !m.Has("seed") {
		t.Fatal("permanent member lost to leave/sweep")
	}
	if s := m.Stats(); s.Rejects != 5 || s.Leaves != 1 {
		t.Fatalf("stats = %+v; want 5 rejects, 1 leave", s)
	}
}

// TestMembershipClockSkewHarmless: leases are measured on the front's
// clock, so announce timestamps hours off (or unparseable) must not
// shorten or lengthen a lease — they surface only as skew diagnostics.
func TestMembershipClockSkewHarmless(t *testing.T) {
	clock := time.Unix(5000, 0)
	m := NewMembership(nil, time.Second, 8)
	m.now = func() time.Time { return clock }

	skewed := clock.Add(-3 * time.Hour).UTC().Format(time.RFC3339Nano)
	if _, _, err := m.Join(joinRequest{Name: "r1", URL: "http://127.0.0.1:1", SentAt: skewed}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Join(joinRequest{Name: "r2", URL: "http://127.0.0.1:2", SentAt: "garbage-timestamp"}); err != nil {
		t.Fatal(err)
	}
	// Both leases expire on the FRONT's schedule, not the senders'.
	clock = clock.Add(900 * time.Millisecond)
	if ev := m.Sweep(); len(ev) != 0 {
		t.Fatalf("skewed members evicted early: %v", ev)
	}
	clock = clock.Add(200 * time.Millisecond)
	if ev := m.Sweep(); len(ev) != 2 {
		t.Fatalf("skewed members not evicted on schedule: %v", ev)
	}
	if s := m.Stats(); s.MaxSkewSeconds < (3 * time.Hour).Seconds() {
		t.Fatalf("max skew %.0fs not recorded", s.MaxSkewSeconds)
	}
}

// TestFrontFleetJoinServeEvict is the tentpole's end-to-end happy
// path over real HTTP: a front tier starts with NO static replicas, a
// replica announces itself via the Announcer, becomes routable, serves
// proxied queries, then leaves gracefully — and the front returns to
// shedding.
func TestFrontFleetJoinServeEvict(t *testing.T) {
	_, _, base := newPrimary(t, corpus(t), 32<<10)
	repURL, _ := liveReplica(t, base)

	f := NewFront(FrontConfig{
		Primary:       base,
		LeaseTTL:      500 * time.Millisecond,
		CheckInterval: 20 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)
	front := httptest.NewServer(f.Handler())
	defer front.Close()
	client := front.Client()

	// Empty fleet sheds with 503 + Retry-After.
	resp, err := client.Get(front.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("empty fleet: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	ann := NewAnnouncer(AnnouncerConfig{
		Front: front.URL,
		Self:  Replica{Name: "r1", URL: repURL},
	})
	if err := ann.AnnounceOnce(ctx); err != nil {
		t.Fatal(err)
	}
	st := ann.State()
	if !st.Joined || st.TTLSeconds != 0.5 {
		t.Fatalf("announcer state after join = %+v", st)
	}

	waitFor(t, 5*time.Second, "joined replica routable", func() bool {
		ready, _ := getJSON[struct {
			Routable int `json:"routable"`
		}](t, client, front.URL+"/readyz")
		return ready.Routable == 1
	})
	resp, err = client.Get(front.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Fleet-Replica") != "r1" {
		t.Fatalf("proxied query: status %d via %q", resp.StatusCode, resp.Header.Get("X-Fleet-Replica"))
	}

	// The member table names the joiner.
	members, code := getJSON[MembershipStats](t, client, front.URL+"/v1/fleet/members")
	if code != http.StatusOK || len(members.Members) != 1 || members.Members[0].Name != "r1" {
		t.Fatalf("member table = %+v (status %d)", members, code)
	}

	// Graceful leave evicts immediately — no TTL wait.
	if err := ann.Leave(ctx); err != nil {
		t.Fatal(err)
	}
	if f.Members().Has("r1") {
		t.Fatal("member present after graceful leave")
	}
	waitFor(t, 5*time.Second, "post-leave shed", func() bool {
		resp, err := client.Get(front.URL + "/v1/snapshot")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
}

// TestFrontLeaseLapseEvictsWithinTTL: a member that stops renewing is
// off the ring within one lease TTL plus one sweep interval — the
// tentpole's convergence bound — while a heartbeating sibling stays.
func TestFrontLeaseLapseEvictsWithinTTL(t *testing.T) {
	_, _, base := newPrimary(t, corpus(t), 32<<10)
	aliveURL, _ := liveReplica(t, base)
	deadURL, _ := liveReplica(t, base)

	const ttl = 300 * time.Millisecond
	f := NewFront(FrontConfig{
		Primary:       base,
		LeaseTTL:      ttl,
		CheckInterval: 20 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)
	front := httptest.NewServer(f.Handler())
	defer front.Close()

	alive := NewAnnouncer(AnnouncerConfig{Front: front.URL, Self: Replica{Name: "alive", URL: aliveURL}})
	go alive.Run(ctx)
	dead := NewAnnouncer(AnnouncerConfig{Front: front.URL, Self: Replica{Name: "dead", URL: deadURL}})
	if err := dead.AnnounceOnce(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "both members joined", func() bool { return f.Members().Len() == 2 })

	// "dead" never renews again; it must be gone within TTL + sweep
	// slack, and "alive" must still hold its lease well past that.
	waitFor(t, ttl+200*time.Millisecond, "lapsed member evicted", func() bool { return !f.Members().Has("dead") })
	if !f.Members().Has("alive") {
		t.Fatal("heartbeating member evicted alongside the lapsed one")
	}
	if s := f.Members().Stats(); s.Evictions != 1 {
		t.Fatalf("membership stats = %+v; want exactly 1 eviction", s)
	}
}

// TestFrontMinHealthyFloor: with MinHealthy=2 and only one routable
// member, every request sheds 503+Retry-After even though that member
// could answer — the floor trades availability for not melting a rump.
func TestFrontMinHealthyFloor(t *testing.T) {
	_, _, base := newPrimary(t, corpus(t), 32<<10)
	repURL, _ := liveReplica(t, base)

	f := NewFront(FrontConfig{
		Replicas:      []Replica{{Name: "r1", URL: repURL}},
		Primary:       base,
		MinHealthy:    2,
		CheckInterval: 20 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)
	front := httptest.NewServer(f.Handler())
	defer front.Close()
	client := front.Client()

	waitFor(t, 5*time.Second, "replica probed healthy", func() bool {
		rows := f.Members().Stats().Members
		return len(rows) == 1 && rows[0].Healthy
	})
	resp, err := client.Get(front.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("below-floor fleet: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	ready, code := getJSON[struct {
		Ready    bool `json:"ready"`
		Routable int  `json:"routable"`
	}](t, client, front.URL+"/readyz")
	if code != http.StatusServiceUnavailable || ready.Ready || ready.Routable != 1 {
		t.Fatalf("readyz below floor = %+v (status %d), want not ready with 1 routable", ready, code)
	}
}

// TestFleetRenewalProbesOnce: the front probes a member at once only
// when it first admits it; a lease renewal waits for the tick's probe.
// One join and ten renewals through the front's handler, with no Run,
// make exactly one /readyz probe.
func TestFleetRenewalProbesOnce(t *testing.T) {
	var probes atomic.Int64
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			probes.Add(1)
		}
		fmt.Fprint(w, `{"ready":true}`)
	}))
	defer rep.Close()
	front := httptest.NewServer(NewFront(FrontConfig{LeaseTTL: time.Hour}).Handler())
	defer front.Close()

	body := fmt.Sprintf(`{"name":"r1","url":%q}`, rep.URL)
	for i := 0; i < 11; i++ {
		postFleet(t, front, "join", body)
	}
	waitFor(t, 5*time.Second, "the admission probe", func() bool { return probes.Load() >= 1 })
	holdsFor(t, 300*time.Millisecond, "exactly one probe", func() bool { return probes.Load() == 1 })
}

// TestProbeVerdictStaysWithItsEntry: a probe's verdict lands only on
// the entry it probed. r1 joins, and while the admission probe of its
// URL hangs, r1 leaves and rejoins from a new URL that answers 503 not
// ready. The old URL's good answer then arrives, and must leave the
// new entry unhealthy, without the old process's generation, and
// unroutable.
func TestProbeVerdictStaysWithItsEntry(t *testing.T) {
	arrived, release := make(chan struct{}), make(chan struct{})
	var arrive, free sync.Once
	old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrive.Do(func() { close(arrived) })
		<-release
		fmt.Fprint(w, `{"ready":true,"generation":{"store_generation":7,"corpus_sha256":"old"}}`)
	}))
	defer old.Close()
	defer free.Do(func() { close(release) }) // before old.Close, which waits for the handler
	fresh := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"ready":false}`)
	}))
	defer fresh.Close()
	front := httptest.NewServer(NewFront(FrontConfig{LeaseTTL: time.Hour}).Handler())
	defer front.Close()
	type row struct {
		Name       string `json:"name"`
		Healthy    bool   `json:"healthy"`
		Generation int64  `json:"generation"`
		LastError  string `json:"last_error"`
	}
	table := func() (int, []row) {
		ready, _ := getJSON[struct {
			Routable int   `json:"routable"`
			Replicas []row `json:"replicas"`
		}](t, front.Client(), front.URL+"/readyz")
		return ready.Routable, ready.Replicas
	}

	postFleet(t, front, "join", fmt.Sprintf(`{"name":"r1","url":%q}`, old.URL))
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("the admission probe never reached the old URL")
	}
	postFleet(t, front, "leave", `{"name":"r1"}`)
	postFleet(t, front, "join", fmt.Sprintf(`{"name":"r1","url":%q}`, fresh.URL))
	waitFor(t, 5*time.Second, "the new entry's probe", func() bool {
		_, rows := table()
		return len(rows) == 1 && rows[0].LastError != ""
	})
	free.Do(func() { close(release) })
	holdsFor(t, 300*time.Millisecond, "the new entry unhealthy and unroutable", func() bool {
		routable, rows := table()
		return routable == 0 && len(rows) == 1 && !rows[0].Healthy && rows[0].Generation == 0
	})
}

// postFleet POSTs body to the front's /v1/fleet/<op> and wants a 200.
func postFleet(t *testing.T, front *httptest.Server, op, body string) {
	t.Helper()
	resp, err := front.Client().Post(front.URL+fleetPrefix+op, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s%s = %d, want 200", fleetPrefix, op, resp.StatusCode)
	}
}

// TestCheckerHungReplica is the per-probe-timeout regression test: one
// hung replica (accepts connections, never answers) must neither stall
// the front's probe sweep nor delay a healthy sibling's probe — the
// sweep completes within the per-probe timeout NewFront derives, not
// the HTTP client's.
func TestCheckerHungReplica(t *testing.T) {
	hungGate := &SlowGate{}
	hungGate.Hang()
	hung := httptest.NewServer(hungGate.Wrap(http.NewServeMux()))
	defer hung.Close()
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"ready":true}`)
	}))
	defer healthy.Close()

	// A 60s client timeout: if probes ran under it, this test would
	// hang for a minute. The per-probe timeout derived from the 25ms
	// interval (clamped to 100ms) must govern instead.
	f := NewFront(FrontConfig{
		Replicas: []Replica{
			{Name: "hung", URL: hung.URL},
			{Name: "ok", URL: healthy.URL},
		},
		CheckInterval: 25 * time.Millisecond,
		FailAfter:     1,
		Client:        &http.Client{Timeout: 60 * time.Second},
	})

	start := time.Now()
	f.probeAll(context.Background())
	elapsed := time.Since(start)
	if elapsed > 2*time.Second {
		t.Fatalf("sweep with a hung replica took %v — per-probe timeout not applied", elapsed)
	}
	byName := map[string]MemberInfo{}
	for _, h := range f.Members().Stats().Members {
		byName[h.Name] = h
	}
	if byName["hung"].Healthy || byName["hung"].LastError == "" {
		t.Fatalf("hung replica = %+v; want unhealthy with an error", byName["hung"])
	}
	if !byName["ok"].Healthy {
		t.Fatalf("healthy sibling = %+v; hung peer starved its probe", byName["ok"])
	}
	if r := f.routable(); len(r) != 1 || r[0].Name != "ok" {
		t.Fatalf("routable = %v, want only ok", r)
	}
}

// TestProbeTimeoutDerivation: NewFront sets the per-probe timeout once,
// from CheckInterval (2×, clamped to [100ms, 2s]), and defaults
// FailAfter to 2.
func TestProbeTimeoutDerivation(t *testing.T) {
	for _, tc := range []struct {
		interval, want time.Duration
	}{
		{0, 500 * time.Millisecond},                      // the 250ms default interval
		{25 * time.Millisecond, 100 * time.Millisecond},  // clamp up
		{250 * time.Millisecond, 500 * time.Millisecond}, // 2× interval
		{10 * time.Second, 2 * time.Second},              // clamp down
	} {
		f := NewFront(FrontConfig{CheckInterval: tc.interval})
		if f.probeTimeout != tc.want {
			t.Errorf("CheckInterval %v: probe timeout %v, want %v", tc.interval, f.probeTimeout, tc.want)
		}
		if f.cfg.FailAfter != 2 {
			t.Errorf("CheckInterval %v: FailAfter %d, want the default 2", tc.interval, f.cfg.FailAfter)
		}
	}
}

// TestRingChurnBoundedMovement is the consistent-hashing contract:
// adding or removing one node of n moves at most ~2/(n+1) of the keys
// (the ideal is 1/(n+1); the factor-2 slack absorbs vnode variance),
// and the keys that do move all move to/from the churned node.
func TestRingChurnBoundedMovement(t *testing.T) {
	const keys = 20000
	for _, n := range []int{4, 8, 16} {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("replica-%d", i)
		}
		before := NewRing(nodes, 0)
		after := NewRing(append(append([]string{}, nodes...), "replica-new"), 0)

		movedAdd := 0
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("licensee:%d", k)
			ob, oa := before.Seq(key)[0], after.Seq(key)[0]
			if ob != oa {
				movedAdd++
				if oa != "replica-new" {
					t.Fatalf("n=%d: key %q moved %s→%s, not to the new node", n, key, ob, oa)
				}
			}
		}
		bound := int(2.0 / float64(n+1) * keys)
		if movedAdd > bound {
			t.Errorf("n=%d: adding one node moved %d/%d keys, bound %d (~2/(n+1))", n, movedAdd, keys, bound)
		}
		if movedAdd == 0 {
			t.Errorf("n=%d: adding a node moved nothing — it owns no keyspace", n)
		}

		// Removal is the mirror image: only the removed node's keys move.
		movedRemove := 0
		for k := 0; k < keys; k++ {
			key := fmt.Sprintf("licensee:%d", k)
			oa, ob := after.Seq(key)[0], before.Seq(key)[0]
			if oa != ob {
				movedRemove++
				if oa != "replica-new" {
					t.Fatalf("n=%d: removal moved key %q that %s owned", n, key, oa)
				}
			}
		}
		if movedRemove > bound {
			t.Errorf("n=%d: removing one node moved %d/%d keys, bound %d", n, movedRemove, keys, bound)
		}
	}
}

// TestMembershipConcurrentChurnNeverRoutesRemoved hammers Join / Leave
// from several goroutines while readers route keys, asserting that a
// route computed after a Leave returned never names the removed member
// — the table and its ring change in one critical section — and that a
// probe verdict landing after the Leave cannot revive it. Run under
// -race in CI.
func TestMembershipConcurrentChurnNeverRoutesRemoved(t *testing.T) {
	m := NewMembership([]Replica{{Name: "anchor", URL: "http://127.0.0.1:9"}}, time.Minute, 8)
	good := &readyzProbe{Ready: true}
	m.record(m.entries()[0], good, nil, 1)

	var stop atomic.Bool
	var wg sync.WaitGroup

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				name := fmt.Sprintf("churn-%d-%d", w, i)
				_, mem, err := m.Join(joinRequest{Name: name, URL: "http://127.0.0.1:1"})
				if err != nil {
					t.Errorf("join %s: %v", name, err)
					return
				}
				m.record(mem, good, nil, 1) // routable until it leaves
				m.Leave(name)
				m.record(mem, good, nil, 1) // a probe that was in flight
				// The contract under test: a route computed after Leave
				// returned must not name the removed member, no matter how
				// many sibling joins/leaves race it. (No sibling ever
				// re-adds this name, so seeing it here can only mean the
				// table kept a removed entry.)
				for _, r := range m.route(name, 0, 0) {
					if r.Name == name {
						t.Errorf("route computed after Leave(%s) returned still names it", name)
						return
					}
				}
			}
		}(w)
	}
	// Concurrent readers keep the hot path (one locked ring walk over
	// the table) racing the changes; -race flags any unsynchronized
	// access.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if seq := m.route(fmt.Sprintf("key-%d-%d", r, i), 0, 0); len(seq) == 0 {
					t.Error("route lost its permanent member mid-churn")
					return
				}
			}
		}(r)
	}
	time.Sleep(500 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if rows := m.Stats().Members; len(rows) != 1 || rows[0].Name != "anchor" || !rows[0].Healthy {
		t.Fatalf("member table after churn = %+v, want only the healthy permanent member", rows)
	}
}

// TestPullerBackoff: consecutive failures double the sleep up to the
// cap, one success resets it, and a shipper's Retry-After hint floors
// the next sleep — all visible in the backoffs counter.
func TestPullerBackoff(t *testing.T) {
	var shed atomic.Bool
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if shed.Load() {
			w.Header().Set("Retry-After", "7")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		http.NotFound(w, r)
	}))
	defer primary.Close()

	p, _, _ := newReplica(t, primary.URL, nil)
	p.cfg.Interval = 100 * time.Millisecond
	p.cfg.MaxBackoff = 800 * time.Millisecond

	// Success (or a clean no-op poll) keeps the base cadence.
	if d := p.nextDelay(0); d != 100*time.Millisecond {
		t.Fatalf("delay after success = %v, want the base interval", d)
	}
	if p.Status().Backoffs != 0 {
		t.Fatal("backoff counted on the success path")
	}
	// Failures double, then saturate at the cap.
	for i, want := range []time.Duration{200, 400, 800, 800, 800} {
		if d := p.nextDelay(i + 1); d != want*time.Millisecond {
			t.Fatalf("delay after %d failures = %v, want %v", i+1, d, want*time.Millisecond)
		}
	}
	if got := p.Status().Backoffs; got != 5 {
		t.Fatalf("backoffs = %d, want 5", got)
	}
	// Reset on success.
	if d := p.nextDelay(0); d != 100*time.Millisecond {
		t.Fatalf("delay after reset = %v", d)
	}

	// A shedding shipper's Retry-After floors the next delay even on
	// the first failure, then is consumed.
	shed.Store(true)
	if _, err := p.PullOnce(context.Background()); err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("pull against shedding shipper = %v, want 503 error", err)
	}
	if d := p.nextDelay(1); d != 7*time.Second {
		t.Fatalf("delay after shed = %v, want the 7s Retry-After hint", d)
	}
	if d := p.nextDelay(1); d != 200*time.Millisecond {
		t.Fatalf("hint not consumed: next delay = %v", d)
	}
}

// refuseAll fails every request without a packet sent.
type refuseAll struct{}

func (refuseAll) RoundTrip(*http.Request) (*http.Response, error) {
	return nil, errors.New("refused: no network in this test")
}

// FuzzFleetJoin posts arbitrary bodies to a front's /v1/fleet/join.
// Whatever the body: no panic, and the answer is a 200, 400 or 409. A
// 200 only admits a non-empty name with an absolute URL and grants the
// front's TTL and heartbeat, and the member table only ever holds
// names that got a 200. Every probe is refused, so no row is ever
// healthy and nothing is routable.
func FuzzFleetJoin(f *testing.F) {
	for _, seed := range []string{
		`{"name":"r1","url":"http://127.0.0.1:1"}`,
		`{"name":"r1","url":"http://127.0.0.1:2"}`,
		`{"name":"r2","url":"http://127.0.0.1:3","generation":7,"digest":"abc","sent_at":"2020-01-01T00:00:00Z"}`,
		`{"name":"r3","url":"http://127.0.0.1:4","sent_at":"yesterday"}`,
		`{"name":"r4","url":"127.0.0.1:5"}`,
		`{"name":"","url":"http://127.0.0.1:6"}`,
		`{"name":"r5","url":"/relative"}`,
		`{"name":5}`,
		`null`,
		`[]`,
		`{`,
		``,
	} {
		f.Add([]byte(seed))
	}
	const ttl = time.Hour
	// The front probes every member it admits; a refusing transport keeps
	// fuzzed URLs off the network.
	front := NewFront(FrontConfig{LeaseTTL: ttl, Client: &http.Client{Transport: refuseAll{}}})
	h := front.Handler()
	admitted := map[string]bool{}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/fleet/join", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusBadRequest, http.StatusConflict:
		case http.StatusOK:
			var req joinRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("%q: 200 for an undecodable body: %v", body, err)
			}
			if u, err := url.Parse(req.URL); req.Name == "" || err != nil || u.Scheme == "" || u.Host == "" {
				t.Fatalf("%q: 200 for name %q at URL %q", body, req.Name, req.URL)
			}
			var grant joinResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &grant); err != nil ||
				grant.TTLMillis != ttl.Milliseconds() || grant.HeartbeatMillis != (ttl/3).Milliseconds() {
				t.Fatalf("%q: grant %s (%v), want a %v TTL and a %v heartbeat", body, rec.Body.Bytes(), err, ttl, ttl/3)
			}
			admitted[req.Name] = true
		default:
			t.Fatalf("%q: status %d: %s", body, rec.Code, rec.Body.String())
		}
		for _, m := range front.Members().Stats().Members {
			if !admitted[m.Name] {
				t.Fatalf("member %q is in the table without ever getting a 200", m.Name)
			}
			if m.Healthy {
				t.Fatalf("member %q is healthy, though every probe is refused: %+v", m.Name, m)
			}
		}
		if r := front.routable(); len(r) != 0 {
			t.Fatalf("%d members routable, though every probe is refused: %v", len(r), r)
		}
	})
}
