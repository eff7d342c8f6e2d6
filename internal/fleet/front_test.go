package fleet

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestCheckerTransitions: a member's row is ejected only after
// FailAfter (default 2) consecutive bad probes and readmitted after a
// single good one, and the probe's generation, digest and age land on
// the same row.
func TestCheckerTransitions(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintf(w, `{"ready":%v,"generation":{"store_generation":7,"corpus_sha256":"abc","age_seconds":1.5}}`, ready.Load())
	}))
	defer rep.Close()

	f := NewFront(FrontConfig{Replicas: []Replica{{Name: "r1", URL: rep.URL}}})
	ctx := context.Background()
	row := func() MemberInfo { return f.Members().Stats().Members[0] }

	if row().Healthy || len(f.routable()) != 0 {
		t.Fatal("replica healthy before any probe")
	}
	f.probeAll(ctx)
	h := row()
	if !h.Healthy || h.Generation != 7 || h.Digest != "abc" || h.AgeSeconds != 1.5 || len(f.routable()) != 1 {
		t.Fatalf("after good probe: %+v, %d routable", h, len(f.routable()))
	}

	// One bad probe is a blip, two is an ejection.
	ready.Store(false)
	f.probeAll(ctx)
	if !row().Healthy {
		t.Fatal("ejected after a single failed probe")
	}
	f.probeAll(ctx)
	if h := row(); h.Healthy || h.LastError == "" || len(f.routable()) != 0 {
		t.Fatalf("still routable after %d failed probes: %+v", 2, h)
	}

	// Recovery is immediate.
	ready.Store(true)
	f.probeAll(ctx)
	if h := row(); !h.Healthy || h.LastError != "" || len(f.routable()) != 1 {
		t.Fatalf("not readmitted after good probe: %+v", h)
	}
}

// liveReplica pulls the primary's generation and serves it over a real
// listener, returning its base URL.
func liveReplica(t *testing.T, primary string) (string, *Puller) {
	t.Helper()
	p, srv, _ := newReplica(t, primary, nil)
	if installed, err := p.PullOnce(context.Background()); err != nil || !installed {
		t.Fatalf("replica bootstrap pull = (%v, %v)", installed, err)
	}
	rep := httptest.NewServer(srv.Handler())
	t.Cleanup(rep.Close)
	replicaServers[rep.URL] = rep
	return rep.URL, p
}

// TestFrontRoutingFailoverShed drives the front tier through its three
// regimes: affinity routing while the fleet is whole, transparent
// failover when the key's owner dies, and a jittered 503 shed when
// nobody is left.
func TestFrontRoutingFailoverShed(t *testing.T) {
	_, _, base := newPrimary(t, corpus(t), 32<<10)
	urls := make(map[string]string)
	for _, name := range []string{"r1", "r2", "r3"} {
		urls[name], _ = liveReplica(t, base)
	}

	f := NewFront(FrontConfig{
		Replicas: []Replica{
			{Name: "r1", URL: urls["r1"]},
			{Name: "r2", URL: urls["r2"]},
			{Name: "r3", URL: urls["r3"]},
		},
		Primary:       base,
		CheckInterval: 20 * time.Millisecond,
		HedgeAfter:    2 * time.Second, // out of the way: this test wants sequential failover
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)

	front := httptest.NewServer(f.Handler())
	defer front.Close()
	client := front.Client()

	waitFor(t, 5*time.Second, "all replicas routable", func() bool {
		ready, _ := getJSON[struct {
			Routable int `json:"routable"`
		}](t, client, front.URL+"/readyz")
		return ready.Routable == 3
	})

	// Affinity: one licensee's queries stick to one replica.
	owner := ""
	for i := 0; i < 5; i++ {
		resp, err := client.Get(front.URL + "/v1/snapshot?licensee=New%20Line%20Networks")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("proxied snapshot = %d", resp.StatusCode)
		}
		rep := resp.Header.Get("X-Fleet-Replica")
		if owner == "" {
			owner = rep
		} else if rep != owner {
			t.Fatalf("licensee routed to %s then %s — affinity broken", owner, rep)
		}
	}
	if owner == "" {
		t.Fatal("no X-Fleet-Replica header on proxied response")
	}

	// Mutations are refused at the front door.
	resp, err := client.Post(front.URL+"/v1/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST through front = %d, want 405", resp.StatusCode)
	}

	// Kill the owner: the same query must keep answering 200 from a
	// sibling, without waiting for the front's probes to notice.
	closeReplicaServer(t, urls[owner])
	resp, err = client.Get(front.URL + "/v1/snapshot?licensee=New%20Line%20Networks")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("query after owner death = %d, want 200 via failover", resp.StatusCode)
	}
	if rep := resp.Header.Get("X-Fleet-Replica"); rep == owner {
		t.Fatalf("failover response still attributed to dead owner %s", rep)
	}

	// Kill everyone: the front sheds with 503 + Retry-After.
	for name, u := range urls {
		if name != owner {
			closeReplicaServer(t, u)
		}
	}
	waitFor(t, 5*time.Second, "shed regime", func() bool {
		resp, err := client.Get(front.URL + "/v1/snapshot")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != ""
	})
	if s := f.Stats(); s.Shed == 0 || s.Retried == 0 {
		t.Errorf("front stats after the drill = %+v; want shed and retried both counted", s)
	}
}

// replicaServers tracks httptest servers by URL so tests can kill a
// replica picked at runtime by the ring.
var replicaServers = map[string]*httptest.Server{}

func closeReplicaServer(t *testing.T, url string) {
	t.Helper()
	srv, ok := replicaServers[url]
	if !ok {
		t.Fatalf("no test server registered for %s", url)
	}
	srv.CloseClientConnections()
	srv.Close()
}

// TestFrontStalenessExclusion: a replica whose generation falls more
// than StalenessBound behind the primary is excluded from routing even
// though it answers /readyz, and readmitted once it catches up.
func TestFrontStalenessExclusion(t *testing.T) {
	pst, _, base := newPrimary(t, corpus(t), 32<<10)
	repURL, puller := liveReplica(t, base)

	f := NewFront(FrontConfig{
		Replicas:       []Replica{{Name: "r1", URL: repURL}},
		Primary:        base,
		StalenessBound: 2,
		CheckInterval:  20 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)

	front := httptest.NewServer(f.Handler())
	defer front.Close()
	client := front.Client()

	routable := func() int {
		ready, _ := getJSON[struct {
			Routable int `json:"routable"`
		}](t, client, front.URL+"/readyz")
		return ready.Routable
	}
	waitFor(t, 5*time.Second, "replica routable", func() bool { return routable() == 1 })

	// Push the primary 3 generations ahead; the replica (not pulling)
	// exceeds the bound and must drop out of rotation.
	for i := 0; i < 3; i++ {
		if _, err := pst.Save(corpus(t), fmt.Sprintf("update %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "stale replica excluded", func() bool { return routable() == 0 })
	resp, err := client.Get(front.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query against all-stale fleet = %d, want 503", resp.StatusCode)
	}

	// The replica catches up and rejoins.
	if installed, err := puller.PullOnce(context.Background()); err != nil || !installed {
		t.Fatalf("catch-up pull = (%v, %v)", installed, err)
	}
	waitFor(t, 5*time.Second, "caught-up replica readmitted", func() bool { return routable() == 1 })
}

// TestFrontStreamsWatch: a paced /v1/watch replay that outlasts the
// front's RequestTimeout arrives through the front whole and in order,
// its first frame long before the replay ends, and nothing is hedged.
// When the licensee's first ring candidate hangs, the front gives up on
// it after RequestTimeout and the replay arrives whole from the second.
// A shutdown that cancels Run ends an open relayed stream, so the
// server drains long before the replay would have.
func TestFrontStreamsWatch(t *testing.T) {
	_, _, base := newPrimary(t, corpus(t), 32<<10)
	var reps []Replica
	gates := map[string]*SlowGate{}
	for _, name := range []string{"r1", "r2"} {
		p, srv, _ := newReplica(t, base, nil)
		if installed, err := p.PullOnce(context.Background()); err != nil || !installed {
			t.Fatalf("replica bootstrap pull = (%v, %v)", installed, err)
		}
		// Only replays pass the gate: a hung replay leaves the replica
		// healthy to the front's probes, so it stays first in line.
		gates[name] = &SlowGate{}
		mux := http.NewServeMux()
		mux.Handle("/", srv.Handler())
		mux.Handle("/v1/watch", gates[name].Wrap(srv.Handler()))
		rep := httptest.NewServer(mux)
		t.Cleanup(rep.Close)
		reps = append(reps, Replica{Name: name, URL: rep.URL})
	}
	const timeout = 250 * time.Millisecond
	f := NewFront(FrontConfig{
		Replicas:       reps,
		CheckInterval:  20 * time.Millisecond,
		HedgeAfter:     20 * time.Millisecond,
		RequestTimeout: timeout,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go f.Run(ctx)
	front := httptest.NewUnstartedServer(f.Handler())
	front.Config.RegisterOnShutdown(cancel) // as hftfront does
	front.Start()
	defer front.Close()
	waitFor(t, 5*time.Second, "replicas routable", func() bool { return len(f.routable()) == 2 })

	const watch = "/v1/watch?licensee=Webline%20Holdings&speed=3000"
	whole := func(t *testing.T) watchStream {
		t.Helper()
		s := readWatch(t, front.URL+watch)
		if s.total <= timeout {
			t.Fatalf("replay took %v, not longer than the %v RequestTimeout — the drill is vacuous", s.total, timeout)
		}
		if s.last != "eof" {
			t.Fatalf("stream ended on %q after %d frames, want eof", s.last, len(s.seqs))
		}
		for i, seq := range s.seqs {
			if seq != strconv.Itoa(i) {
				t.Fatalf("frame %d carries seq %s — the stream arrived out of order", i, seq)
			}
		}
		if h := f.Stats().Hedged; h != 0 {
			t.Errorf("the front hedged the stream %d times", h)
		}
		t.Logf("%d frames from %s over %v, first after %v", len(s.seqs), s.replica, s.total, s.first)
		return s
	}
	t.Run("paced", func(t *testing.T) {
		if s := whole(t); s.first > s.total/2 {
			t.Errorf("first frame after %v of a %v replay — the front held the stream back", s.first, s.total)
		}
	})
	t.Run("hung-first-candidate", func(t *testing.T) {
		owner := f.candidates(shardKey(httptest.NewRequest(http.MethodGet, watch, nil)))[0].Name
		gates[owner].Hang()
		defer gates[owner].Clear()
		if s := whole(t); s.replica == owner {
			t.Fatalf("the hung %s served the replay", owner)
		}
	})
	t.Run("shutdown", func(t *testing.T) {
		resp, err := http.Get(front.URL + "/v1/watch?licensee=Webline%20Holdings&speed=300")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() && !strings.HasPrefix(sc.Text(), "id: ") {
		}
		start := time.Now()
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		if err := front.Config.Shutdown(sctx); err != nil {
			t.Fatalf("shutdown with a relayed replay open: %v after %v", err, time.Since(start))
		}
		for sc.Scan() {
			if sc.Text() == "event: eof" {
				t.Fatal("the replay ran to eof before the shutdown — the drill is vacuous")
			}
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("shutdown took %v with a relayed replay open", d)
		}
	})
}

// watchStream is one /v1/watch replay as read through the front.
type watchStream struct {
	seqs          []string // frame seqs in arrival order
	last, replica string   // the last event name; X-Fleet-Replica
	first, total  time.Duration
}

func readWatch(t *testing.T, url string) watchStream {
	t.Helper()
	start := time.Now()
	resp, err := (&http.Client{Timeout: 10 * time.Second}).Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch through the front = %d, want 200", resp.StatusCode)
	}
	s := watchStream{replica: resp.Header.Get("X-Fleet-Replica")}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if id, ok := strings.CutPrefix(sc.Text(), "id: "); ok {
			if s.first == 0 {
				s.first = time.Since(start)
			}
			_, seq, _ := strings.Cut(id, ".")
			s.seqs = append(s.seqs, seq)
		}
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			s.last = ev
		}
	}
	s.total = time.Since(start)
	return s
}
