package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// fakeReadyz serves a minimal /readyz a front probe can read, with a
// settable generation and health.
type fakeReadyz struct {
	mu    sync.Mutex
	gen   int64
	ready bool
}

func (f *fakeReadyz) set(gen int64, ready bool) {
	f.mu.Lock()
	f.gen, f.ready = gen, ready
	f.mu.Unlock()
}

func (f *fakeReadyz) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	gen, ready := f.gen, f.ready
	f.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintf(w, `{"ready":%v,"generation":{"store_generation":%d,"corpus_sha256":"d%d"}}`, ready, gen, gen)
}

// TestMembershipPromoteEpochMonotone drives the election over the
// member table: with nobody healthy the role stays vacant at epoch 0,
// the healthy member with a generation takes it at epoch 1, re-electing
// a healthy holder burns no epoch even when a sibling holds a newer
// generation, a failing holder hands the role over under the next
// epoch, and a graceful leave vacates the role while the epoch fence
// survives, into the next join grant.
func TestMembershipPromoteEpochMonotone(t *testing.T) {
	m := NewMembership(nil, time.Minute, 8)
	entries := map[string]*member{}
	join := func(name, url string) {
		t.Helper()
		_, mem, err := m.Join(joinRequest{Name: name, URL: url})
		if err != nil {
			t.Fatalf("join %s: %v", name, err)
		}
		entries[name] = mem
	}
	probed := func(name string, healthy bool, gen int64) {
		entries[name].healthy, entries[name].generation = healthy, gen
	}
	elect := func(what, name string, epoch int64, promoted bool) {
		t.Helper()
		src, _, ok := m.elect()
		if src.Name != name || src.Epoch != epoch || ok != promoted {
			t.Fatalf("%s: elected %+v (new epoch %v), want %q at epoch %d (new epoch %v)", what, src, ok, name, epoch, promoted)
		}
	}
	join("a", "http://a:1")
	join("b", "http://b:1")

	elect("nobody probed", "", 0, false)
	probed("a", true, 1)
	elect("first election", "a", 1, true)
	if src := m.Source(); src.URL != "http://a:1" {
		t.Fatalf("source %+v, want a's URL", src)
	}
	probed("b", true, 5)
	elect("healthy incumbent", "a", 1, false)
	probed("a", false, 1)
	elect("failing incumbent", "b", 2, true)

	// A graceful leave vacates the role but the epoch fence survives.
	m.Leave("b")
	if src := m.Source(); src.Name != "" || src.URL != "" || src.Epoch != 2 {
		t.Fatalf("after leave, source is %+v, want vacant at epoch 2", src)
	}
	probed("a", true, 1)
	elect("after vacancy", "a", 3, true)

	// The join grant carries the role, so a rejoining member learns it.
	grant, _, err := m.Join(joinRequest{Name: "b", URL: "http://b:2"})
	if err != nil {
		t.Fatalf("rejoin b: %v", err)
	}
	if grant.Source.Name != "a" || grant.Source.Epoch != 3 {
		t.Fatalf("join grant carries source %+v, want a@epoch3", grant.Source)
	}
}

func TestMembershipSweepVacatesSource(t *testing.T) {
	m := NewMembership(nil, time.Second, 8)
	clock := time.Unix(1000, 0)
	m.now = func() time.Time { return clock }
	_, mem, err := m.Join(joinRequest{Name: "a", URL: "http://a:1"})
	if err != nil {
		t.Fatal(err)
	}
	mem.healthy, mem.generation = true, 1
	if src, _, ok := m.elect(); !ok || src.Name != "a" {
		t.Fatalf("election gave %+v, want a", src)
	}
	clock = clock.Add(2 * time.Second)
	if evicted := m.Sweep(); len(evicted) != 1 {
		t.Fatalf("sweep evicted %d, want 1", len(evicted))
	}
	if src := m.Source(); src.Name != "" || src.Epoch != 1 {
		t.Fatalf("after lapse, source is %+v, want vacant at epoch 1", src)
	}
}

// TestFrontPromotesNewestGeneration drives the tick's probe and
// election by hand: the healthy member with the newest probed
// generation wins, ties break on the smallest name, and a healthy
// incumbent is never displaced.
func TestFrontPromotesNewestGeneration(t *testing.T) {
	fakes := map[string]*fakeReadyz{}
	var replicas []Replica
	for _, name := range []string{"r1", "r2", "r3"} {
		fz := &fakeReadyz{}
		srv := httptest.NewServer(fz)
		t.Cleanup(srv.Close)
		fakes[name] = fz
		replicas = append(replicas, Replica{Name: name, URL: srv.URL})
	}
	fakes["r1"].set(3, true)
	fakes["r2"].set(5, true) // newest generation: must win
	fakes["r3"].set(5, true) // same generation, later name: must lose

	f := NewFront(FrontConfig{Replicas: replicas, Promote: true, FailAfter: 1})
	ctx := context.Background()
	f.probeAll(ctx)
	f.maybePromote()
	if src := f.Members().Source(); src.Name != "r2" || src.Epoch != 1 {
		t.Fatalf("elected %+v, want r2@epoch1", src)
	}
	if got := f.PrimaryGeneration(); got != 5 {
		t.Fatalf("primary generation %d, want 5", got)
	}

	// A healthy incumbent holds the role even when overtaken.
	fakes["r1"].set(9, true)
	f.probeAll(ctx)
	f.maybePromote()
	if src := f.Members().Source(); src.Name != "r2" {
		t.Fatalf("healthy incumbent displaced: %+v", src)
	}

	// The incumbent failing probes hands the role to the best survivor —
	// and the tracked primary generation re-anchors to the new source.
	fakes["r2"].set(5, false)
	f.probeAll(ctx)
	f.maybePromote()
	if src := f.Members().Source(); src.Name != "r1" || src.Epoch != 2 {
		t.Fatalf("failover elected %+v, want r1@epoch2", src)
	}
	if got := f.PrimaryGeneration(); got != 9 {
		t.Fatalf("primary generation %d after failover, want 9", got)
	}
}

// fakeSourceFront is a bare front-shaped control surface serving only
// /v1/fleet/source with a settable SourceInfo.
type fakeSourceFront struct {
	mu  sync.Mutex
	src SourceInfo
}

func (f *fakeSourceFront) set(s SourceInfo) {
	f.mu.Lock()
	f.src = s
	f.mu.Unlock()
}

func (f *fakeSourceFront) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	src := f.src
	f.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(src)
}

func TestPullerEpochFence(t *testing.T) {
	_, _, primaryURL := newPrimary(t, corpus(t), 32<<10)
	front := &fakeSourceFront{}
	frontSrv := httptest.NewServer(front)
	t.Cleanup(frontSrv.Close)

	p, _, st := newReplica(t, "", nil)
	p.cfg.Front = frontSrv.URL
	ctx := context.Background()

	// Vacant role: nothing to pull, a clean no-op poll.
	if installed, err := p.PullOnce(ctx); err != nil || installed {
		t.Fatalf("vacant-role poll: installed=%v err=%v", installed, err)
	}

	// Role appears at epoch 2: adopt and install.
	front.set(SourceInfo{Name: "p", URL: primaryURL, Epoch: 2})
	if installed, err := p.PullOnce(ctx); err != nil || !installed {
		t.Fatalf("adoption poll: installed=%v err=%v", installed, err)
	}
	status := p.Status()
	if status.Source != primaryURL || status.SourceEpoch != 2 {
		t.Fatalf("adopted %q@%d, want %q@2", status.Source, status.SourceEpoch, primaryURL)
	}

	// A stale resolution at a lower epoch is refused; the adopted source
	// stays, so the poll still succeeds against it.
	front.set(SourceInfo{Name: "old", URL: "http://127.0.0.1:1", Epoch: 1})
	if _, err := p.PullOnce(ctx); err != nil {
		t.Fatalf("fenced poll: %v", err)
	}
	status = p.Status()
	if status.Fenced == 0 {
		t.Fatal("stale epoch was not fenced")
	}
	if status.Source != primaryURL || status.SourceEpoch != 2 {
		t.Fatalf("fence let source move to %q@%d", status.Source, status.SourceEpoch)
	}

	// The resolved source being this replica itself is a clean no-op:
	// a promoted source must not pull from anyone.
	p.cfg.Self = "http://self:1"
	front.set(SourceInfo{Name: "self", URL: "http://self:1", Epoch: 3})
	if installed, err := p.PullOnce(ctx); err != nil || installed {
		t.Fatalf("self-source poll: installed=%v err=%v", installed, err)
	}
	if got, err := st.LatestID(); err != nil || got != 1 {
		t.Fatalf("replica store at generation %d (err %v), want 1", got, err)
	}
}

// TestPullerReconcileQuarantinesDeadBranch rebuilds the failover
// scenario in miniature: a replica inherits generations the dead
// primary never shipped, the promoted source's history disagrees, and
// reconciliation must quarantine the dead branch and converge on the
// source's truth without deleting anything.
func TestPullerReconcileQuarantinesDeadBranch(t *testing.T) {
	srcStore, _, srcURL := newPrimary(t, corpus(t), 32<<10) // source at generation 1

	p, _, st := newReplica(t, "", nil)
	// The replica holds its own generations 1 and 2 from the old
	// primary's era — same ids, different bytes (different comments make
	// different manifests, hence different corpus digests is not
	// guaranteed; use a different corpus shape via double-save).
	if _, err := st.Save(corpus(t), "old-branch gen 1"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(corpus(t), "old-branch gen 2 (unshipped tail)"); err != nil {
		t.Fatal(err)
	}

	front := &fakeSourceFront{}
	frontSrv := httptest.NewServer(front)
	t.Cleanup(frontSrv.Close)
	p.cfg.Front = frontSrv.URL
	front.set(SourceInfo{Name: "s", URL: srcURL, Epoch: 5})

	ctx := context.Background()
	if _, err := p.PullOnce(ctx); err != nil {
		t.Fatalf("reconcile poll: %v", err)
	}

	status := p.Status()
	if status.Diverged == 0 {
		t.Fatalf("no divergence recorded: %+v", status)
	}
	// The replica must now hold exactly the source's branch: its newest
	// id with its digest.
	srcDigest, err := srcStore.GenDigest(1)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "replica converged on source branch", func() bool {
		id, err := st.LatestID()
		if err != nil || id != 1 {
			return false
		}
		d, err := st.GenDigest(1)
		return err == nil && d == srcDigest
	})
	// Nothing was deleted: the dead branch sits in quarantine.
	rep, err := st.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("store not clean after reconcile: %+v", rep)
	}
}
