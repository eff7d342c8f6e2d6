package fleet

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hftnetview/internal/serve"
	"hftnetview/internal/store"
	"hftnetview/internal/synth"
	"hftnetview/internal/uls"
)

// segGet is one observed wire fetch of a segment: which generation and
// segment, from which host, from which byte offset (0 = full GET, >0 =
// ranged resume) and under which If-Range validator.
type segGet struct {
	gen, name     string
	off           int64
	host, ifRange string
}

// recordingTransport logs every segment GET passing through it — the
// soak's proof that verified segments are never re-fetched and resumes
// are genuinely ranged — and counts every other request.
type recordingTransport struct {
	base http.RoundTripper

	mu     sync.Mutex
	gets   []segGet
	others int
}

func (r *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	r.mu.Lock()
	if strings.Contains(req.URL.Path, shipPrefix+"segment/") {
		parts := strings.Split(req.URL.Path, "/")
		g := segGet{gen: parts[len(parts)-2], name: parts[len(parts)-1], host: req.URL.Host, ifRange: req.Header.Get("If-Range")}
		if rg, ok := strings.CutPrefix(req.Header.Get("Range"), "bytes="); ok {
			v, _, _ := strings.Cut(rg, "-")
			g.off, _ = strconv.ParseInt(v, 10, 64)
		}
		r.gets = append(r.gets, g)
	} else {
		r.others++
	}
	r.mu.Unlock()
	base := r.base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}

func (r *recordingTransport) snapshot() []segGet {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]segGet(nil), r.gets...)
}

// assertInstalled is the common teardown gate: after a drill
// converges, the replica store must hold generation id byte-identical
// to the primary's (same manifest, same digests), no staging debris,
// and pass a full integrity walk.
func assertInstalled(t *testing.T, pst, st *store.Store, id int64, drill string) {
	t.Helper()
	pm, _, _ := pst.ExportManifest(id)
	if rm, _, err := st.ExportManifest(id); err != nil || string(pm) != string(rm) {
		t.Fatalf("%s: replica manifest differs from primary's (err %v)", drill, err)
	}
	if _, err := st.GC(3); err != nil {
		t.Fatalf("%s: gc: %v", drill, err)
	}
	if ids, _ := st.StagingIDs(); len(ids) != 0 {
		t.Errorf("%s: staging leak after drain: %v", drill, ids)
	}
	rep, err := st.Fsck()
	if err != nil {
		t.Fatalf("%s: fsck: %v", drill, err)
	}
	if !rep.OK() {
		t.Errorf("%s: fsck not clean: %+v", drill, rep)
	}
}

// TestShipSoak is E25, the torn-transfer drill: resumable delta
// replication must converge byte-identically under mid-stream link
// cuts, corruption injected into resumed ranges, kill/restart between
// segments, and a throttled link — re-downloading nothing it already
// verified and shipping zero wire bytes for segments shared between
// generations. `make ship-soak` runs it alone under -race; `make ci`
// runs it once, in `make race`.
func TestShipSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}

	// ---- Drill 1: flaky link. Every segment download risks a seeded
	// mid-stream cut AND byte corruption (206 resumes included). The
	// puller must grind through on ranged resumes and still install the
	// exact published bytes — poisoned partials quarantined, never
	// blended.
	t.Run("flaky-link", func(t *testing.T) {
		pst, gi, primary := newPrimary(t, corpus(t), 16<<10)
		faulty := NewFaultyTransport(nil, synth.Profiles()[len(synth.Profiles())-1], 7)
		faulty.SetRate(0.15)
		cut := NewCutTransport(faulty, 7)
		cut.SetRate(0.6)
		p, _, rst := newReplica(t, primary, clientWith(cut))

		installed := false
		verifiedHighWater := 0
		for attempt := 0; attempt < 500 && !installed; attempt++ {
			ok, err := p.PullOnce(context.Background())
			if ok {
				installed = true
				break
			}
			if err == nil {
				t.Fatalf("attempt %d: PullOnce = (false, nil) with nothing installed", attempt)
			}
			// Progress must be monotone: a failed attempt never costs a
			// segment that already verified.
			if rep, rerr := rst.StagingReportFor(gi.ID); rerr == nil {
				if got := len(rep.Verified); got < verifiedHighWater {
					t.Fatalf("verified count regressed %d → %d after %v", verifiedHighWater, got, err)
				} else {
					verifiedHighWater = got
				}
			}
		}
		if !installed {
			t.Fatalf("no convergence in 500 attempts (cuts=%d corrupted=%d status=%+v)",
				cut.Cuts.Load(), faulty.Corrupted.Load(), p.Status())
		}
		st := p.Status()
		if cut.Cuts.Load() == 0 || faulty.Corrupted.Load() == 0 {
			t.Fatalf("drill vacuous: cuts=%d corrupted=%d", cut.Cuts.Load(), faulty.Corrupted.Load())
		}
		if st.Resumed == 0 {
			t.Errorf("no ranged resumes under a 60%% cut rate: %+v", st)
		}
		t.Logf("flaky-link: %d attempts, %d cuts, %d corrupted, status %+v",
			st.Attempts, cut.Cuts.Load(), faulty.Corrupted.Load(), st)
		assertInstalled(t, pst, rst, gi.ID, "flaky-link")
	})

	// ---- Drill 2: kill/restart. The replica dies mid-transfer (store
	// slammed shut between segments, like a SIGKILL), reboots from the
	// surviving directory, and finishes. The wire log must show each
	// segment fetched from byte zero at most once, per-segment offsets
	// never regressing, and zero fetches for anything verified before
	// the kill.
	t.Run("kill-restart", func(t *testing.T) {
		pst, gi, primary := newPrimary(t, corpus(t), 16<<10)
		dir := t.TempDir()
		rec := &recordingTransport{}
		cut := NewCutTransport(rec, 99)
		cut.SetRate(0.5)
		boot := func() (*Puller, *store.Store) {
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			srv := serve.New(serve.Config{})
			srv.AttachStore(st)
			return NewPuller(PullerConfig{Primary: primary, Store: st, Server: srv, Client: clientWith(cut)}), st
		}
		p, rst := boot()

		// Phase 1: pull under cuts until some segments verified but the
		// install hasn't landed — then kill.
		phase1Installed := false
		for attempt := 0; attempt < 200; attempt++ {
			if ok, _ := p.PullOnce(context.Background()); ok {
				phase1Installed = true
				break
			}
			if rep, rerr := rst.StagingReportFor(gi.ID); rerr == nil && len(rep.Verified) >= 1 {
				break
			}
		}
		var verifiedAtKill map[string]bool
		var killMark int
		if !phase1Installed {
			rep, rerr := rst.StagingReportFor(gi.ID)
			if rerr != nil {
				t.Fatalf("no staging progress before the kill: %v", rerr)
			}
			verifiedAtKill = map[string]bool{}
			for _, name := range rep.Verified {
				verifiedAtKill[name] = true
			}
			killMark = len(rec.snapshot())
			rst.Close() // SIGKILL-shaped: no drain, staging left as-is

			// Phase 2: reboot from the same disk, clean link, finish.
			p, rst = boot()
			cut.SetRate(0)
			if ok, perr := p.PullOnce(context.Background()); perr != nil || !ok {
				t.Fatalf("post-restart pull = (%v, %v), want install", ok, perr)
			}
		}
		defer rst.Close()
		if id, _ := rst.LatestID(); id != gi.ID {
			t.Fatalf("replica at %d after restart, want %d", id, gi.ID)
		}

		gets := rec.snapshot()
		zeroFetches := map[string]int{}
		lastOff := map[string]int64{}
		var resumes int
		for _, g := range gets {
			key := g.gen + "/" + g.name
			if g.off == 0 {
				zeroFetches[key]++
			} else {
				resumes++
			}
			if g.off < lastOff[key] {
				t.Errorf("segment %s fetched at offset %d after reaching %d — resume regressed", key, g.off, lastOff[key])
			}
			lastOff[key] = g.off
		}
		for key, n := range zeroFetches {
			if n > 1 {
				t.Errorf("segment %s fetched from byte zero %d times — verified or partial progress was thrown away", key, n)
			}
		}
		if !phase1Installed {
			if resumes == 0 {
				t.Error("no ranged fetch in the whole drill — resume leg vacuous")
			}
			for _, g := range gets[killMark:] {
				if verifiedAtKill[g.name] {
					t.Errorf("segment %s was verified before the kill but fetched again after restart", g.name)
				}
			}
			t.Logf("kill-restart: %d wire gets, %d ranged, %d verified at kill, %d cuts",
				len(gets), resumes, len(verifiedAtKill), cut.Cuts.Load())
		} else {
			t.Logf("kill-restart: converged before the kill window (%d gets, %d ranged) — kill leg skipped this seed", len(gets), resumes)
		}
		assertInstalled(t, pst, rst, gi.ID, "kill-restart")
	})

	// ---- Drill 3: delta shipping. The replica holds generation N; the
	// primary publishes N+1 sharing most segment digests. The pull must
	// reuse every shared segment from local disk — zero wire bytes for
	// them — and fetch exactly the changed tail.
	t.Run("delta", func(t *testing.T) {
		all := corpus(t).All()
		prefix := uls.NewDatabase()
		if err := prefix.AddBulk(all[:len(all)*3/4], uls.BulkAddOptions{TrustValidated: true}); err != nil {
			t.Fatal(err)
		}
		pst, gi1, primary := newPrimary(t, prefix, 16<<10)

		rec := &recordingTransport{}
		p, _, rst := newReplica(t, primary, clientWith(rec))
		if ok, err := p.PullOnce(context.Background()); err != nil || !ok {
			t.Fatalf("bootstrap pull = (%v, %v)", ok, err)
		}

		gi2, err := pst.Save(corpus(t), "delta gen two")
		if err != nil {
			t.Fatal(err)
		}
		shas1 := map[string]bool{}
		for _, si := range gi1.Segments {
			shas1[si.SHA256] = true
		}
		shared := map[string]bool{}
		var sharedCount int
		var changedBytes int64
		for _, si := range gi2.Segments {
			if shas1[si.SHA256] {
				shared[si.Name] = true
				sharedCount++
			} else {
				changedBytes += si.Bytes
			}
		}
		if sharedCount == 0 || changedBytes == 0 {
			t.Fatalf("drill vacuous: %d shared segments, %d changed bytes", sharedCount, changedBytes)
		}

		before := p.Status()
		mark := len(rec.snapshot())
		if ok, err := p.PullOnce(context.Background()); err != nil || !ok {
			t.Fatalf("delta pull = (%v, %v)", ok, err)
		}
		after := p.Status()

		gen2 := strconv.FormatInt(gi2.ID, 10)
		for _, g := range rec.snapshot()[mark:] {
			if g.gen == gen2 && shared[g.name] {
				t.Errorf("shared segment %s crossed the wire — delta reuse failed", g.name)
			}
		}
		if got := after.ReusedSegments - before.ReusedSegments; got != int64(sharedCount) {
			t.Errorf("reused_segments += %d, want %d", got, sharedCount)
		}
		if got := after.BytesFetched - before.BytesFetched; got != changedBytes {
			t.Errorf("bytes_fetched += %d, want exactly the %d changed bytes", got, changedBytes)
		}
		if after.BytesSaved <= before.BytesSaved {
			t.Errorf("bytes_saved did not grow across a delta pull: %d → %d", before.BytesSaved, after.BytesSaved)
		}
		t.Logf("delta: %d/%d segments reused, %d bytes fetched (saved %d)",
			sharedCount, len(gi2.Segments), after.BytesFetched-before.BytesFetched,
			after.BytesSaved-before.BytesSaved)
		assertInstalled(t, pst, rst, gi2.ID, "delta")
	})

	// ---- Drill 4: slow link. A byte-budget below the corpus size must
	// throttle the transfer (the bucket visibly waits) and still land a
	// clean install.
	t.Run("slow-link", func(t *testing.T) {
		pst, gi, primary := newPrimary(t, corpus(t), 16<<10)
		rst, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rst.Close() })
		srv := serve.New(serve.Config{})
		srv.AttachStore(rst)
		p := NewPuller(PullerConfig{
			Primary: primary, Store: rst, Server: srv,
			MaxBytesPerSec: gi.Bytes / 2, // burst covers half; the rest must wait
		})
		if ok, err := p.PullOnce(context.Background()); err != nil || !ok {
			t.Fatalf("throttled pull = (%v, %v)", ok, err)
		}
		st := p.Status()
		if st.ThrottleWaits == 0 {
			t.Errorf("throttled pull recorded zero waits: %+v", st)
		}
		t.Logf("slow-link: %d throttle waits over %d bytes", st.ThrottleWaits, st.BytesFetched)
		assertInstalled(t, pst, rst, gi.ID, "slow-link")
	})
}
