package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hftnetview/internal/sites"
	"hftnetview/internal/store"
)

// tempDebris lists the in-progress store artifacts (tmp-gen-* dirs,
// MANIFEST-*.json.tmp files) in dir.
func tempDebris(t testing.TB, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading store dir: %v", err)
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "tmp-gen-") || strings.HasSuffix(name, ".json.tmp") {
			out = append(out, name)
		}
	}
	return out
}

// TestWarmStartServesPersistedGeneration: a server attached to a store
// holding a verified generation must boot from it — ready, queryable,
// and reporting warm boot mode — without writing a duplicate
// generation back.
func TestWarmStartServesPersistedGeneration(t *testing.T) {
	dir := t.TempDir()
	seed, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Save(corpus(t), "seeded by test"); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	s.AttachStore(st)
	rep, err := s.WarmStart()
	if err != nil {
		t.Fatalf("warm start: %v\n%s", err, rep)
	}
	if rep.Served == 0 || len(rep.Discarded) != 0 {
		t.Fatalf("unexpected recovery report: %s", rep)
	}

	h := s.Handler()
	if rec := get(t, h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz after warm start = %d, body %s", rec.Code, rec.Body.String())
	}
	if rec := get(t, h, "/v1/snapshot"); rec.Code != http.StatusOK {
		t.Fatalf("/v1/snapshot after warm start = %d, body %s", rec.Code, rec.Body.String())
	}

	ps := s.PersistStatus()
	if !ps.Enabled || ps.Boot != "warm" || !ps.Verified || ps.Generation != rep.Served {
		t.Fatalf("persist status = %+v, want enabled warm verified gen %d", ps, rep.Served)
	}

	// Recovering must not have re-persisted the corpus as a new
	// generation.
	gens, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 {
		t.Fatalf("store has %d generations after warm start, want 1", len(gens))
	}
	if err := s.CloseStore(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmStartPrewarmsEngine: a warm boot kicks a background prewarm
// of the default query surface — one snapshot per licensee within
// fiber reach of both ends of CME-NY4 — so the first zero-parameter
// /v1/snapshot after the prewarm settles is served entirely from the
// memo store.
func TestWarmStartPrewarmsEngine(t *testing.T) {
	dir := t.TempDir()
	seed, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Save(corpus(t), "seeded by test"); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	s.AttachStore(st)
	if _, err := s.WarmStart(); err != nil {
		t.Fatalf("warm start: %v", err)
	}
	defer s.CloseStore()

	deadline := time.Now().Add(30 * time.Second)
	for s.PersistStatus().Prewarmed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background prewarm never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}
	path := sites.Path{From: sites.CME, To: sites.NY4}
	if got, want := s.PersistStatus().Prewarmed, len(reachingBoth(corpus(t), path)); got != want {
		t.Fatalf("prewarmed %d snapshots, want one per licensee that filed within reach of both CME and NY4 (%d)", got, want)
	}

	before := s.Stats().Engine.Rebuilds
	if rec := get(t, s.Handler(), "/v1/snapshot"); rec.Code != http.StatusOK {
		t.Fatalf("/v1/snapshot = %d, body %s", rec.Code, rec.Body.String())
	}
	if after := s.Stats().Engine.Rebuilds; after != before {
		t.Errorf("default query after prewarm rebuilt (%d -> %d), want all memo hits", before, after)
	}
}

// TestPublishPersistsGenerations: with a store attached, every
// published corpus — SetCorpus and successful file reloads alike —
// lands as a new on-disk generation.
func TestPublishPersistsGenerations(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	s.AttachStore(st)

	s.SetCorpus(corpus(t), "direct corpus")
	gens, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 {
		t.Fatalf("store has %d generations after SetCorpus, want 1", len(gens))
	}

	bulk := filepath.Join(t.TempDir(), "corpus.uls")
	writeBulkFile(t, bulk, withoutLicensee(t, corpus(t), "Webline Holdings"))
	if err := s.LoadCorpusFile(bulk, ReloadOptions{}); err != nil {
		t.Fatal(err)
	}
	if gens, err = st.List(); err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 {
		t.Fatalf("store has %d generations after reload, want 2", len(gens))
	}
	if gens[0].Licenses >= gens[1].Licenses {
		t.Fatalf("newest generation has %d licenses, want fewer than %d (the reload dropped a licensee)",
			gens[0].Licenses, gens[1].Licenses)
	}

	ps := s.PersistStatus()
	if ps.Generation != gens[0].ID || ps.LastError != "" {
		t.Fatalf("persist status = %+v, want generation %d and no error", ps, gens[0].ID)
	}
	if err := s.CloseStore(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistFailureKeepsServing: a persistence failure must not
// affect the in-memory publish — the corpus serves, and the failure
// surfaces as degraded health on /readyz.
func TestPersistFailureKeepsServing(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.WithFailpoints(store.Failpoints{
		BeforeManifest: func() error {
			return fmt.Errorf("%w: injected persist failure", store.ErrFailpoint)
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	s.AttachStore(st)
	s.SetCorpus(corpus(t), "doomed persist")

	h := s.Handler()
	rec := get(t, h, "/v1/snapshot")
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/snapshot = %d after persist failure, want 200", rec.Code)
	}
	body := decode[struct {
		Ready    bool `json:"ready"`
		Degraded bool `json:"degraded"`
		Persist  *struct {
			LastError string `json:"last_error"`
		} `json:"persist"`
	}](t, get(t, h, "/readyz"))
	if !body.Ready || !body.Degraded || body.Persist == nil || body.Persist.LastError == "" {
		t.Fatalf("/readyz = %+v, want ready+degraded with a persist error", body)
	}
	if err := s.CloseStore(); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownSweepsPersistDebris: when termination lands around an
// interrupted persist — here an injected crash that strands a
// tmp-gen-* directory, exactly what SIGTERM mid-Save leaves — the
// graceful shutdown path must close the store and sweep the debris
// before the process exits.
func TestShutdownSweepsPersistDebris(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.WithFailpoints(store.Failpoints{
		BeforeManifest: func() error {
			return fmt.Errorf("%w: crash mid-persist", store.ErrFailpoint)
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	s.AttachStore(st)

	stop := make(chan struct{})
	httpSrv := &http.Server{Addr: "127.0.0.1:0", Handler: s.Handler()}
	addrC := make(chan net.Addr, 1)
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- ListenAndServeGraceful(httpSrv, GracefulOptions{
			DrainTimeout: 5 * time.Second,
			OnReady:      func(a net.Addr) { addrC <- a },
			Stop:         stop,
			OnShutdown: func() {
				if err := s.CloseStore(); err != nil {
					t.Errorf("closing store on shutdown: %v", err)
				}
			},
		})
	}()
	select {
	case <-addrC:
	case err := <-serveErr:
		t.Fatalf("server died before ready: %v", err)
	}

	// Publish while serving: the injected failpoint kills the persist
	// after the segments are written, stranding a temp directory like a
	// real crash would.
	s.SetCorpus(corpus(t), "interrupted persist")
	if got := tempDebris(t, dir); len(got) == 0 {
		t.Fatal("failpoint left no temp debris; the test is not exercising the sweep")
	}

	// "SIGTERM": stop triggers the graceful path, which runs OnShutdown
	// after the drain.
	close(stop)
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}

	if got := tempDebris(t, dir); len(got) != 0 {
		t.Fatalf("temp debris survived shutdown: %v", got)
	}

	// The store is closed: further persists must refuse, not recreate
	// debris.
	if _, err := st.Save(corpus(t), "after close"); !errors.Is(err, store.ErrClosed) {
		t.Fatalf("save after shutdown = %v, want ErrClosed", err)
	}
}

// TestWarmStartSweepsLegacyKeyframes: a store written by an earlier
// release holds a replay keyframe sidecar (KF-NNNNNN.dat, one
// CRC32C-framed JSON block) next to its generation. Open removes it and
// leaves a clean store, and the warm-started server answers
// /v1/evolution byte for byte like a cold server over the same corpus.
func TestWarmStartSweepsLegacyKeyframes(t *testing.T) {
	dir := t.TempDir()
	seed, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gi, err := seed.Save(corpus(t), "seeded by test")
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"corpus_sha256":"` + gi.CorpusSHA256 + `","keyframe_interval":16,` +
		`"tracks":[{"licensees":["New Line Networks"],"keyframes":[{"event_index":16,"call_signs":["WQAA000"]}]}]}`)
	frame := []byte("HFTSEG1\n")
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	legacy := filepath.Join(dir, fmt.Sprintf("KF-%06d.dat", gi.ID))
	if err := os.WriteFile(legacy, append(frame, payload...), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("legacy keyframe file survived Open (stat err %v)", err)
	}
	rep, err := st.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || len(rep.Orphans) != 0 {
		t.Fatalf("fsck after the sweep: %+v", rep)
	}

	warm := New(Config{})
	warm.AttachStore(st)
	defer warm.CloseStore()
	if _, err := warm.WarmStart(); err != nil {
		t.Fatalf("warm start: %v", err)
	}
	cold := testServer(t, Config{})
	for _, licensee := range []string{"New Line Networks", corpus(t).Licensees()[0]} {
		u := "/v1/evolution?licensee=" + url.QueryEscape(licensee)
		got := get(t, warm.Handler(), u)
		want := get(t, cold.Handler(), u)
		if got.Code != http.StatusOK || want.Code != http.StatusOK {
			t.Fatalf("%s: warm %d, cold %d", u, got.Code, want.Code)
		}
		if got.Body.String() != want.Body.String() {
			t.Fatalf("%s: warm-started answer differs from a cold server's:\nwarm %s\ncold %s", u, got.Body, want.Body)
		}
	}
}
