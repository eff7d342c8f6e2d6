package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"hftnetview/internal/serve"
	"hftnetview/internal/store"
	"hftnetview/internal/synth"
	"hftnetview/internal/uls"
)

var (
	corpusOnce sync.Once
	corpusDB   *uls.Database
	corpusErr  error
)

func corpus(t testing.TB) *uls.Database {
	t.Helper()
	corpusOnce.Do(func() { corpusDB, corpusErr = synth.Generate() })
	if corpusErr != nil {
		t.Fatalf("synth.Generate: %v", corpusErr)
	}
	return corpusDB
}

// alteredCorpus is the shared corpus minus its first license. Dropping
// the head shifts every encoding block by one, so NO segment of a
// generation saved from it is digest-identical to one saved from
// corpus — tests that need the wire actually exercised (corruption
// drills) use this for re-publications, or the puller's local digest
// reuse would satisfy the pull with zero fetched bytes.
func alteredCorpus(t testing.TB) *uls.Database {
	t.Helper()
	all := corpus(t).All()
	db := uls.NewDatabase()
	if err := db.AddBulk(all[1:], uls.BulkAddOptions{TrustValidated: true}); err != nil {
		t.Fatalf("building altered corpus: %v", err)
	}
	return db
}

// newPrimary opens a store in a temp dir with the given segment target,
// saves db as one generation, and serves the shipping endpoints over
// httptest. Returns the store, the generation, and the shipping base
// URL.
func newPrimary(t testing.TB, db *uls.Database, segmentTarget int) (*store.Store, *store.GenInfo, string) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.WithSegmentTarget(segmentTarget), store.WithBlockLicenses(8))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	gi, err := st.Save(db, "primary seed")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewShipper(st))
	t.Cleanup(srv.Close)
	return st, gi, srv.URL
}

// newReplica wires a puller-backed replica over its own store and
// serve server. The caller drives PullOnce by hand.
func newReplica(t testing.TB, primary string, client *http.Client) (*Puller, *serve.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := serve.New(serve.Config{})
	srv.AttachStore(st)
	p := NewPuller(PullerConfig{Primary: primary, Store: st, Server: srv, Client: client})
	return p, srv, st
}

// diskSegment reads one committed segment the way the Shipper streams
// it: resolved through SegmentHandle, then read from its path.
func diskSegment(t testing.TB, st *store.Store, id int64, name string) []byte {
	t.Helper()
	path, _, _, err := st.SegmentHandle(id, name)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// clientWith wraps a transport in a plain client.
func clientWith(rt http.RoundTripper) *http.Client {
	return &http.Client{Transport: rt, Timeout: 30 * time.Second}
}

// getJSON GETs url and decodes the JSON body into T.
func getJSON[T any](t testing.TB, client *http.Client, url string) (T, int) {
	t.Helper()
	var v T
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, body, err)
		}
	}
	return v, resp.StatusCode
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// holdsFor polls cond for d and fails the moment it does not hold.
func holdsFor(t testing.TB, d time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if !cond() {
			t.Fatalf("%s did not hold for %v", what, d)
		}
	}
}
