package serve

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hftnetview/internal/synth"
	"hftnetview/internal/uls"
)

// writeBulkFile writes db to path in bulk interchange format.
func writeBulkFile(t testing.TB, path string, db *uls.Database) {
	t.Helper()
	var buf bytes.Buffer
	if err := uls.WriteBulk(&buf, db); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// withoutLicensee returns a copy of db minus one licensee's filings.
func withoutLicensee(t testing.TB, db *uls.Database, name string) *uls.Database {
	t.Helper()
	out := uls.NewDatabase()
	for _, l := range db.All() {
		if l.Licensee == name {
			continue
		}
		if err := out.Add(l); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// licenseeSet extracts the sorted licensee column from a snapshot
// response for corpus-identity comparison.
func licenseeSet(resp snapshotResp) string {
	names := make([]string, 0, len(resp.Networks))
	for _, n := range resp.Networks {
		names = append(names, n.Licensee)
	}
	return strings.Join(names, "|")
}

// TestNeverInForceLicenseCountsZero: a corpus file holding a license
// that expires before its grant loads — the integrity pass reports the
// dates but has nothing to repair — and that license counts on no
// date: its licensee's evolution reads 0 active licenses, and its
// replay carries no diff frame.
func TestNeverInForceLicenseCountsZero(t *testing.T) {
	var buf bytes.Buffer
	if err := uls.WriteBulk(&buf, corpus(t)); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(strings.Join([]string{
		"HD|WQZZ999|999999|MG|A|01/01/2016|01/01/2015|",
		"EN|WQZZ999|Lone Filer|0099999999|noc@lonefiler.example",
		"LO|WQZZ999|1|41-45-00.0 N|88-12-00.0 W|200.0|100.0",
		"LO|WQZZ999|2|41-42-00.0 N|87-42-00.0 W|190.0|100.0",
		"PA|WQZZ999|1|1|2|FXO|45.0|225.0|38.0",
		"FR|WQZZ999|1|11245.0",
		"",
	}, "\n"))
	bulk := filepath.Join(t.TempDir(), "corpus.uls")
	if err := os.WriteFile(bulk, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	if err := s.LoadCorpusFile(bulk, ReloadOptions{}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	rec := get(t, h, "/v1/evolution?licensee=Lone%20Filer&from=2015&to=2015")
	if rec.Code != http.StatusOK {
		t.Fatalf("evolution status = %d, body %s", rec.Code, rec.Body.String())
	}
	evo := decode[struct {
		Points []struct {
			ActiveLicenses int `json:"active_licenses"`
		} `json:"points"`
	}](t, rec)
	if len(evo.Points) != 1 || evo.Points[0].ActiveLicenses != 0 {
		t.Fatalf("evolution points = %+v, want one with 0 active licenses", evo.Points)
	}

	rec = get(t, h, "/v1/watch?licensee=Lone%20Filer&from=2014&to=2016")
	if rec.Code != http.StatusOK {
		t.Fatalf("watch status = %d, body %s", rec.Code, rec.Body.String())
	}
	events, _ := parseSSE(rec.Body)
	if diffs := assertWatchFrames(t, events); len(diffs) != 0 {
		t.Fatalf("replay of a license never in force carried %d diff frames, want 0", len(diffs))
	}
}

// TestHotReloadAtomicSwap: queries racing an atomic generation swap
// must each observe exactly one complete corpus — the old or the new,
// never a blend, a partial load, or an error. Run under -race.
func TestHotReloadAtomicSwap(t *testing.T) {
	dir := t.TempDir()
	bulk := filepath.Join(dir, "corpus.uls")

	dbA := corpus(t)
	dbB := withoutLicensee(t, dbA, "Webline Holdings")

	writeBulkFile(t, bulk, dbA)
	s := New(Config{MaxInFlight: 32})
	if err := s.LoadCorpusFile(bulk, ReloadOptions{}); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// The two legal worlds, as served by the API itself.
	wantA := licenseeSet(decode[snapshotResp](t, get(t, h, "/v1/snapshot")))
	if !strings.Contains(wantA, "Webline Holdings") {
		t.Fatalf("corpus A missing Webline Holdings: %q", wantA)
	}
	writeBulkFile(t, bulk, dbB)
	if err := s.LoadCorpusFile(bulk, ReloadOptions{}); err != nil {
		t.Fatal(err)
	}
	wantB := licenseeSet(decode[snapshotResp](t, get(t, h, "/v1/snapshot")))
	if wantA == wantB {
		t.Fatalf("corpora A and B serve identical rows; swap test is vacuous")
	}

	// Hammer queries while a writer goroutine keeps swapping A <-> B.
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				writeBulkFile(t, bulk, dbA)
			} else {
				writeBulkFile(t, bulk, dbB)
			}
			if err := s.LoadCorpusFile(bulk, ReloadOptions{}); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
		}
	}()

	var readers sync.WaitGroup
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; i < 25; i++ {
				rec := get(t, h, "/v1/snapshot")
				if rec.Code != http.StatusOK {
					t.Errorf("reader %d query %d: status %d (%s)", g, i, rec.Code, rec.Body.String())
					return
				}
				got := licenseeSet(decode[snapshotResp](t, rec))
				if got != wantA && got != wantB {
					t.Errorf("reader %d query %d observed a corpus that is neither A nor B:\n got %q\n A  %q\n B  %q",
						g, i, got, wantA, wantB)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

// TestReloadFailureKeepsOldGeneration: reload candidates that blow the
// ingestion error budget, or come back empty, are refused — the old
// generation keeps serving and the failure surfaces on /readyz. A
// subsequent repaired reload goes live. Run under -race.
func TestReloadFailureKeepsOldGeneration(t *testing.T) {
	dir := t.TempDir()
	bulk := filepath.Join(dir, "corpus.uls")
	dbA := corpus(t)
	writeBulkFile(t, bulk, dbA)

	s := New(Config{})
	opts := ReloadOptions{MaxErrorRate: 0.02}
	if err := s.LoadCorpusFile(bulk, opts); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	baseline := licenseeSet(decode[snapshotResp](t, get(t, h, "/v1/snapshot")))

	// Heavily corrupted candidates (every profile) and a truncated-to-
	// empty file must all be refused.
	cases := []struct {
		name  string
		bytes func() []byte
	}{
		{"empty file", func() []byte { return nil }},
		{"mixed corruption", func() []byte {
			return synth.Corrupt(dbA, synth.Profile{
				Name: "mixed", Rate: 0.6, GarbleW: 3, TruncateW: 2, DuplicateW: 2, ReorderW: 1, ShredW: 2,
			}, 7).Dirty
		}},
		{"garble corruption", func() []byte {
			return synth.Corrupt(dbA, synth.Profile{Name: "garble", Rate: 0.6, GarbleW: 1}, 11).Dirty
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(bulk, tc.bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := s.LoadCorpusFile(bulk, opts); err == nil {
				t.Fatal("corrupted reload succeeded, want refusal")
			}

			// Old generation still serving, byte-for-byte the same rows.
			rec := get(t, h, "/v1/snapshot")
			if rec.Code != http.StatusOK {
				t.Fatalf("query after failed reload: status %d", rec.Code)
			}
			if got := licenseeSet(decode[snapshotResp](t, rec)); got != baseline {
				t.Errorf("rows changed after failed reload:\n got  %q\n want %q", got, baseline)
			}
			if g := s.Stats().Generation; g == nil || g.ID != 1 {
				t.Errorf("generation = %+v, want ID 1 still live", g)
			}

			// readyz: still ready, but degraded with the reload error.
			rb := decode[readyzBody](t, get(t, h, "/readyz"))
			if !rb.Ready || !rb.Degraded || rb.LastReloadError == "" {
				t.Errorf("readyz after failed reload = %+v, want ready+degraded with error", rb)
			}
			if st := s.ReloadStatus(); st.Failures != i+1 {
				t.Errorf("reload failures = %d, want %d", st.Failures, i+1)
			}
		})
	}

	// Repaired corpus: reload succeeds, generation advances, /readyz
	// clears the degraded flag.
	writeBulkFile(t, bulk, dbA)
	if err := s.LoadCorpusFile(bulk, opts); err != nil {
		t.Fatalf("repaired reload: %v", err)
	}
	if g := s.Stats().Generation; g == nil || g.ID != 2 {
		t.Errorf("generation after repaired reload = %+v, want ID 2", g)
	}
	rb := decode[readyzBody](t, get(t, h, "/readyz"))
	if !rb.Ready || rb.Degraded || rb.LastReloadError != "" {
		t.Errorf("readyz after repaired reload = %+v, want ready and clean", rb)
	}
	if got := licenseeSet(decode[snapshotResp](t, get(t, h, "/v1/snapshot"))); got != baseline {
		t.Errorf("rows after repaired reload:\n got  %q\n want %q", got, baseline)
	}
}
