package serve

import (
	"net/http"
	"reflect"
	"slices"
	"testing"

	"hftnetview/internal/uls"
)

// oneLicenseeChanged returns a copy of db in which one license of the
// named licensee, in force on the paper date, is retuned by 10 MHz.
func oneLicenseeChanged(t *testing.T, db *uls.Database, licensee string) *uls.Database {
	t.Helper()
	out := uls.NewDatabase()
	retuned := false
	for _, l := range db.All() {
		c := *l
		c.Locations = slices.Clone(l.Locations)
		c.Paths = slices.Clone(l.Paths)
		for i := range c.Paths {
			c.Paths[i].FrequenciesMHz = slices.Clone(l.Paths[i].FrequenciesMHz)
		}
		if !retuned && c.Licensee == licensee && c.ActiveAt(paperSnapshot()) && len(c.Paths) > 0 {
			c.Paths[0].FrequenciesMHz[0] += 10
			retuned = true
		}
		if err := out.Add(&c); err != nil {
			t.Fatal(err)
		}
	}
	if !retuned {
		t.Fatalf("%s has no license in force on the paper date", licensee)
	}
	return out
}

// TestInheritRebuildBudget gates the generation carry-over (make
// bench-gate): after a publish that changes one licensee, re-requesting
// the three paper-date snapshot tables rebuilds exactly that licensee's
// three families (one per corridor path) and serves every other
// licensee's snapshot from the inherited memo. The count is
// deterministic; without the carry-over all 3 × 12 requested families
// (the licensees within fiber reach of both ends) rebuild. The answers
// equal a fresh server's over the new corpus.
func TestInheritRebuildBudget(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	urls := []string{
		"/v1/snapshot?path=CME-NY4",
		"/v1/snapshot?path=CME-NYSE",
		"/v1/snapshot?path=CME-NASDAQ",
	}
	for _, u := range urls {
		if rec := get(t, h, u); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", u, rec.Code)
		}
	}
	warm := s.Stats().Engine.Entries

	next := oneLicenseeChanged(t, corpus(t), "Webline Holdings")
	s.SetCorpus(next, "one licensee changed")
	fresh := New(Config{})
	fresh.SetCorpus(next, "fresh")
	for _, u := range urls {
		rec := get(t, h, u)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", u, rec.Code)
		}
		want := get(t, fresh.Handler(), u)
		if got, w := decode[snapshotResp](t, rec), decode[snapshotResp](t, want); !reflect.DeepEqual(got.Networks, w.Networks) {
			t.Errorf("%s: rows after the carry-over differ from a fresh server's", u)
		}
	}

	st := s.Stats().Engine
	t.Logf("carry-over: %d of %d entries inherited, %d rebuilds for %d requests",
		st.Inherited, warm, st.Rebuilds, len(urls))
	if st.Rebuilds != int64(len(urls)) {
		t.Errorf("rebuilds after a one-licensee publish = %d, want %d (the changed licensee's families only)",
			st.Rebuilds, len(urls))
	}
	if st.Inherited != int64(warm-len(urls)) {
		t.Errorf("inherited %d entries, want %d (all but the changed licensee's)", st.Inherited, warm-len(urls))
	}
}
