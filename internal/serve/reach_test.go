package serve

import (
	"net/http"
	"testing"

	"hftnetview/internal/core"
	"hftnetview/internal/geo"
	"hftnetview/internal/sites"
	"hftnetview/internal/synth"
	"hftnetview/internal/uls"
)

// reachingBoth returns the licensees that filed a location within the
// default fiber reach of both ends of path, by a scan over every
// filing: the ones whose snapshots a Table 1 read of the path asks
// for.
func reachingBoth(db *uls.Database, path sites.Path) []string {
	near := func(l *uls.License, dc sites.DataCenter) bool {
		for _, loc := range l.Locations {
			if geo.Distance(dc.Location, loc.Point) <= core.DefaultOptions().MaxFiberMeters {
				return true
			}
		}
		return false
	}
	var out []string
	for _, name := range db.Licensees() {
		from, to := false, false
		for _, l := range db.ByLicensee(name) {
			from = from || near(l, path.From)
			to = to || near(l, path.To)
		}
		if from && to {
			out = append(out, name)
		}
	}
	return out
}

// TestSnapshotLookupBudget gates the fiber-reach and candidate screens
// (make bench-gate): a paper-date /v1/snapshot on CME-NY4 asks the
// engine for exactly 12 snapshots, one per licensee that filed within
// fiber reach of both CME and NY4, and a /v1/apa for 25: those 12 for
// Table 1, the same 12 for the complementary-pair batch (no other
// licensee shares a filed site cell with a pair partner), and the joint
// pair's union. The counts are deterministic; without the screens they
// are 57 and 121, and with the fiber-reach screen alone 12 and 70.
func TestSnapshotLookupBudget(t *testing.T) {
	path := sites.Path{From: sites.CME, To: sites.NY4}
	if n := len(reachingBoth(corpus(t), path)); n != 12 {
		t.Fatalf("%d licensees filed within reach of both CME and NY4, want 12", n)
	}
	for _, c := range []struct {
		url  string
		want int64
	}{
		{"/v1/snapshot?path=CME-NY4&date=2020-04-01", 12},
		{"/v1/apa?path=CME-NY4&date=2020-04-01", 25},
	} {
		s := testServer(t, Config{})
		if rec := get(t, s.Handler(), c.url); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", c.url, rec.Code, rec.Body.String())
		}
		st := s.Stats().Engine
		lookups := st.Hits + st.Misses + st.Coalesced
		t.Logf("%s: %d engine lookups for %d licensees", c.url, lookups, len(corpus(t).Licensees()))
		if lookups != c.want {
			t.Errorf("%s: engine lookups = %d, want %d", c.url, lookups, c.want)
		}
	}
}

// TestOutOfReachAddsNoMemo gates what the memo holds (make bench-gate):
// after one Table 1 read and one /v1/apa read per corridor path and one
// Table 2 read, a corpus with a copy of every licensee's filings moved
// ~750 km out of reach (twice the licensees) leaves the memo with
// exactly as many entries as the corpus alone, and every response is
// byte-identical. Without the screens the copies double the entries.
func TestOutOfReachAddsNoMemo(t *testing.T) {
	far, err := synth.DistantCopies(corpus(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	urls := []string{
		"/v1/snapshot?path=CME-NY4",
		"/v1/snapshot?path=CME-NYSE",
		"/v1/snapshot?path=CME-NASDAQ",
		"/v1/rank",
		"/v1/apa?path=CME-NY4",
		"/v1/apa?path=CME-NYSE",
		"/v1/apa?path=CME-NASDAQ",
	}
	read := func(db *uls.Database) (entries int, bodies []string) {
		s := New(Config{})
		s.SetCorpus(db, "reach gate")
		for _, u := range urls {
			rec := get(t, s.Handler(), u)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d, body %s", u, rec.Code, rec.Body.String())
			}
			bodies = append(bodies, rec.Body.String())
		}
		return s.Stats().Engine.Entries, bodies
	}
	base, want := read(corpus(t))
	scaled, got := read(far)
	t.Logf("memo entries: %d over %d licensees, %d over %d", base, len(corpus(t).Licensees()),
		scaled, len(far.Licensees()))
	if scaled != base {
		t.Errorf("memo entries = %d with the out-of-reach copies, want %d as without them", scaled, base)
	}
	for i := range urls {
		if got[i] != want[i] {
			t.Errorf("%s: the response changed with the out-of-reach copies", urls[i])
		}
	}
}
