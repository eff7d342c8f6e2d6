package uls

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"
)

// randomLifecycleDB builds a database of licenses with randomized but
// reproducible lifecycles: mixed licensees, some never-ending, some
// cancelled, some expired, some both — plus two that are never in
// force, one expiring before its grant and one cancelled on its grant
// date.
func randomLifecycleDB(t *testing.T, n int) *Database {
	t.Helper()
	rng := rand.New(rand.NewPCG(42, 7))
	db := NewDatabase()
	licensees := []string{"Alpha", "Beta", "Gamma", "Delta"}
	for i := 0; i < n; i++ {
		grant := NewDate(2010+rng.IntN(10), time.Month(1+rng.IntN(12)), 1+rng.IntN(28))
		l := testLicense(fmt.Sprintf("WQRL%03d", i), licensees[rng.IntN(len(licensees))],
			grant, Date{})
		switch rng.IntN(4) {
		case 0: // cancelled
			l.Cancellation = grant.AddDays(1 + rng.IntN(2000))
		case 1: // expired
			l.Expiration = grant.AddDays(1 + rng.IntN(2000))
		case 2: // both on file; the earlier one ends the license
			l.Cancellation = grant.AddDays(1 + rng.IntN(2000))
			l.Expiration = grant.AddDays(1 + rng.IntN(2000))
		}
		if err := db.Add(l); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	lapsed := testLicense("WQRL900", "Alpha", NewDate(2016, time.June, 1), Date{})
	lapsed.Expiration = NewDate(2015, time.June, 1)
	void := testLicense("WQRL901", "Beta", NewDate(2017, time.March, 1), NewDate(2017, time.March, 1))
	for _, l := range []*License{lapsed, void} {
		if err := db.Add(l); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	return db
}

// bruteActive is the reference every activity query must match: the
// License.ActiveAt predicate over every license, in call-sign order.
func bruteActive(db *Database, licensee string, d Date) []*License {
	var out []*License
	for _, l := range db.All() {
		if licensee != "" && l.Licensee != licensee {
			continue
		}
		if l.ActiveAt(d) {
			out = append(out, l)
		}
	}
	return out
}

// lifecycleProbes returns every grant, cancellation and expiration date
// on file, each with the day before and the day after — the dates where
// an activity query can go wrong — read off the licenses, not the log.
func lifecycleProbes(db *Database) []Date {
	var probes []Date
	for _, l := range db.All() {
		for _, d := range []Date{l.Grant, l.Cancellation, l.Expiration} {
			if !d.IsZero() {
				probes = append(probes, d.AddDays(-1), d, d.AddDays(1))
			}
		}
	}
	return probes
}

// linksOf concatenates the licenses' links, in order.
func linksOf(ls []*License) []Link {
	var out []Link
	for _, l := range ls {
		out = append(out, l.Links()...)
	}
	return out
}

func sameLinks(t *testing.T, what string, got, want []Link) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s = %d links, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].CallSign != want[i].CallSign || got[i].PathNumber != want[i].PathNumber {
			t.Fatalf("%s[%d] = %s/%d, want %s/%d", what, i,
				got[i].CallSign, got[i].PathNumber, want[i].CallSign, want[i].PathNumber)
		}
	}
}

// TestDateIndexMatchesBruteForce: every as-of-date query — ActiveAt,
// ActiveLinks, EventLog.ActiveCount and ActiveCountByLicensee — equals
// the brute-force License.ActiveAt scan, per licensee and for the whole
// database, on random dates and around every lifecycle date.
func TestDateIndexMatchesBruteForce(t *testing.T) {
	db := randomLifecycleDB(t, 200)
	rng := rand.New(rand.NewPCG(3, 9))
	probes := []Date{{}} // zero date: nothing active
	for i := 0; i < 50; i++ {
		probes = append(probes, NewDate(2009+rng.IntN(14),
			time.Month(1+rng.IntN(12)), 1+rng.IntN(28)))
	}
	probes = append(probes, lifecycleProbes(db)...)
	log := db.EventLog()
	for _, d := range probes {
		want := bruteActive(db, "", d)
		got := db.ActiveAt(d)
		if len(got) != len(want) {
			t.Fatalf("ActiveAt(%s) = %d licenses, want %d", d, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("ActiveAt(%s)[%d] = %s, want %s", d, i, got[i].CallSign, want[i].CallSign)
			}
		}
		byName := db.ActiveCountByLicensee(d)
		for _, licensee := range []string{"", "Alpha", "Beta", "NoSuch"} {
			want := bruteActive(db, licensee, d)
			n := len(want)
			sameLinks(t, fmt.Sprintf("ActiveLinks(%q, %s)", licensee, d),
				db.ActiveLinks(licensee, d), linksOf(want))
			if got := log.ActiveCount(licensee, d); got != n {
				t.Fatalf("ActiveCount(%q, %s) = %d, want %d", licensee, d, got, n)
			}
			if licensee != "" && byName[licensee] != n {
				t.Fatalf("ActiveCountByLicensee(%s)[%q] = %d, want %d", d, licensee, byName[licensee], n)
			}
		}
	}
}

func TestDateIndexLifecycleBoundaries(t *testing.T) {
	grant := NewDate(2015, time.June, 1)
	cancel := NewDate(2018, time.March, 15)
	db := NewDatabase()
	if err := db.Add(testLicense("WQBD001", "Boundary", grant, cancel)); err != nil {
		t.Fatal(err)
	}
	exp := testLicense("WQBD002", "Boundary", grant, Date{})
	exp.Expiration = NewDate(2020, time.January, 1)
	if err := db.Add(exp); err != nil {
		t.Fatal(err)
	}
	// Cancelled on its grant date: in force on no date at all.
	if err := db.Add(testLicense("WQBD003", "Boundary", grant, grant)); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		date string
		want int
	}{
		{"05/31/2015", 0}, // day before grant
		{"06/01/2015", 2}, // grant day: active
		{"03/14/2018", 2}, // day before cancellation
		{"03/15/2018", 1}, // cancellation day: first license inactive
		{"12/31/2019", 1}, // day before expiration
		{"01/01/2020", 0}, // expiration day: second license inactive
	}
	for _, c := range cases {
		d := MustParseDate(c.date)
		if got := len(bruteActive(db, "", d)); got != c.want {
			t.Fatalf("reference: %d licenses active on %s, want %d", got, c.date, c.want)
		}
		if got := len(db.ActiveAt(d)); got != c.want {
			t.Errorf("ActiveAt(%s) = %d licenses, want %d", c.date, got, c.want)
		}
		if got := db.EventLog().ActiveCount("Boundary", d); got != c.want {
			t.Errorf("ActiveCount(%s) = %d, want %d", c.date, got, c.want)
		}
		if got := db.ActiveCountByLicensee(d)["Boundary"]; got != c.want {
			t.Errorf("ActiveCountByLicensee(%s) = %d, want %d", c.date, got, c.want)
		}
	}
}

func TestDateIndexInvalidatedByAdd(t *testing.T) {
	db := NewDatabase()
	grant := NewDate(2015, time.June, 1)
	if err := db.Add(testLicense("WQIV001", "Inval", grant, Date{})); err != nil {
		t.Fatal(err)
	}
	d := NewDate(2016, time.January, 1)
	if got := len(db.ActiveAt(d)); got != 1 {
		t.Fatalf("ActiveAt before second Add = %d, want 1", got)
	}
	gen := db.Generation()
	if err := db.Add(testLicense("WQIV002", "Inval", grant, Date{})); err != nil {
		t.Fatal(err)
	}
	if db.Generation() == gen {
		t.Error("Generation did not change on Add")
	}
	want := len(bruteActive(db, "Inval", d))
	if want != 2 {
		t.Fatalf("reference: %d licenses active after Add, want 2", want)
	}
	if got := len(db.ActiveAt(d)); got != want {
		t.Errorf("ActiveAt after second Add = %d, want %d (stale log?)", got, want)
	}
	if got := db.ActiveCountByLicensee(d)["Inval"]; got != want {
		t.Errorf("ActiveCountByLicensee after Add = %d, want %d", got, want)
	}
}

func TestActiveLinksIndexedDeterministic(t *testing.T) {
	db := randomLifecycleDB(t, 50)
	d := NewDate(2018, time.June, 1)
	first := db.ActiveLinks("Alpha", d)
	if len(first) == 0 {
		t.Fatal("expected some active links")
	}
	want := linksOf(bruteActive(db, "Alpha", d))
	sameLinks(t, "first ActiveLinks", first, want)
	sameLinks(t, "second ActiveLinks", db.ActiveLinks("Alpha", d), want)
}
