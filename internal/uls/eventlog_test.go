package uls

import (
	"testing"
)

func elTestDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	mk := func(cs, licensee string, grant, expire, cancel string) *License {
		l := &License{
			CallSign:     cs,
			Licensee:     licensee,
			RadioService: "MG",
			Grant:        MustParseDate(grant),
		}
		if expire != "" {
			l.Expiration = MustParseDate(expire)
		}
		if cancel != "" {
			l.Cancellation = MustParseDate(cancel)
		}
		return l
	}
	for _, l := range []*License{
		mk("WAAA100", "Alpha", "01/15/2013", "01/15/2023", ""),
		mk("WAAA101", "Alpha", "06/01/2014", "06/01/2024", "03/10/2017"),
		mk("WBBB200", "Beta", "02/20/2015", "02/20/2016", ""), // expires before cancel
		mk("WBBB201", "Beta", "02/20/2015", "", "07/04/2018"),
		mk("WCCC300", "Gamma", "12/31/2019", "12/31/2029", ""),
		// Never in force: expires before its grant, and cancelled on its
		// grant date. Neither may reach the log or move a count.
		mk("WBBB202", "Beta", "03/01/2016", "03/01/2015", ""),
		mk("WCCC301", "Gamma", "05/05/2018", "", "05/05/2018"),
	} {
		if err := db.Add(l); err != nil {
			t.Fatal(err)
		}
	}
	// A license with no grant date never becomes active either.
	ungranted := &License{CallSign: "WZZZ999", Licensee: "Alpha", RadioService: "MG"}
	db.licenses = append(db.licenses, ungranted)
	db.byCallSign[ungranted.CallSign] = ungranted
	db.invalidate()
	return db
}

func TestEventLogOrderingAndKinds(t *testing.T) {
	db := elTestDB(t)
	log := db.EventLog()

	events := log.Events("")
	// 5 licenses in force, each with exactly one retraction (cancel or
	// expire, whichever comes first).
	if len(events) != 10 {
		t.Fatalf("event count = %d, want 10", len(events))
	}
	prev := events[0]
	for _, ev := range events[1:] {
		if eventLess(ev, prev) {
			t.Fatalf("events out of order: %v %v before %v %v", prev.Date, prev.Kind, ev.Date, ev.Kind)
		}
		prev = ev
	}
	for _, ev := range events {
		switch ev.License.CallSign {
		case "WZZZ999", "WBBB202", "WCCC301":
			t.Fatalf("%s, never in force, appeared in event log", ev.License.CallSign)
		}
	}
	// WAAA101 retracts by cancellation (03/10/2017 < 06/01/2024);
	// WBBB200 retracts by expiration (02/20/2016, no cancellation).
	kinds := map[string]EventKind{}
	for _, ev := range events {
		if !ev.Kind.Activates() {
			kinds[ev.License.CallSign] = ev.Kind
		}
	}
	if kinds["WAAA101"] != EventCancel {
		t.Fatalf("WAAA101 retraction kind = %v, want cancel", kinds["WAAA101"])
	}
	if kinds["WBBB200"] != EventExpire {
		t.Fatalf("WBBB200 retraction kind = %v, want expire", kinds["WBBB200"])
	}
}

// TestEventLogReplayMatchesStab is the core identity: applying events
// with date ≤ d reproduces the brute-force License.ActiveAt set
// exactly, per licensee and for the whole database, around every
// lifecycle date. It is the rule anchor re-keying relies on: the active
// set changes only on event dates.
func TestEventLogReplayMatchesStab(t *testing.T) {
	db := elTestDB(t)
	log := db.EventLog()
	for _, d := range lifecycleProbes(db) {
		for _, licensee := range append([]string{""}, db.Licensees()...) {
			want := bruteActive(db, licensee, d)
			got := map[string]bool{}
			events := log.Events(licensee)
			for _, ev := range events[:cursorAt(events, d)] {
				if ev.Kind.Activates() {
					got[ev.License.CallSign] = true
				} else {
					delete(got, ev.License.CallSign)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%q at %v: replay has %d active, reference has %d", licensee, d, len(got), len(want))
			}
			for _, l := range want {
				if !got[l.CallSign] {
					t.Fatalf("%q at %v: replay missing %s", licensee, d, l.CallSign)
				}
			}
		}
	}
}

func TestEventLogActiveCountMatchesMap(t *testing.T) {
	db := elTestDB(t)
	log := db.EventLog()
	licensees := append(db.Licensees(), "NoSuchEntity")
	for _, d := range lifecycleProbes(db) {
		byName := db.ActiveCountByLicensee(d)
		for _, name := range licensees {
			want := len(bruteActive(db, name, d))
			if got := log.ActiveCount(name, d); got != want {
				t.Fatalf("ActiveCount(%q, %v) = %d, want %d", name, d, got, want)
			}
			if got := byName[name]; got != want {
				t.Fatalf("ActiveCountByLicensee(%v)[%q] = %d, want %d", d, name, got, want)
			}
		}
		if got, want := log.ActiveCount("", d), len(bruteActive(db, "", d)); got != want {
			t.Fatalf("ActiveCount(all, %v) = %d, want %d", d, got, want)
		}
	}
}

func TestEventLogAnchorDate(t *testing.T) {
	db := elTestDB(t)
	log := db.EventLog()

	// Before any event: zero anchor.
	if a := log.AnchorDate("", MustParseDate("01/01/2000")); !a.IsZero() {
		t.Fatalf("anchor before first event = %v, want zero", a)
	}
	// On and after an event date, the anchor is that event's date until
	// the next event.
	first := log.Events("")[0].Date
	if a := log.AnchorDate("", first); a != first {
		t.Fatalf("anchor at first event = %v, want %v", a, first)
	}
	if a := log.AnchorDate("", first.AddDays(1)); a != first {
		// valid only if no event falls on first+1; our fixture's events
		// are years apart.
		t.Fatalf("anchor day after first event = %v, want %v", a, first)
	}
	// Per-licensee streams anchor independently.
	if a := log.AnchorDate("Gamma", MustParseDate("01/01/2018")); !a.IsZero() {
		t.Fatalf("Gamma anchor before its grant = %v, want zero", a)
	}
}

func TestEventLogInvalidatedByMutation(t *testing.T) {
	db := elTestDB(t)
	before := db.EventLog()
	l := &License{
		CallSign:     "WDDD400",
		Licensee:     "Delta",
		RadioService: "MG",
		Grant:        MustParseDate("05/05/2016"),
		Expiration:   MustParseDate("05/05/2026"),
	}
	if err := db.Add(l); err != nil {
		t.Fatal(err)
	}
	after := db.EventLog()
	if before == after {
		t.Fatal("EventLog not invalidated by Add")
	}
	if after.Len() != before.Len()+2 {
		t.Fatalf("after mutation: %d events, want %d", after.Len(), before.Len()+2)
	}
}
