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
	} {
		if err := db.Add(l); err != nil {
			t.Fatal(err)
		}
	}
	// A license with no grant date never becomes active; neither the
	// interval index nor the event log may surface it.
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
	// 5 granted licenses, each with exactly one retraction (cancel or
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
		if ev.License.CallSign == "WZZZ999" {
			t.Fatal("ungranted license appeared in event log")
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
// with date ≤ d reproduces ActiveAt(d) exactly, for every event
// boundary, the day before, and the day after. It is the rule anchor
// re-keying relies on: the active set changes only on event dates.
func TestEventLogReplayMatchesStab(t *testing.T) {
	db := elTestDB(t)
	log := db.EventLog()

	var probes []Date
	for _, ev := range log.Events("") {
		probes = append(probes, ev.Date.AddDays(-1), ev.Date, ev.Date.AddDays(1))
	}
	for _, d := range probes {
		want := map[string]bool{}
		for _, l := range db.ActiveAt(d) {
			want[l.CallSign] = true
		}
		got := map[string]bool{}
		for _, ev := range log.Events("")[:log.CursorAt("", d)] {
			if ev.Kind.Activates() {
				got[ev.License.CallSign] = true
			} else {
				delete(got, ev.License.CallSign)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("at %v: replay has %d active, stab has %d", d, len(got), len(want))
		}
		for cs := range want {
			if !got[cs] {
				t.Fatalf("at %v: replay missing %s", d, cs)
			}
		}
	}
}

func TestEventLogActiveCountMatchesMap(t *testing.T) {
	db := elTestDB(t)
	log := db.EventLog()
	licensees := append(db.Licensees(), "NoSuchEntity")
	var probes []Date
	for _, ev := range log.Events("") {
		probes = append(probes, ev.Date.AddDays(-1), ev.Date, ev.Date.AddDays(1))
	}
	for _, d := range probes {
		byName := db.ActiveCountByLicensee(d)
		total := 0
		for _, name := range licensees {
			if got, want := log.ActiveCount(name, d), byName[name]; got != want {
				t.Fatalf("ActiveCount(%q, %v) = %d, want %d", name, d, got, want)
			}
			total += byName[name]
		}
		if got := log.ActiveCount("", d); got != total {
			t.Fatalf("ActiveCount(all, %v) = %d, want %d", d, got, total)
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
