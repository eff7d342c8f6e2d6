package uls

import (
	"sort"
)

// Temporal event log (§4): the corpus as a sorted stream of
// grant/cancel/expire events, and the one index behind every
// as-of-date query. Between two consecutive events the active set
// cannot change, so every date in the gap shares one snapshot: the
// snapshot engine keys its memo by a date's anchor (AnchorDate), the
// streaming replay endpoint emits one frame per event date, per-date
// license counts come from prefix sums, and the active set on a date
// is the grant events up to it whose license has not retired by it
// (Database.ActiveAt, ActiveLinks). Like the other derived views, the
// log is built lazily on first use and invalidated by database
// mutation.

// EventKind classifies one lifecycle transition.
type EventKind uint8

const (
	// EventGrant activates a license (its grant date arrived).
	EventGrant EventKind = iota
	// EventCancel deactivates a license on its cancellation date.
	EventCancel
	// EventExpire deactivates a license on its expiration date.
	EventExpire
)

// String renders the kind for wire formats and logs.
func (k EventKind) String() string {
	switch k {
	case EventGrant:
		return "grant"
	case EventCancel:
		return "cancel"
	default:
		return "expire"
	}
}

// Activates reports whether the event adds its license to the active
// set (as opposed to retracting it).
func (k EventKind) Activates() bool { return k == EventGrant }

// Event is one lifecycle transition: from Date (inclusive) onward the
// license is active (EventGrant) or no longer active (EventCancel /
// EventExpire). Applying, in order, every event with Date ≤ d to an
// empty set yields exactly the ActiveAt(d) set — the identity anchor
// re-keying relies on: no set changes between two event dates.
type Event struct {
	Date    Date
	Kind    EventKind
	License *License
}

// eventSeq is one sorted event stream plus the prefix active counts:
// active[i] is the number of active licenses after applying the first
// i events.
type eventSeq struct {
	events []Event
	active []int32
}

// EventLog is the corpus as sorted lifecycle events, whole-database
// and per licensee. It is immutable once built; a Database hands out
// one log per generation.
type EventLog struct {
	all        eventSeq
	byLicensee map[string]eventSeq
}

// dateKey encodes a Date for integer comparison; the encoding is
// monotone in calendar order. The zero Date encodes to 0.
func dateKey(d Date) int32 {
	return int32(d.Year)*10000 + int32(d.Month)*100 + int32(d.Day)
}

// eventLess orders events by date, then call sign. The order is total:
// call signs are unique, and a license's grant falls strictly before
// its retirement, so no two events share a date and a call sign.
func eventLess(a, b Event) bool {
	ak, bk := dateKey(a.Date), dateKey(b.Date)
	if ak != bk {
		return ak < bk
	}
	return a.License.CallSign < b.License.CallSign
}

func newEventSeq(events []Event) eventSeq {
	sort.Slice(events, func(i, j int) bool { return eventLess(events[i], events[j]) })
	active := make([]int32, len(events)+1)
	for i, ev := range events {
		if ev.Kind.Activates() {
			active[i+1] = active[i] + 1
		} else {
			active[i+1] = active[i] - 1
		}
	}
	return eventSeq{events: events, active: active}
}

// retirement states the activity rule of §2.3 once for the event log
// and its scans: a license is in force over [Grant, retire), where
// retire is the earlier of its cancellation and expiration dates
// (cancellation on a tie) and the zero Date means it never retires;
// kind is the event that retires it. inForce is false for a license
// that is never in force — no grant date, or a retirement on or before
// its grant — which License.ActiveAt accepts on no date.
func (l *License) retirement() (retire Date, kind EventKind, inForce bool) {
	retire, kind = l.Cancellation, EventCancel
	if !l.Expiration.IsZero() && (retire.IsZero() || dateKey(l.Expiration) < dateKey(retire)) {
		retire, kind = l.Expiration, EventExpire
	}
	inForce = !l.Grant.IsZero() && (retire.IsZero() || dateKey(l.Grant) < dateKey(retire))
	return retire, kind, inForce
}

// buildEventLog derives the log from the licenses: a grant event and,
// unless the license never retires, one retirement event per license
// in force on some date. A license that is never in force emits no
// events, so no prefix count goes negative.
func buildEventLog(licenses []*License) *EventLog {
	var all []Event
	per := make(map[string][]Event)
	add := func(ev Event) {
		all = append(all, ev)
		per[ev.License.Licensee] = append(per[ev.License.Licensee], ev)
	}
	for _, l := range licenses {
		retire, kind, inForce := l.retirement()
		if !inForce {
			continue
		}
		add(Event{Date: l.Grant, Kind: EventGrant, License: l})
		if !retire.IsZero() {
			add(Event{Date: retire, Kind: kind, License: l})
		}
	}
	log := &EventLog{all: newEventSeq(all), byLicensee: make(map[string]eventSeq, len(per))}
	for name, evs := range per {
		log.byLicensee[name] = newEventSeq(evs)
	}
	return log
}

// count returns the number of licenses in force on d, from the prefix
// counts.
func (s eventSeq) count(d Date) int {
	i := cursorAt(s.events, d)
	if i == 0 { // also an unknown licensee's empty stream
		return 0
	}
	return int(s.active[i])
}

// activeAt returns the licenses in force on d, in event order: the
// grant events up to d's cursor whose license has not retired by d.
func (s eventSeq) activeAt(d Date) []*License {
	i := cursorAt(s.events, d)
	if i == 0 || s.active[i] == 0 {
		return nil
	}
	out := make([]*License, 0, s.active[i])
	key := dateKey(d)
	for _, ev := range s.events[:i] {
		if !ev.Kind.Activates() {
			continue
		}
		if retire, _, _ := ev.License.retirement(); retire.IsZero() || dateKey(retire) > key {
			out = append(out, ev.License)
		}
	}
	return out
}

// seq returns the stream for one licensee ("" = whole database).
func (el *EventLog) seq(licensee string) eventSeq {
	if licensee == "" {
		return el.all
	}
	return el.byLicensee[licensee]
}

// Events returns the sorted event stream for the licensee ("" = the
// whole database). The returned slice is shared; callers must not
// mutate it.
func (el *EventLog) Events(licensee string) []Event {
	return el.seq(licensee).events
}

// Len returns the total number of events in the log.
func (el *EventLog) Len() int { return len(el.all.events) }

// cursorAt returns the number of events with Date ≤ d — the replay
// cursor position for date d, and the index of the first event
// strictly after d.
func cursorAt(events []Event, d Date) int {
	key := dateKey(d)
	return sort.Search(len(events), func(i int) bool {
		return dateKey(events[i].Date) > key
	})
}

// AnchorDate returns the date of the last event at or before d in the
// licensee's stream — the earliest date whose snapshot is identical to
// d's. The zero Date means no event has happened yet (empty network).
func (el *EventLog) AnchorDate(licensee string, d Date) Date {
	events := el.seq(licensee).events
	i := cursorAt(events, d)
	if i == 0 {
		return Date{}
	}
	return events[i-1].Date
}

// ActiveCount returns the number of the licensee's licenses in force on
// d, from the prefix counts in O(log events).
func (el *EventLog) ActiveCount(licensee string, d Date) int {
	return el.seq(licensee).count(d)
}

// EventLog returns the lazily built temporal event log: built on first
// use, discarded on mutation. The returned log is immutable and stays
// valid for the generation it was built against; callers that cache it
// should re-fetch after Generation changes.
func (db *Database) EventLog() *EventLog {
	db.eventMu.Lock()
	defer db.eventMu.Unlock()
	if db.events == nil {
		db.events = buildEventLog(db.licenses)
	}
	return db.events
}
