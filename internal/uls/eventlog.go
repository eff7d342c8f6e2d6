package uls

import (
	"sort"
)

// Temporal event log (§4). The date-interval index answers "who was
// active on date D" as a stabbing query; the event log is the dual
// view: the corpus as a sorted stream of grant/cancel/expire events.
// Between two consecutive events the active set cannot change, so
// every date in the gap shares one snapshot: the snapshot engine keys
// its memo by a date's anchor (AnchorDate), the streaming replay
// endpoint emits one frame per event date, and per-date license counts
// come from prefix sums. Like the other derived indexes, the log is
// built lazily on first use and invalidated by database mutation.

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

// eventLess orders events by date, then call sign, then kind. Within
// one license and date the grant sorts before the retraction, so a
// zero-length interval (grant == cancellation) replays to "inactive" —
// matching the interval index, which never yields such licenses.
func eventLess(a, b Event) bool {
	ak, bk := dateKey(a.Date), dateKey(b.Date)
	if ak != bk {
		return ak < bk
	}
	if a.License.CallSign != b.License.CallSign {
		return a.License.CallSign < b.License.CallSign
	}
	return a.Kind < b.Kind
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

// buildEventLog derives the log from the licenses, with the same
// activity rule as the date-interval index: a license is active over
// [grant, min(cancellation, expiration)), and licenses with no grant
// date are never active.
func buildEventLog(licenses []*License) *EventLog {
	var all []Event
	per := make(map[string][]Event)
	add := func(ev Event) {
		all = append(all, ev)
		per[ev.License.Licensee] = append(per[ev.License.Licensee], ev)
	}
	for _, l := range licenses {
		if l.Grant.IsZero() {
			continue
		}
		add(Event{Date: l.Grant, Kind: EventGrant, License: l})
		end, kind := Date{}, EventCancel
		if !l.Cancellation.IsZero() {
			end = l.Cancellation
		}
		if !l.Expiration.IsZero() && (end.IsZero() || dateKey(l.Expiration) < dateKey(end)) {
			end, kind = l.Expiration, EventExpire
		}
		if !end.IsZero() {
			add(Event{Date: end, Kind: kind, License: l})
		}
	}
	log := &EventLog{all: newEventSeq(all), byLicensee: make(map[string]eventSeq, len(per))}
	for name, evs := range per {
		log.byLicensee[name] = newEventSeq(evs)
	}
	return log
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

// CursorAt returns the number of events with Date ≤ d in the
// licensee's stream — the replay cursor position for date d, and the
// index of the first event strictly after d.
func (el *EventLog) CursorAt(licensee string, d Date) int {
	return cursorAt(el.seq(licensee).events, d)
}

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
// d, from the prefix counts — O(log events), versus ActiveCountByLicensee's
// full per-licensee map. The two agree on every date.
func (el *EventLog) ActiveCount(licensee string, d Date) int {
	s := el.seq(licensee)
	if len(s.events) == 0 { // unknown licensee, or empty corpus
		return 0
	}
	return int(s.active[cursorAt(s.events, d)])
}

// EventLog returns the lazily built temporal event log (mirrors the
// date-interval index: built on first use, discarded on mutation). The
// returned log is immutable and stays valid for the generation it was
// built against; callers that cache it should re-fetch after
// Generation changes.
func (db *Database) EventLog() *EventLog {
	db.eventMu.Lock()
	defer db.eventMu.Unlock()
	if db.events == nil {
		db.events = buildEventLog(db.licenses)
	}
	return db.events
}
