package uls

import (
	"fmt"
	"sort"
	"sync"

	"hftnetview/internal/geo"
)

// Database is an in-memory license store with the query surface the
// paper's methodology needs: lookup by call sign, grouping by licensee,
// geographic search around a point, and date-scoped activity queries.
// It is the backing store for both the simulated FCC portal and the
// offline analyses.
//
// A Database is safe for concurrent readers after loading; mutation
// (Add) is not synchronized.
type Database struct {
	licenses   []*License
	byCallSign map[string]*License
	gen        int64 // bumped by Add; lets caches detect staleness

	spatialMu sync.Mutex
	spatial   *spatialIndex // lazy; guarded by spatialMu; invalidated by Add

	eventMu sync.Mutex
	events  *EventLog // lazy; guarded by eventMu; invalidated by Add

	namesMu sync.Mutex
	names   []string // lazy Licensees(); guarded by namesMu; invalidated by Add

	reachMu sync.Mutex
	reach   map[reachKey][]string // lazy LicenseesWithin; guarded by reachMu; invalidated by Add

	sharersMu sync.Mutex
	sharers   map[int]map[string][]string // lazy SiteSharers by precision; guarded by sharersMu; invalidated by Add
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{byCallSign: make(map[string]*License)}
}

// Add inserts a license. It rejects duplicate call signs and licenses
// that fail Validate.
func (db *Database) Add(l *License) error {
	if err := l.Validate(); err != nil {
		return err
	}
	if _, dup := db.byCallSign[l.CallSign]; dup {
		return fmt.Errorf("uls: duplicate call sign %s", l.CallSign)
	}
	db.licenses = append(db.licenses, l)
	db.byCallSign[l.CallSign] = l
	db.invalidate()
	return nil
}

// BulkAddOptions controls AddBulk.
type BulkAddOptions struct {
	// TrustValidated skips per-license semantic validation. Reserve it
	// for loaders whose input provably round-trips an already-validated
	// database — the persistence store's warm boot, where segment
	// checksums guarantee the bytes are exactly what a validated
	// Database encoded. Call signs must still be present and duplicates
	// are still rejected.
	TrustValidated bool
}

// AddBulk inserts a batch of licenses in one step: the call-sign index
// is grown once, the derived indexes are invalidated once instead of
// per insert, and validation may be skipped for checksummed sources.
// On error the database is unchanged — a bulk insert lands whole or
// not at all.
func (db *Database) AddBulk(ls []*License, o BulkAddOptions) error {
	m := make(map[string]*License, len(db.byCallSign)+len(ls))
	for k, v := range db.byCallSign {
		m[k] = v
	}
	licenses := make([]*License, len(db.licenses), len(db.licenses)+len(ls))
	copy(licenses, db.licenses)
	for _, l := range ls {
		if !o.TrustValidated {
			if err := l.Validate(); err != nil {
				return err
			}
		} else if l.CallSign == "" {
			return fmt.Errorf("uls: license missing call sign")
		}
		if _, dup := m[l.CallSign]; dup {
			return fmt.Errorf("uls: duplicate call sign %s", l.CallSign)
		}
		m[l.CallSign] = l
		licenses = append(licenses, l)
	}
	db.licenses, db.byCallSign = licenses, m
	db.invalidate()
	return nil
}

// invalidate bumps the generation and discards the derived indexes.
// Every mutation — Add, or Validate repairing licenses in place — must
// call it so caches keyed on Generation and the lazy indexes rebuild.
func (db *Database) invalidate() {
	db.gen++
	db.spatialMu.Lock()
	db.spatial = nil // geographic index is stale now
	db.spatialMu.Unlock()
	db.eventMu.Lock()
	db.events = nil // temporal event log is stale now
	db.eventMu.Unlock()
	db.namesMu.Lock()
	db.names = nil // licensee list is stale now
	db.namesMu.Unlock()
	db.reachMu.Lock()
	db.reach = nil // fiber-reach lists are stale now
	db.reachMu.Unlock()
	db.sharersMu.Lock()
	db.sharers = nil // site-sharing index is stale now
	db.sharersMu.Unlock()
}

// Generation returns a counter that changes whenever the database is
// mutated. External caches keyed on database contents (the snapshot
// engine's memo store) compare generations to detect staleness.
func (db *Database) Generation() int64 { return db.gen }

// Len returns the number of licenses in the database.
func (db *Database) Len() int { return len(db.licenses) }

// ByCallSign returns the license with the given call sign, if any.
func (db *Database) ByCallSign(cs string) (*License, bool) {
	l, ok := db.byCallSign[cs]
	return l, ok
}

// All returns the licenses sorted by call sign. The returned slice is
// fresh; the licenses it points to are shared.
func (db *Database) All() []*License {
	out := append([]*License(nil), db.licenses...)
	SortLicenses(out)
	return out
}

// Licensees returns the distinct licensee names, sorted. The list is
// built on first use and kept until the next mutation (like the event
// log); the returned slice is shared, and callers must not modify it.
func (db *Database) Licensees() []string {
	db.namesMu.Lock()
	defer db.namesMu.Unlock()
	if db.names == nil {
		set := make(map[string]bool)
		for _, l := range db.licenses {
			set[l.Licensee] = true
		}
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		db.names = names
	}
	return db.names
}

// ChangedLicensees returns the licensees whose filings differ between
// two databases: one of their licenses was added, removed, or differs
// in a field (License.Equal; a license refiled under another licensee
// changes both). Every other licensee holds the same licenses in both,
// field for field, so its event stream (EventLog.Events) and its active
// set on every date are the same too — what lets the snapshot engine
// carry that licensee's networks from one corpus generation to the
// next. The map is empty iff both databases hold the same licenses.
// Neither database's indexes are built.
func ChangedLicensees(a, b *Database) map[string]bool {
	changed := make(map[string]bool)
	for _, l := range b.licenses {
		o, ok := a.byCallSign[l.CallSign]
		if ok && o.Equal(l) {
			continue
		}
		changed[l.Licensee] = true
		if ok {
			changed[o.Licensee] = true
		}
	}
	for _, l := range a.licenses {
		if _, ok := b.byCallSign[l.CallSign]; !ok {
			changed[l.Licensee] = true
		}
	}
	return changed
}

// ByLicensee returns the licenses filed under the given entity name,
// sorted by call sign.
func (db *Database) ByLicensee(name string) []*License {
	var out []*License
	for _, l := range db.licenses {
		if l.Licensee == name {
			out = append(out, l)
		}
	}
	SortLicenses(out)
	return out
}

// WithinRadius returns licenses that have any location within radius
// meters of center — the portal's geographic search (§2.1). Results are
// sorted by call sign.
func (db *Database) WithinRadius(center geo.Point, radius float64) []*License {
	var out []*License
	for _, l := range db.licenses {
		for _, loc := range l.Locations {
			if geo.Distance(center, loc.Point) <= radius {
				out = append(out, l)
				break
			}
		}
	}
	SortLicenses(out)
	return out
}

// FilterService keeps licenses matching the radio service code and, when
// stationClass is non-empty, having at least one path with that station
// class — the portal's site-based search (§2.1).
func FilterService(ls []*License, service, stationClass string) []*License {
	var out []*License
	for _, l := range ls {
		if service != "" && l.RadioService != service {
			continue
		}
		if stationClass != "" {
			found := false
			for _, p := range l.Paths {
				if p.StationClass == stationClass {
					found = true
					break
				}
			}
			if !found {
				continue
			}
		}
		out = append(out, l)
	}
	return out
}

// ActiveAt returns the licenses in force on the given date, sorted by
// call sign. The active set is read off the event log.
func (db *Database) ActiveAt(d Date) []*License {
	out := db.EventLog().all.activeAt(d)
	SortLicenses(out)
	return out
}

// ActiveCountByLicensee returns, per licensee, the number of licenses in
// force on the given date — the quantity plotted in Fig 2. Licensees
// with no active licenses are absent from the map.
func (db *Database) ActiveCountByLicensee(d Date) map[string]int {
	log := db.EventLog()
	out := make(map[string]int, len(log.byLicensee))
	for name, s := range log.byLicensee {
		if n := s.count(d); n > 0 {
			out[name] = n
		}
	}
	return out
}

// ActiveLinks returns every materialized link of every license in force
// on the given date for the named licensee ("" = all licensees), in
// call-sign order. The active set comes from the licensee's event
// stream.
func (db *Database) ActiveLinks(licensee string, d Date) []Link {
	active := db.EventLog().seq(licensee).activeAt(d)
	SortLicenses(active)
	var out []Link
	for _, l := range active {
		out = append(out, l.Links()...)
	}
	return out
}

// GrantsCancellationsInYear counts, for a licensee, how many licenses
// were granted and how many cancelled during the given calendar year —
// used for the §4 narrative (e.g. NLN's 55 grants in 2015, NTC's 71
// cancellations in 2017–18).
func (db *Database) GrantsCancellationsInYear(licensee string, year int) (grants, cancels int) {
	for _, l := range db.licenses {
		if l.Licensee != licensee {
			continue
		}
		if l.Grant.Year == year {
			grants++
		}
		if !l.Cancellation.IsZero() && l.Cancellation.Year == year {
			cancels++
		}
	}
	return grants, cancels
}

// Merge adds every license in other, failing on the first error.
func (db *Database) Merge(other *Database) error {
	for _, l := range other.licenses {
		if err := db.Add(l); err != nil {
			return err
		}
	}
	return nil
}
