// Package uls models FCC Universal Licensing System (ULS) microwave
// licenses — the public data source the paper reconstructs HFT networks
// from (§2.1) — together with a license database and the pipe-delimited
// bulk interchange format.
//
// A license couples one licensee to a transmitting site and one or more
// receiving sites, with per-path operating frequencies, under a radio
// service code (HFT networks use 'MG', Microwave Industrial/Business
// Pool) and a station class ('FXO', Operational Fixed). Grant,
// expiration, and cancellation dates let the database answer "which links
// existed on date D", the primitive behind the paper's longitudinal
// analysis (§4).
package uls

import (
	"fmt"
	"math"
	"sort"

	"hftnetview/internal/geo"
)

// Radio service codes and station classes relevant to the study (§2.2).
const (
	// ServiceMG is the Microwave Industrial/Business Pool radio service
	// code under which corridor HFT links are licensed.
	ServiceMG = "MG"
	// ClassFXO is the Operational Fixed station class.
	ClassFXO = "FXO"
)

// Status is the lifecycle state recorded on a license.
type Status string

// License lifecycle states as carried in ULS records.
const (
	StatusActive     Status = "A"
	StatusCancelled  Status = "C"
	StatusExpired    Status = "E"
	StatusTerminated Status = "T"
)

// Location is a numbered site on a license: a tower (or data-center roof)
// with coordinates, ground elevation and structure height.
type Location struct {
	// Number is the 1-based location index within the license.
	Number int
	// Point is the site coordinate.
	Point geo.Point
	// GroundElevation is the site elevation above mean sea level, meters.
	GroundElevation float64
	// SupportHeight is the antenna support structure height above
	// ground, meters.
	SupportHeight float64
}

// Path is a numbered transmitter→receiver hop within a license, with its
// assigned operating frequencies.
type Path struct {
	// Number is the 1-based path index within the license.
	Number int
	// TXLocation and RXLocation are Location.Number references.
	TXLocation int
	RXLocation int
	// StationClass is the assigned station class (ClassFXO for links in
	// this study).
	StationClass string
	// FrequenciesMHz lists the assigned center frequencies in MHz.
	FrequenciesMHz []float64
	// TXAzimuthDeg and RXAzimuthDeg are the antenna pointing azimuths
	// (degrees true) at each end of the hop; point-to-point dishes face
	// each other, so the RX azimuth is the back bearing of the TX one.
	TXAzimuthDeg, RXAzimuthDeg float64
	// AntennaGainDBi is the dish gain filed for the path.
	AntennaGainDBi float64
}

// License is one ULS license filing.
type License struct {
	// CallSign is the FCC call sign (e.g. "WQYM237") and the primary key.
	CallSign string
	// LicenseID is the numeric ULS record id.
	LicenseID int
	// Licensee is the entity name as filed, which — as the paper notes —
	// is often a shell name rather than the operating network's name.
	Licensee string
	// FRN is the FCC Registration Number of the licensee.
	FRN string
	// ContactEmail is the filing contact address — often the clearest
	// public hint that two filing entities share an operator (§6).
	ContactEmail string
	// RadioService is the radio service code (ServiceMG here).
	RadioService string
	// Status is the current lifecycle state.
	Status Status
	// Grant, Expiration and Cancellation are the lifecycle dates; zero
	// means not on file.
	Grant        Date
	Expiration   Date
	Cancellation Date
	// Locations are the numbered sites, and Paths the hops among them.
	Locations []Location
	Paths     []Path
}

// LocationByNumber returns the numbered location and whether it exists.
func (l *License) LocationByNumber(n int) (Location, bool) {
	for _, loc := range l.Locations {
		if loc.Number == n {
			return loc, true
		}
	}
	return Location{}, false
}

// ActiveAt reports whether the license was in force on date d: granted on
// or before d and neither cancelled nor expired on or before d. This is
// the activity rule of §2.3 ("granted but not terminated/cancelled").
func (l *License) ActiveAt(d Date) bool {
	if l.Grant.IsZero() || d.Before(l.Grant) {
		return false
	}
	if !l.Cancellation.IsZero() && !d.Before(l.Cancellation) {
		return false
	}
	if !l.Expiration.IsZero() && !d.Before(l.Expiration) {
		return false
	}
	return true
}

// Validate checks internal consistency: key fields present, locations
// valid and uniquely numbered, paths referencing existing locations with
// at least one frequency.
func (l *License) Validate() error {
	if l.CallSign == "" {
		return fmt.Errorf("uls: license missing call sign")
	}
	if l.Licensee == "" {
		return fmt.Errorf("uls: %s: missing licensee", l.CallSign)
	}
	if l.Grant.IsZero() {
		return fmt.Errorf("uls: %s: missing grant date", l.CallSign)
	}
	if !l.Cancellation.IsZero() && l.Cancellation.Before(l.Grant) {
		return fmt.Errorf("uls: %s: cancellation %s precedes grant %s",
			l.CallSign, l.Cancellation, l.Grant)
	}
	// Duplicate and reference checks run allocation-free over the
	// typical handful of sub-records; a map is built only for licenses
	// with unusually many locations (Validate sits on the hot boot path,
	// and two map allocations per license dominated its cost).
	const linearScanMax = 32
	var locSeen map[int]bool
	if len(l.Locations) > linearScanMax {
		locSeen = make(map[int]bool, len(l.Locations))
	}
	hasLoc := func(num int) bool {
		if locSeen != nil {
			return locSeen[num]
		}
		for i := range l.Locations {
			if l.Locations[i].Number == num {
				return true
			}
		}
		return false
	}
	for i := range l.Locations {
		loc := &l.Locations[i]
		if loc.Number <= 0 {
			return fmt.Errorf("uls: %s: non-positive location number %d", l.CallSign, loc.Number)
		}
		dup := false
		if locSeen != nil {
			dup = locSeen[loc.Number]
			locSeen[loc.Number] = true
		} else {
			for j := 0; j < i; j++ {
				if l.Locations[j].Number == loc.Number {
					dup = true
					break
				}
			}
		}
		if dup {
			return fmt.Errorf("uls: %s: duplicate location number %d", l.CallSign, loc.Number)
		}
		if !loc.Point.Valid() {
			return fmt.Errorf("uls: %s: location %d has invalid coordinates %v",
				l.CallSign, loc.Number, loc.Point)
		}
	}
	var pathSeen map[int]bool
	if len(l.Paths) > linearScanMax {
		pathSeen = make(map[int]bool, len(l.Paths))
	}
	for i := range l.Paths {
		p := &l.Paths[i]
		if p.Number <= 0 {
			return fmt.Errorf("uls: %s: non-positive path number %d", l.CallSign, p.Number)
		}
		dup := false
		if pathSeen != nil {
			dup = pathSeen[p.Number]
			pathSeen[p.Number] = true
		} else {
			for j := 0; j < i; j++ {
				if l.Paths[j].Number == p.Number {
					dup = true
					break
				}
			}
		}
		if dup {
			return fmt.Errorf("uls: %s: duplicate path number %d", l.CallSign, p.Number)
		}
		if !hasLoc(p.TXLocation) {
			return fmt.Errorf("uls: %s: path %d references missing TX location %d",
				l.CallSign, p.Number, p.TXLocation)
		}
		if !hasLoc(p.RXLocation) {
			return fmt.Errorf("uls: %s: path %d references missing RX location %d",
				l.CallSign, p.Number, p.RXLocation)
		}
		if p.TXLocation == p.RXLocation {
			return fmt.Errorf("uls: %s: path %d is a self loop at location %d",
				l.CallSign, p.Number, p.TXLocation)
		}
		if len(p.FrequenciesMHz) == 0 {
			return fmt.Errorf("uls: %s: path %d has no frequencies", l.CallSign, p.Number)
		}
		for _, f := range p.FrequenciesMHz {
			if f <= 0 {
				return fmt.Errorf("uls: %s: path %d has non-positive frequency %v",
					l.CallSign, p.Number, f)
			}
		}
		if p.TXAzimuthDeg < 0 || p.TXAzimuthDeg >= 360 ||
			p.RXAzimuthDeg < 0 || p.RXAzimuthDeg >= 360 {
			return fmt.Errorf("uls: %s: path %d azimuth out of [0,360)", l.CallSign, p.Number)
		}
		if p.AntennaGainDBi < 0 {
			return fmt.Errorf("uls: %s: path %d negative antenna gain", l.CallSign, p.Number)
		}
	}
	return nil
}

// Links materializes the license's paths as geographic hops, resolving
// the location references. Paths referencing missing locations are
// skipped (Validate catches them for strict callers).
func (l *License) Links() []Link {
	links := make([]Link, 0, len(l.Paths))
	for _, p := range l.Paths {
		tx, okT := l.LocationByNumber(p.TXLocation)
		rx, okR := l.LocationByNumber(p.RXLocation)
		if !okT || !okR {
			continue
		}
		links = append(links, Link{
			CallSign:       l.CallSign,
			Licensee:       l.Licensee,
			PathNumber:     p.Number,
			TX:             tx,
			RX:             rx,
			FrequenciesMHz: append([]float64(nil), p.FrequenciesMHz...),
		})
	}
	return links
}

// Link is a materialized microwave hop: the unit the reconstruction
// stitches into a network graph.
type Link struct {
	CallSign       string
	Licensee       string
	PathNumber     int
	TX, RX         Location
	FrequenciesMHz []float64
}

// LengthMeters returns the geodesic hop length.
func (lk Link) LengthMeters() float64 { return geo.Distance(lk.TX.Point, lk.RX.Point) }

// SortLicenses orders licenses by call sign for deterministic output.
func SortLicenses(ls []*License) {
	sort.Slice(ls, func(i, j int) bool { return ls[i].CallSign < ls[j].CallSign })
}

// Equal reports whether l and o are the same filing in every field:
// identity and contact strings, status, the three lifecycle dates, and
// every Location and Path field, in order. Floats compare by their
// bits, so the predicate means "identical content" rather than
// numerically close: a coordinate one ULP away is a different filing.
// The snapshot engine relies on it to decide that a licensee's
// networks survive a corpus change (see ChangedLicensees).
func (l *License) Equal(o *License) bool {
	if l == o {
		return true
	}
	if l.CallSign != o.CallSign || l.LicenseID != o.LicenseID ||
		l.Licensee != o.Licensee || l.FRN != o.FRN ||
		l.ContactEmail != o.ContactEmail || l.RadioService != o.RadioService ||
		l.Status != o.Status || l.Grant != o.Grant ||
		l.Expiration != o.Expiration || l.Cancellation != o.Cancellation ||
		len(l.Locations) != len(o.Locations) || len(l.Paths) != len(o.Paths) {
		return false
	}
	for i := range l.Locations {
		a, b := &l.Locations[i], &o.Locations[i]
		if a.Number != b.Number || !sameFloat(a.Point.Lat, b.Point.Lat) ||
			!sameFloat(a.Point.Lon, b.Point.Lon) ||
			!sameFloat(a.GroundElevation, b.GroundElevation) ||
			!sameFloat(a.SupportHeight, b.SupportHeight) {
			return false
		}
	}
	for i := range l.Paths {
		a, b := &l.Paths[i], &o.Paths[i]
		if a.Number != b.Number || a.TXLocation != b.TXLocation ||
			a.RXLocation != b.RXLocation || a.StationClass != b.StationClass ||
			len(a.FrequenciesMHz) != len(b.FrequenciesMHz) ||
			!sameFloat(a.TXAzimuthDeg, b.TXAzimuthDeg) ||
			!sameFloat(a.RXAzimuthDeg, b.RXAzimuthDeg) ||
			!sameFloat(a.AntennaGainDBi, b.AntennaGainDBi) {
			return false
		}
		for j, f := range a.FrequenciesMHz {
			if !sameFloat(f, b.FrequenciesMHz[j]) {
				return false
			}
		}
	}
	return true
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
