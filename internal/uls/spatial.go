package uls

import (
	"math"
	"slices"

	"hftnetview/internal/geo"
)

// Spatial index for the geographic search (§2.1). The portal serves
// radius queries on every page load; a degree-cell grid over license
// locations turns the O(licenses × locations) scan into a handful of
// cell lookups. The index is built lazily on first use and invalidated
// by Add.

// gridCellDeg is the index cell size in degrees (~55 km of latitude) —
// comfortably larger than typical search radii, so most queries touch
// at most four cells.
const gridCellDeg = 0.5

type gridKey struct{ latCell, lonCell int32 }

type spatialIndex struct {
	cells map[gridKey][]*License
}

func cellOf(p geo.Point) gridKey {
	return gridKey{
		latCell: int32(math.Floor(p.Lat / gridCellDeg)),
		lonCell: int32(math.Floor(p.Lon / gridCellDeg)),
	}
}

func buildSpatialIndex(licenses []*License) *spatialIndex {
	idx := &spatialIndex{cells: make(map[gridKey][]*License)}
	for _, l := range licenses {
		seen := make(map[gridKey]bool, len(l.Locations))
		for _, loc := range l.Locations {
			k := cellOf(loc.Point)
			if !seen[k] {
				seen[k] = true
				idx.cells[k] = append(idx.cells[k], l)
			}
		}
	}
	return idx
}

// minDegreeMeters bounds the ground length of a degree under
// geo.Distance from below. A degree of latitude is at least 110,574 m,
// the WGS84 meridian degree at the equator (the haversine fallback's is
// 111,195 m), and a degree of longitude at latitude φ at least
// 111,195·cos φ m. So a geodesic of length r changes latitude by at
// most r/minDegreeMeters degrees and, while it stays within latitude
// ±φ, longitude by at most r/(minDegreeMeters·cos φ) degrees.
const minDegreeMeters = 110_574

// candidates returns the licenses whose locations might lie within
// radius of center: every license in the cells the search window
// overlaps. The window bounds the disc: a point within radius differs
// from the center by at most latSpan degrees of latitude, so the whole
// geodesic to it stays below latitude |center.Lat|+latSpan, where a
// degree of longitude is shortest. ok is false when the window reaches
// a pole or the antimeridian, or holds more cells than the grid does;
// the caller then scans every license instead, which also bounds the
// cost of a radius longer than any distance on Earth.
func (idx *spatialIndex) candidates(center geo.Point, radius float64) (out []*License, ok bool) {
	latSpan := radius / minDegreeMeters
	poleward := math.Abs(center.Lat) + latSpan
	if !(poleward < 90) {
		return nil, false
	}
	lonSpan := latSpan / math.Cos(poleward*math.Pi/180)
	if !(center.Lon-lonSpan > -180 && center.Lon+lonSpan < 180) {
		return nil, false
	}
	minLat := math.Floor((center.Lat - latSpan) / gridCellDeg)
	maxLat := math.Floor((center.Lat + latSpan) / gridCellDeg)
	minLon := math.Floor((center.Lon - lonSpan) / gridCellDeg)
	maxLon := math.Floor((center.Lon + lonSpan) / gridCellDeg)
	if (maxLat-minLat+1)*(maxLon-minLon+1) > float64(len(idx.cells)) {
		return nil, false
	}

	dedup := make(map[*License]bool)
	for la := int32(minLat); la <= int32(maxLat); la++ {
		for lo := int32(minLon); lo <= int32(maxLon); lo++ {
			for _, l := range idx.cells[gridKey{la, lo}] {
				if !dedup[l] {
					dedup[l] = true
					out = append(out, l)
				}
			}
		}
	}
	return out, true
}

// WithinRadiusIndexed is WithinRadius backed by the lazy grid index
// (safe for concurrent callers). Results are identical to WithinRadius.
func (db *Database) WithinRadiusIndexed(center geo.Point, radius float64) []*License {
	db.spatialMu.Lock()
	if db.spatial == nil {
		db.spatial = buildSpatialIndex(db.licenses)
	}
	idx := db.spatial
	db.spatialMu.Unlock()
	cands, ok := idx.candidates(center, radius)
	if !ok {
		return db.WithinRadius(center, radius)
	}
	var out []*License
	for _, l := range cands {
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

// LicenseesWithin returns the distinct names of the licensees with any
// filed location within radius meters of center (the WithinRadius
// test, read off the grid), sorted. Each (center, radius) answer is
// built on first use and kept until the next mutation, like
// Licensees(); the returned slice is shared, and callers must not
// modify it. The snapshot layer screens licensees by fiber reach with
// it (core.Reaches, core.ConnectedNetworksRequests).
func (db *Database) LicenseesWithin(center geo.Point, radius float64) []string {
	k := reachKey{center, radius}
	db.reachMu.Lock()
	defer db.reachMu.Unlock()
	if names, ok := db.reach[k]; ok {
		return names
	}
	var names []string
	for _, l := range db.WithinRadiusIndexed(center, radius) {
		names = append(names, l.Licensee)
	}
	slices.Sort(names)
	names = slices.Clip(slices.Compact(names))
	// A NaN key never equals itself, so caching it would only grow the
	// map.
	if k == k {
		if db.reach == nil {
			db.reach = make(map[reachKey][]string)
		}
		db.reach[k] = names
	}
	return names
}

// reachKey names one cached LicenseesWithin answer.
type reachKey struct {
	center geo.Point
	radius float64
}
