package uls

import (
	"math"
	"slices"
	"strconv"

	"hftnetview/internal/geo"
)

// MaxSiteDecimals bounds the precision of a site cell. At 9 decimals a
// valid coordinate's cell (|x| ≤ 180, see SiteCellOf) is below 2^38,
// so it fits an int64 and renders exactly.
const MaxSiteDecimals = 9

// SiteCell is a site cell: a coordinate quantized onto the
// 10^-decimals grid. Network reconstruction (core) merges two filed
// locations into one tower iff their cells are equal, and the
// site-sharing index (SiteSharers) groups licensees by the same cells.
type SiteCell struct{ lat, lon int64 }

// pow10 holds 10^d for d ≤ MaxSiteDecimals.
var pow10 = [MaxSiteDecimals + 1]int64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// SiteCellOf quantizes p onto the grid of the given decimals, which
// must lie in [0, MaxSiteDecimals]. The quantization is
// floor(x·scale + 0.5): round-half-up is translation invariant, so a
// tower on a cell boundary and one just east of it land in the same
// cell in both hemispheres. (math.Round's half-away-from-zero would
// put the boundary point in the western cell for negative longitudes —
// the corridor's — but the eastern cell for positive ones, silently
// splitting co-located towers depending on sign.) An integer cell has
// no -0, so there is no distinct "-0.0000" key either.
func SiteCellOf(p geo.Point, decimals int) SiteCell {
	scale := float64(pow10[decimals])
	return SiteCell{
		lat: int64(math.Floor(p.Lat*scale + 0.5)),
		lon: int64(math.Floor(p.Lon*scale + 0.5)),
	}
}

// AppendKey appends the cell's canonical "lat,lon" key, each coordinate
// with exactly decimals fraction digits: byte for byte what %.*f prints
// for cell/10^decimals, without fmt's float formatting.
func (c SiteCell) AppendKey(b []byte, decimals int) []byte {
	b = appendFixed(b, c.lat, decimals)
	b = append(b, ',')
	return appendFixed(b, c.lon, decimals)
}

// appendFixed appends v/10^decimals in fixed-point notation.
func appendFixed(b []byte, v int64, decimals int) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	p := pow10[decimals]
	b = strconv.AppendInt(b, v/p, 10)
	// p + v%p is a '1' followed by the zero-padded fraction digits; the
	// '1' becomes the decimal point.
	dot := len(b)
	b = strconv.AppendInt(b, p+v%p, 10)
	b[dot] = '.'
	return b
}

// SiteSharers returns the site-sharing index at the given precision
// (decimals in [0, MaxSiteDecimals]): each licensee mapped to the
// sorted names of the other licensees with a filed location in one of
// its site cells (SiteCellOf over every location of every license,
// whatever its dates). A licensee that shares no cell is absent. Every
// tower of a reconstructed network sits at a filed location of one of
// its licensees, so two licensees whose networks share a tower site on
// any date are in each other's lists. The index is built on first use
// per precision and kept until the next mutation, like
// LicenseesWithin; the map and its lists are shared, and callers must
// not modify them.
func (db *Database) SiteSharers(decimals int) map[string][]string {
	db.sharersMu.Lock()
	defer db.sharersMu.Unlock()
	if idx, ok := db.sharers[decimals]; ok {
		return idx
	}
	byCell := make(map[SiteCell][]string)
	for _, l := range db.licenses {
		for _, loc := range l.Locations {
			c := SiteCellOf(loc.Point, decimals)
			byCell[c] = append(byCell[c], l.Licensee)
		}
	}
	idx := make(map[string][]string)
	for _, names := range byCell {
		slices.Sort(names)
		names = slices.Compact(names)
		for _, a := range names {
			for _, b := range names {
				if a != b {
					idx[a] = append(idx[a], b)
				}
			}
		}
	}
	for a, names := range idx {
		slices.Sort(names)
		idx[a] = slices.Clip(slices.Compact(names))
	}
	if db.sharers == nil {
		db.sharers = make(map[int]map[string][]string)
	}
	db.sharers[decimals] = idx
	return idx
}
