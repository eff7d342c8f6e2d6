package core

import (
	"slices"

	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
)

// Fiber-reach screen. The paper runs fiber from a data center only to
// towers within 50 km of it (§2.3): reconstruction attaches a tail from
// a data center to a tower only when geo.Distance(dc, tower) ≤
// opts.MaxFiberMeters (reconstructLinks), whatever FiberTailsPerDC is.
// Every tower's point is a filed location of one of the licensees the
// network is built from (the first filing seen at its site), and a
// network's licenses on any date are a subset of everything its
// licensees ever filed. So a licensee set with no filed location within
// MaxFiberMeters of a data center has no tail there on any date: its
// data-center node has no edge, and the network has no route to or
// from it. The screen asks uls.Database.LicenseesWithin — the same
// geo.Distance test over every filed location, cached per corpus
// generation — which licensees can reach each end, and the analyses
// skip the rest without changing any answer.

// Reaches reports whether the filings of licensees (one network or a
// union; a "" name is the whole database, as in SnapshotRequest)
// include a location within opts.MaxFiberMeters of each end of path.
// When it is false, their network has no route on the path at any
// date.
func Reaches(db *uls.Database, licensees []string, path sites.Path, opts Options) bool {
	return reachesDC(db, licensees, path.From, opts) && reachesDC(db, licensees, path.To, opts)
}

// reachesDC reports whether any of licensees filed a location within
// opts.MaxFiberMeters of dc.
func reachesDC(db *uls.Database, licensees []string, dc sites.DataCenter, opts Options) bool {
	within := db.LicenseesWithin(dc.Location, opts.MaxFiberMeters)
	for _, name := range licensees {
		if _, ok := slices.BinarySearch(within, name); ok || (name == "" && len(within) > 0) {
			return true
		}
	}
	return false
}

// ConnectedNetworksRequests returns the snapshot requests
// ConnectedNetworksVia resolves for the path at the date: one per
// licensee with a filed location within opts.MaxFiberMeters of both
// ends, in name order. No other licensee's network can have a route on
// the path (see Reaches). A warm-booted server primes its memo with
// exactly these requests, and the complementary-pair analysis asks for
// them first.
func ConnectedNetworksRequests(db *uls.Database, date uls.Date, path sites.Path, opts Options) []SnapshotRequest {
	from := db.LicenseesWithin(path.From.Location, opts.MaxFiberMeters)
	to := db.LicenseesWithin(path.To.Location, opts.MaxFiberMeters)
	dcs := []sites.DataCenter{path.From, path.To}
	var reqs []SnapshotRequest
	for i, j := 0, 0; i < len(from) && j < len(to); {
		switch {
		case from[i] < to[j]:
			i++
		case from[i] > to[j]:
			j++
		default:
			// A one-name window of the shared sorted list, clipped so
			// no append can write into it. Requests are read-only, so
			// they share it and dcs.
			reqs = append(reqs, SnapshotRequest{
				Licensees: from[i : i+1 : i+1],
				Date:      date,
				DCs:       dcs,
				Opts:      opts,
			})
			i++
			j++
		}
	}
	return reqs
}
