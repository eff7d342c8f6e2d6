package core

import (
	"sort"

	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
	"hftnetview/internal/units"
)

// NetworkSummary is one row of Table 1: a connected network's end-to-end
// latency, APA, and tower count on the given path at the given date.
type NetworkSummary struct {
	Licensee   string
	Latency    units.Latency
	APA        float64 // fraction in [0, 1]
	TowerCount int     // towers on the lowest-latency route
	HopCount   int     // microwave hops on the route
	Route      Route
}

// ConnectedNetworksVia returns the networks with an end-to-end route on
// the path at the given date, ordered by increasing latency — the
// paper's Table 1. It reconstructs only the licensees that filed a
// location within opts.MaxFiberMeters of both ends
// (ConnectedNetworksRequests): every other licensee's network has no
// fiber tail at one end and so no route (see Reaches), and the table
// equals the one built from every licensee in the database. Snapshots
// come from the provider (memoized, with cold rebuilds fanned out
// across a worker pool, when the provider is the snapshot engine), and
// the per-licensee route/APA summaries run in parallel (forEach): warm
// summaries are memoized per network and finish on the caller, cold
// ones use every core. The result is deterministic regardless of
// scheduling.
func ConnectedNetworksVia(p SnapshotProvider, date uls.Date, path sites.Path, opts Options) ([]NetworkSummary, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	reqs := ConnectedNetworksRequests(p.DB(), date, path, opts)
	nets, err := p.Snapshots(reqs)
	if err != nil {
		return nil, err
	}

	summaries := make([]*NetworkSummary, len(nets))
	forEach(len(nets), func(i int) {
		summaries[i] = summarize(reqs[i].Licensees[0], nets[i], path)
	})

	var out []NetworkSummary
	for _, s := range summaries {
		if s != nil {
			out = append(out, *s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Latency != out[j].Latency {
			return out[i].Latency < out[j].Latency
		}
		return out[i].Licensee < out[j].Licensee
	})
	return out, nil
}

// summarize builds one licensee's Table 1 row, or nil when the licensee
// has no end-to-end route.
func summarize(licensee string, n *Network, path sites.Path) *NetworkSummary {
	r, ok := n.BestRoute(path)
	if !ok {
		return nil
	}
	apa, _ := n.APA(path)
	return &NetworkSummary{
		Licensee:   licensee,
		Latency:    r.Latency,
		APA:        apa,
		TowerCount: r.TowerCount,
		HopCount:   r.HopCount(),
		Route:      r,
	}
}

// PathRanking is one row of Table 2: a corridor path with its geodesic
// distance and the fastest networks in rank order.
type PathRanking struct {
	Path           sites.Path
	GeodesicMeters float64
	Ranked         []NetworkSummary
}

// RankNetworksVia produces Table 2: for each corridor path, the networks
// ranked by end-to-end latency (topN > 0 truncates each ranking).
func RankNetworksVia(prov SnapshotProvider, date uls.Date, paths []sites.Path, topN int, opts Options) ([]PathRanking, error) {
	var out []PathRanking
	for _, p := range paths {
		rows, err := ConnectedNetworksVia(prov, date, p, opts)
		if err != nil {
			return nil, err
		}
		if topN > 0 && len(rows) > topN {
			rows = rows[:topN]
		}
		out = append(out, PathRanking{
			Path:           p,
			GeodesicMeters: p.GeodesicMeters(),
			Ranked:         rows,
		})
	}
	return out, nil
}
