// Package entity implements the paper's proposed future work (§2.4, §6):
// identifying which filing entities jointly operate one physical
// network. It offers two complementary signals:
//
//   - registration clustering: entities sharing an FCC Registration
//     Number filed by the same registrant;
//   - complementary-link analysis: pairs of licensees, neither of which
//     has an end-to-end path alone, whose combined filings do — §2.4's
//     "evaluating which networks have complementary links that together
//     form end-end paths".
package entity

import (
	"slices"
	"sort"

	"hftnetview/internal/core"
	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
	"hftnetview/internal/units"
)

// ClustersByFRN groups licensee names that share an FCC Registration
// Number. Only groups with at least two names are returned, sorted
// internally and by first member.
func ClustersByFRN(db *uls.Database) [][]string {
	byFRN := make(map[string]map[string]bool)
	for _, l := range db.All() {
		if l.FRN == "" {
			continue
		}
		set := byFRN[l.FRN]
		if set == nil {
			set = make(map[string]bool)
			byFRN[l.FRN] = set
		}
		set[l.Licensee] = true
	}
	var out [][]string
	for _, set := range byFRN {
		if len(set) < 2 {
			continue
		}
		group := make([]string, 0, len(set))
		for name := range set {
			group = append(group, name)
		}
		sort.Strings(group)
		out = append(out, group)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// ClustersByContact groups licensee names that file under the same
// contact email address — the §6 signal ("analyzing items like the
// licensee email addresses"). Only groups with at least two names are
// returned.
func ClustersByContact(db *uls.Database) [][]string {
	byEmail := make(map[string]map[string]bool)
	for _, l := range db.All() {
		if l.ContactEmail == "" {
			continue
		}
		set := byEmail[l.ContactEmail]
		if set == nil {
			set = make(map[string]bool)
			byEmail[l.ContactEmail] = set
		}
		set[l.Licensee] = true
	}
	var out [][]string
	for _, set := range byEmail {
		if len(set) < 2 {
			continue
		}
		group := make([]string, 0, len(set))
		for name := range set {
			group = append(group, name)
		}
		sort.Strings(group)
		out = append(out, group)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// Pair is a complementary licensee pair: neither connected alone, the
// union connected.
type Pair struct {
	A, B string
	// Latency is the union network's end-to-end latency on the path.
	Latency units.Latency
	// TowerCount is the union route's tower count.
	TowerCount int
}

// ComplementaryPairsVia tests every pair among candidates (nil = every
// licensee in the database; repeated names count once): pairs where
// neither member has an end-to-end route on the path at the date, but
// their union does. Pairs are returned sorted by (A, B); within a pair
// A < B. The per-licensee screen and the union reconstructions are both
// resolved as provider batches, so the snapshot engine fans them out and
// reuses any snapshots other analyses already built. candidates is
// never modified.
//
// A loner is a candidate with links but no end-to-end route alone. Only
// loner pairs that share a tower site (an equal Tower.Key) and whose
// filings together reach both ends of the path (core.Reaches) are
// reconstructed as unions; the others provably cannot connect, so the
// result is exactly that of testing every pair. A union's towers are
// its two members' filed locations, so if neither member filed within
// opts.MaxFiberMeters of a data center the union has no fiber tail
// there and no route. A site-disjoint pair cannot connect either:
//
//   - Stitching merges towers only by site cell. The union of two
//     site-disjoint loners A and B is therefore two parts, A's towers
//     and links and B's, that touch only at the data-center nodes, and
//     a route from one data center to the other (a simple path) stays
//     inside one part, say A's.
//   - The route's links are A's own links. Its fiber tails are tails of
//     A alone too: tails go to the nearest towers first, ties to the
//     lower tower index, and A's towers keep their relative order in
//     the union because links are stitched in call-sign order — so a
//     tower among a data center's k nearest in the union is among its
//     k nearest in A alone, at the same distance.
//   - So the route already exists in A's own network, which contradicts
//     A being a loner.
func ComplementaryPairsVia(p core.SnapshotProvider, date uls.Date, path sites.Path,
	candidates []string, opts core.Options) ([]Pair, error) {
	if candidates == nil {
		candidates = p.DB().Licensees()
	}
	// A sorted, duplicate-free copy: the nil default is the database's
	// shared name list, which must not be sorted in place either.
	names := slices.Compact(slices.Sorted(slices.Values(candidates)))
	dcs := []sites.DataCenter{path.From, path.To}

	// Screen per-licensee connectivity; connected licensees cannot be
	// part of a complementary pair (they are networks already).
	reqs := make([]core.SnapshotRequest, len(names))
	for i, name := range names {
		reqs[i] = core.SnapshotRequest{
			Licensees: []string{name}, Date: date, DCs: dcs, Opts: opts,
		}
	}
	nets, err := p.Snapshots(reqs)
	if err != nil {
		return nil, err
	}
	var loners []string
	var lonerNets []*core.Network
	bySite := make(map[string][]int) // Tower.Key -> loner indices
	for i, n := range nets {
		if n.Connected(path) || len(n.Links) == 0 {
			continue
		}
		for _, tw := range n.Towers {
			bySite[tw.Key] = append(bySite[tw.Key], len(loners))
		}
		loners = append(loners, names[i])
		lonerNets = append(lonerNets, n)
	}

	// Request unions only for loner pairs sharing a site and reaching
	// both ends together, in (A, B) order.
	db := p.DB()
	var unionReqs []core.SnapshotRequest
	shares := make([]bool, len(loners))
	for a, n := range lonerNets {
		clear(shares)
		for _, tw := range n.Towers {
			for _, b := range bySite[tw.Key] {
				shares[b] = true
			}
		}
		for b := a + 1; b < len(loners); b++ {
			if !shares[b] {
				continue
			}
			pair := []string{loners[a], loners[b]}
			if !core.Reaches(db, pair, path, opts) {
				continue
			}
			unionReqs = append(unionReqs, core.SnapshotRequest{
				Licensees: pair, Date: date, DCs: dcs, Opts: opts,
			})
		}
	}
	unions, err := p.Snapshots(unionReqs)
	if err != nil {
		return nil, err
	}

	var out []Pair
	for i, u := range unions {
		r, ok := u.BestRoute(path)
		if !ok {
			continue
		}
		pair := unionReqs[i].Licensees
		out = append(out, Pair{
			A: pair[0], B: pair[1],
			Latency:    r.Latency,
			TowerCount: r.TowerCount,
		})
	}
	return out, nil
}
