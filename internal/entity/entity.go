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
	"strings"

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
// A < B. The per-licensee snapshots and the union reconstructions are
// resolved as provider batches, so the snapshot engine fans them out
// and reuses any snapshots other analyses already built. candidates is
// never modified, and invalid options are an error.
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
//
// The same two facts decide which candidates' own snapshots are needed.
// A candidate that reaches both ends (core.ConnectedNetworksRequests)
// is always asked for. Any other candidate is asked for only if it
// shares a filed site cell (uls.Database.SiteSharers, the cells
// stitching merges towers by) with a partner that could complete it: a
// both-end loner, or a candidate that reaches the end it misses. Every
// tower is a filed location, so two networks that share a tower site
// share a filed cell; a candidate with no such partner is in no
// connecting pair, and leaving its snapshot out changes no answer. The
// screen walks the partners' lists, not every candidate's.
func ComplementaryPairsVia(p core.SnapshotProvider, date uls.Date, path sites.Path,
	candidates []string, opts core.Options) ([]Pair, error) {
	// An invalid reach would screen every candidate out and answer
	// nothing instead of an error.
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	db := p.DB()
	has := func(sorted []string, name string) bool {
		_, ok := slices.BinarySearch(sorted, name)
		return ok
	}
	// A sorted, duplicate-free copy of an explicit candidate list; nil
	// makes every licensee a candidate.
	names := slices.Compact(slices.Sorted(slices.Values(candidates)))
	isCandidate := func(name string) bool { return candidates == nil || has(names, name) }
	from := db.LicenseesWithin(path.From.Location, opts.MaxFiberMeters)
	to := db.LicenseesWithin(path.To.Location, opts.MaxFiberMeters)
	dcs := []sites.DataCenter{path.From, path.To}

	// The candidates that reach both ends; connected ones are networks
	// already, not pair members.
	reqs := core.ConnectedNetworksRequests(db, date, path, opts)
	reqs = slices.DeleteFunc(reqs, func(r core.SnapshotRequest) bool {
		return !isCandidate(r.Licensees[0])
	})
	nets, err := p.Snapshots(reqs)
	if err != nil {
		return nil, err
	}
	loners := appendLoners(nil, reqs, nets, path)

	// The other candidates a partner could complete: a both-end loner's
	// site sharers, and the site-sharing pairs of one-end candidates
	// that reach opposite ends, found from the shorter reach list.
	sharers := db.SiteSharers(opts.TowerMergeDecimals)
	var others []string
	for _, l := range loners {
		for _, s := range sharers[l.name] {
			if !(has(from, s) && has(to, s)) && isCandidate(s) {
				others = append(others, s)
			}
		}
	}
	short, long := from, to
	if len(short) > len(long) {
		short, long = long, short
	}
	for _, a := range short {
		if has(long, a) || !isCandidate(a) {
			continue
		}
		for _, b := range sharers[a] {
			if has(long, b) && !has(short, b) && isCandidate(b) {
				others = append(others, a, b)
			}
		}
	}
	slices.Sort(others)
	others = slices.Compact(others)
	reqs = make([]core.SnapshotRequest, len(others))
	for i := range others {
		reqs[i] = core.SnapshotRequest{
			Licensees: others[i : i+1 : i+1], Date: date, DCs: dcs, Opts: opts,
		}
	}
	if nets, err = p.Snapshots(reqs); err != nil {
		return nil, err
	}
	loners = appendLoners(loners, reqs, nets, path)
	slices.SortFunc(loners, func(a, b loner) int { return strings.Compare(a.name, b.name) })

	// Request unions only for loner pairs sharing a site and reaching
	// both ends together, in (A, B) order.
	bySite := make(map[string][]int) // Tower.Key -> loner indices
	for i, l := range loners {
		for _, tw := range l.net.Towers {
			bySite[tw.Key] = append(bySite[tw.Key], i)
		}
	}
	var unionReqs []core.SnapshotRequest
	shares := make([]bool, len(loners))
	for a, l := range loners {
		clear(shares)
		for _, tw := range l.net.Towers {
			for _, b := range bySite[tw.Key] {
				shares[b] = true
			}
		}
		for b := a + 1; b < len(loners); b++ {
			if !shares[b] {
				continue
			}
			pair := []string{l.name, loners[b].name}
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

// loner is a candidate with links but no route on the path alone.
type loner struct {
	name string
	net  *core.Network
}

// appendLoners appends the loners among the single-licensee networks
// got for reqs.
func appendLoners(loners []loner, reqs []core.SnapshotRequest, got []*core.Network, path sites.Path) []loner {
	for i, n := range got {
		if !n.Connected(path) && len(n.Links) > 0 {
			loners = append(loners, loner{reqs[i].Licensees[0], n})
		}
	}
	return loners
}
