// Package core implements the paper's primary contribution: systematic
// reconstruction of HFT microwave networks from license filings (§2.3)
// and the analyses built on the reconstructed graphs — end-to-end latency
// and rankings (§3), longitudinal evolution (§4), and the reliability
// metrics APA, link lengths and operating frequencies (§5).
package core

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"hftnetview/internal/geo"
	"hftnetview/internal/graph"
	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
	"hftnetview/internal/units"
)

// Options tunes reconstruction. The zero value is not valid; use
// DefaultOptions.
type Options struct {
	// TowerMergeDecimals is the number of decimal places coordinates are
	// rounded to when deduplicating towers across licenses (4 ≈ 11 m,
	// comfortably below tower spacing and above filing jitter).
	TowerMergeDecimals int
	// MaxFiberMeters is the maximum data-center-to-tower fiber tail the
	// paper assumes exists (50 km, §2.3).
	MaxFiberMeters float64
	// FiberTailsPerDC caps how many towers each data center gets fiber
	// to (nearest first). The paper's Table 1 reports APA = 0 for pure
	// chain networks, which implies a single attachment point — with
	// unlimited tails, a chain's final hops always have a fiber
	// fallback. 0 means unlimited.
	FiberTailsPerDC int
	// StretchBound is the paper's alternate-path latency budget relative
	// to the c-speed geodesic latency (1.05 = "not more than 5% greater",
	// §5).
	StretchBound float64
}

// Validate rejects options reconstruction cannot honor, NaN included.
// Every analysis calls it before it screens anything, so an invalid
// reach is an error and never an empty answer.
func (o Options) Validate() error {
	if o.TowerMergeDecimals <= 0 || o.TowerMergeDecimals > uls.MaxSiteDecimals ||
		!(o.MaxFiberMeters > 0) || !(o.StretchBound > 1) {
		return fmt.Errorf("core: invalid options %+v", o)
	}
	return nil
}

// DefaultOptions returns the paper's parameters.
func DefaultOptions() Options {
	return Options{
		TowerMergeDecimals: 4,
		MaxFiberMeters:     50e3,
		FiberTailsPerDC:    1,
		StretchBound:       1.05,
	}
}

// AppendFingerprint appends a canonical encoding of the options to b,
// stable across processes, for use as a cache-key component: two
// Options values produce the same fingerprint iff every
// reconstruction-relevant field is equal. Floats are formatted in their
// shortest %g form (1.05 and 1.0500 literal styles collapse to one
// encoding). It allocates nothing beyond b's growth, so a memo lookup
// can build its key on the stack.
func (o Options) AppendFingerprint(b []byte) []byte {
	b = append(b, "tmd="...)
	b = strconv.AppendInt(b, int64(o.TowerMergeDecimals), 10)
	b = append(b, ";mfm="...)
	b = strconv.AppendFloat(b, o.MaxFiberMeters, 'g', -1, 64)
	b = append(b, ";ftd="...)
	b = strconv.AppendInt(b, int64(o.FiberTailsPerDC), 10)
	b = append(b, ";sb="...)
	return strconv.AppendFloat(b, o.StretchBound, 'g', -1, 64)
}

// Tower is a deduplicated antenna site in a reconstructed network.
type Tower struct {
	// Key is the canonical rounded-coordinate identity of the site.
	Key string
	// Point is the site coordinate (of the first filing seen).
	Point geo.Point
	// HeightMeters is the tallest support structure filed at the site.
	HeightMeters float64
}

// Link is a reconstructed microwave hop between two towers.
type Link struct {
	// From and To index into Network.Towers.
	From, To int
	// CallSign and PathNumber identify the license path behind the hop.
	CallSign   string
	PathNumber int
	// LengthMeters is the geodesic hop length.
	LengthMeters float64
	// Latency is the one-way propagation delay at microwave speed.
	Latency units.Latency
	// FrequenciesMHz are the assigned center frequencies.
	FrequenciesMHz []float64
}

// FiberTail is an assumed data-center-to-tower fiber stub (§2.3).
type FiberTail struct {
	DataCenter   sites.DataCenter
	Tower        int // index into Network.Towers
	LengthMeters float64
	Latency      units.Latency
}

// Network is one licensee's reconstructed network as of a date.
//
// A Network is read-only once reconstructed: no analysis modifies it,
// and callers must not modify its towers, links, fiber tails, or the
// routes it returns. That is what lets the snapshot engine hand one
// memoized network to every reader, concurrently. Each network memoizes
// its BestRoute and APA answers per path on first use; copies of the
// Network header (the engine patches the requested date onto one) share
// the memo with the original.
//
// A network owns its memory: its label and call signs are private
// copies and its tower keys are rendered, so a memoized network never
// pins the license database it was built from (a store-loaded
// database's strings alias the generation's segment buffers), and the
// snapshot engine can carry it across corpus generations. Its slices
// are trimmed to size when reconstruction finishes.
type Network struct {
	Licensee string
	Date     uls.Date
	Towers   []Tower
	Links    []Link
	Fiber    []FiberTail

	opts Options
	// g is the reconstruction graph, numbered after the slices: node i
	// is Towers[i] for i < len(Towers), and node len(Towers)+k is the
	// data center dcCodes[k]; edge i is Links[i] for i < len(Links),
	// and edge len(Links)+j is Fiber[j].
	g       *graph.Graph
	dcCodes []string
	memo    *pathMemo
}

// pathMemo holds a network's per-path answers. The answers depend only
// on the network's links and the path, never on Network.Date, so every
// header copy of a network shares one memo. A network is read on a
// handful of paths at most, so the answers sit in a short slice rather
// than a map keyed by the 96-byte sites.Path.
type pathMemo struct {
	mu    sync.Mutex
	paths []*pathAnswers
}

// pathAnswers is one path's memoized BestRoute and APA, each computed
// at most once.
type pathAnswers struct {
	path sites.Path

	routeOnce sync.Once
	route     Route
	routeOK   bool

	apaOnce sync.Once
	apa     float64
	apaOK   bool
}

// answers returns the memo slot for path, creating it on first use.
func (n *Network) answers(path sites.Path) *pathAnswers {
	n.memo.mu.Lock()
	defer n.memo.mu.Unlock()
	for _, a := range n.memo.paths {
		if a.path == path {
			return a
		}
	}
	a := &pathAnswers{path: path}
	n.memo.paths = append(n.memo.paths, a)
	return a
}

// Reconstruct rebuilds the named licensee's network as of the given date
// from its active licenses, stitching links that share tower sites
// (§2.3), and attaches fiber tails to every data center in dcs that has a
// tower within opts.MaxFiberMeters.
func Reconstruct(db *uls.Database, licensee string, date uls.Date, dcs []sites.DataCenter, opts Options) (*Network, error) {
	links := db.ActiveLinks(licensee, date)
	return reconstructLinks(links, licensee, date, dcs, opts)
}

// ReconstructUnion rebuilds the combined network of several filing
// entities, treating their licenses as one infrastructure — the joint
// analysis the paper's §2.4 limitations and §6 future work call for
// ("if a network has multiple entities filing on its behalf, it will
// appear as two separate networks").
func ReconstructUnion(db *uls.Database, licensees []string, date uls.Date, dcs []sites.DataCenter, opts Options) (*Network, error) {
	if len(licensees) == 0 {
		return nil, fmt.Errorf("core: ReconstructUnion needs at least one licensee")
	}
	var links []uls.Link
	for _, name := range licensees {
		links = append(links, db.ActiveLinks(name, date)...)
	}
	return reconstructLinks(links, UnionLabel(licensees), date, dcs, opts)
}

// UnionLabel is the display name of a union network: the licensee
// names joined with " + ", in the given order.
func UnionLabel(licensees []string) string {
	if len(licensees) == 1 {
		return licensees[0]
	}
	return strings.Join(licensees, " + ")
}

func reconstructLinks(links []uls.Link, label string, date uls.Date, dcs []sites.DataCenter, opts Options) (*Network, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		Licensee: strings.Clone(label),
		Date:     date,
		opts:     opts,
		g:        graph.New(),
		memo:     &pathMemo{},
	}

	// Deterministic order: by call sign then path number.
	sort.Slice(links, func(i, j int) bool {
		if links[i].CallSign != links[j].CallSign {
			return links[i].CallSign < links[j].CallSign
		}
		return links[i].PathNumber < links[j].PathNumber
	})

	// Towers are deduplicated on their integer site cell; the string key
	// is rendered once per distinct tower. Tower i is graph node i.
	towerIdx := make(map[uls.SiteCell]int)
	var keyBuf []byte
	ensureTower := func(loc uls.Location) int {
		cell := uls.SiteCellOf(loc.Point, opts.TowerMergeDecimals)
		if i, ok := towerIdx[cell]; ok {
			if loc.SupportHeight > n.Towers[i].HeightMeters {
				n.Towers[i].HeightMeters = loc.SupportHeight
			}
			return i
		}
		i := len(n.Towers)
		towerIdx[cell] = i
		keyBuf = cell.AppendKey(keyBuf[:0], opts.TowerMergeDecimals)
		n.Towers = append(n.Towers, Tower{
			Key:          string(keyBuf),
			Point:        loc.Point,
			HeightMeters: loc.SupportHeight,
		})
		n.g.AddNode()
		return i
	}

	// Licenses covering the same tower pair (e.g. one filing per hop
	// direction, or re-filed channels) describe one physical link:
	// merge them, unioning their frequencies. Without the merge, a
	// directional license pair would register as two parallel edges and
	// every link would trivially have an "alternate path" — itself.
	// Link i is graph edge i. Links arrive grouped by call sign, so one
	// owned copy of each call sign serves all of its links.
	linkAt := make(map[[2]int]int)
	var callSign string
	for _, lk := range links {
		from := ensureTower(lk.TX)
		to := ensureTower(lk.RX)
		if from == to {
			continue // both endpoints merged into one site; not a link
		}
		key := [2]int{from, to}
		if from > to {
			key = [2]int{to, from}
		}
		if li, ok := linkAt[key]; ok {
			n.Links[li].FrequenciesMHz = mergeFrequencies(
				n.Links[li].FrequenciesMHz, lk.FrequenciesMHz)
			continue
		}
		if lk.CallSign != callSign {
			callSign = strings.Clone(lk.CallSign)
		}
		length := lk.LengthMeters()
		l := Link{
			From:           from,
			To:             to,
			CallSign:       callSign,
			PathNumber:     lk.PathNumber,
			LengthMeters:   length,
			Latency:        units.MicrowaveLatency(length),
			FrequenciesMHz: append([]float64(nil), lk.FrequenciesMHz...),
		}
		if _, err := n.g.AddEdge(graph.NodeID(from), graph.NodeID(to), l.Latency.Seconds()); err != nil {
			return nil, fmt.Errorf("core: %s path %d: %w", lk.CallSign, lk.PathNumber, err)
		}
		linkAt[key] = len(n.Links)
		n.Links = append(n.Links, l)
	}

	// Fiber tails: towers within MaxFiberMeters of a data center are
	// assumed reachable over geodesic fiber (§2.3), nearest first, up to
	// FiberTailsPerDC attachments. Each distinct data center is one node
	// after the towers; fiber tail j is edge len(Links)+j.
	for _, dc := range dcs {
		if slices.Contains(n.dcCodes, dc.Code) {
			continue
		}
		dcNode := n.g.AddNode()
		n.dcCodes = append(n.dcCodes, dc.Code)
		type cand struct {
			tower int
			dist  float64
		}
		var cands []cand
		for ti, tw := range n.Towers {
			if d := geo.Distance(dc.Location, tw.Point); d <= opts.MaxFiberMeters {
				cands = append(cands, cand{tower: ti, dist: d})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dist != cands[j].dist {
				return cands[i].dist < cands[j].dist
			}
			return cands[i].tower < cands[j].tower
		})
		if opts.FiberTailsPerDC > 0 && len(cands) > opts.FiberTailsPerDC {
			cands = cands[:opts.FiberTailsPerDC]
		}
		for _, c := range cands {
			ft := FiberTail{
				DataCenter:   dc,
				Tower:        c.tower,
				LengthMeters: c.dist,
				Latency:      units.FiberLatency(c.dist),
			}
			if _, err := n.g.AddEdge(dcNode, graph.NodeID(c.tower), ft.Latency.Seconds()); err != nil {
				return nil, fmt.Errorf("core: fiber tail %s: %w", dc.Code, err)
			}
			n.Fiber = append(n.Fiber, ft)
		}
	}
	// A memoized network outlives its rebuild, often by several corpus
	// generations: drop the append slack of its two large slices.
	n.Towers = slices.Clone(n.Towers)
	n.Links = slices.Clone(n.Links)
	return n, nil
}

// mergeFrequencies unions two sorted-or-not frequency lists without
// duplicates, returning an ascending list.
func mergeFrequencies(a, b []float64) []float64 {
	out := append(append([]float64(nil), a...), b...)
	sort.Float64s(out)
	dedup := out[:0]
	for i, f := range out {
		if i == 0 || out[i-1] != f {
			dedup = append(dedup, f)
		}
	}
	return dedup
}

// Route is an end-to-end lowest-latency path through a network.
type Route struct {
	Path sites.Path
	// Latency is the end-to-end one-way latency (fiber tails included).
	Latency units.Latency
	// MicrowaveMeters and FiberMeters split the route length by medium.
	MicrowaveMeters float64
	FiberMeters     float64
	// TowerCount is the number of distinct towers on the route, the
	// quantity in Table 1's "#Towers" column.
	TowerCount int
	// Towers are the indices (into Network.Towers) of the route's towers
	// in travel order.
	Towers []int
	// LinkIndexes are the indices (into Network.Links) of the microwave
	// hops in travel order.
	LinkIndexes []int
}

// HopCount returns the number of microwave hops on the route.
func (r Route) HopCount() int { return len(r.LinkIndexes) }

// BestRoute returns the lowest-latency route between two data centers,
// computed with Dijkstra's algorithm accounting for the different speeds
// of light in air and fiber (§2.3). ok is false when no end-to-end path
// exists on the reconstruction date. The route is computed once per
// path and memoized.
func (n *Network) BestRoute(path sites.Path) (Route, bool) {
	a := n.answers(path)
	a.routeOnce.Do(func() { a.route, a.routeOK = n.route(path, nil) })
	return a.route, a.routeOK
}

// route is the lowest-latency route over the graph minus the excluded
// edges.
func (n *Network) route(path sites.Path, excluded graph.Mask) (Route, bool) {
	src, dst, ok := n.endpoints(path)
	if !ok {
		return Route{}, false
	}
	p, ok := n.g.ShortestPathExcluding(src, dst, excluded)
	if !ok {
		return Route{}, false
	}
	return n.routeFromPath(path, p), true
}

func (n *Network) routeFromPath(path sites.Path, p graph.Path) Route {
	r := Route{Path: path, Latency: units.Latency(p.Weight)}
	for _, eid := range p.Edges {
		if li, ok := n.linkOf(eid); ok {
			r.MicrowaveMeters += n.Links[li].LengthMeters
			r.LinkIndexes = append(r.LinkIndexes, li)
		} else {
			r.FiberMeters += n.Fiber[li-len(n.Links)].LengthMeters
		}
	}
	seen := make(map[int]bool)
	for _, node := range p.Nodes {
		if ti := int(node); ti < len(n.Towers) && !seen[ti] {
			seen[ti] = true
			r.Towers = append(r.Towers, ti)
		}
	}
	r.TowerCount = len(r.Towers)
	return r
}

// endpoints returns the graph nodes of the path's two data centers; ok
// is false when the network has no node for either.
func (n *Network) endpoints(path sites.Path) (src, dst graph.NodeID, ok bool) {
	src, okS := n.dcNode(path.From.Code)
	dst, okD := n.dcNode(path.To.Code)
	return src, dst, okS && okD
}

func (n *Network) dcNode(code string) (graph.NodeID, bool) {
	if k := slices.Index(n.dcCodes, code); k >= 0 {
		return graph.NodeID(len(n.Towers) + k), true
	}
	return 0, false
}

// linkOf maps a graph edge to its Links index; ok is false for a fiber
// tail, whose Fiber index is then li-len(n.Links).
func (n *Network) linkOf(eid graph.EdgeID) (li int, ok bool) {
	return int(eid), int(eid) < len(n.Links)
}

// Connected reports whether the network has any end-to-end route for the
// given path.
func (n *Network) Connected(path sites.Path) bool {
	_, ok := n.BestRoute(path)
	return ok
}

// LatencyBound returns the paper's §5 alternate-path latency budget for a
// path: StretchBound × the c-speed latency along the geodesic.
func (n *Network) LatencyBound(path sites.Path) units.Latency {
	return units.Latency(n.opts.StretchBound * units.CLatency(path.GeodesicMeters()).Seconds())
}
