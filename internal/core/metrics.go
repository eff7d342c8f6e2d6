package core

import (
	"math"
	"sort"

	"hftnetview/internal/graph"
	"hftnetview/internal/sites"
)

// APA computes the paper's alternate path availability (§5): the
// fraction of the path's candidate microwave links whose individual
// removal leaves the network's end-to-end latency within StretchBound ×
// the c-speed geodesic latency.
//
// The candidate universe is the set of links that participate in at
// least one loop-free path within the bound (see BoundedPaths). Links
// that never serve the path — e.g. a spur toward a different data center
// — are not part of the path's redundancy question; counting them would
// report nonzero "redundancy" for a pure chain with an unrelated spur.
// Fiber tails are assumed infrastructure, not licensed links, so they
// are not candidates either.
//
// ok is false when the network has no end-to-end route at all, in which
// case APA is meaningless. The answer is computed once per path and
// memoized.
func (n *Network) APA(path sites.Path) (apa float64, ok bool) {
	a := n.answers(path)
	a.apaOnce.Do(func() { a.apa, a.apaOK = n.computeAPA(path) })
	return a.apa, a.apaOK
}

func (n *Network) computeAPA(path sites.Path) (float64, bool) {
	set, okSet := n.BoundedPaths(path)
	if !okSet || len(set.LinkIndexes) == 0 {
		return 0, false
	}
	src, dst, _ := n.endpoints(path)
	bound := n.LatencyBound(path).Seconds()
	inUniverse := make(map[int]bool, len(set.LinkIndexes))
	for _, li := range set.LinkIndexes {
		inUniverse[li] = true
	}
	results := n.g.EdgeRemovalAnalysisFast(src, dst, bound, nil)
	total, within := 0, 0
	for _, r := range results {
		li, isMW := n.linkOf(r.Edge)
		if !isMW || !inUniverse[li] {
			continue
		}
		total++
		if r.WithinBound {
			within++
		}
	}
	if total == 0 {
		return 0, false
	}
	return float64(within) / float64(total), true
}

// BoundedPathSet is the §5 analysis universe: the microwave links that
// lie on at least one loop-free end-to-end path within the latency
// bound.
type BoundedPathSet struct {
	Path sites.Path
	// LinkIndexes are the unique microwave links (indices into
	// Network.Links) appearing on at least one bounded path, sorted.
	LinkIndexes []int
}

// BoundedPaths computes the §5 universe: the set of microwave links that
// participate in some loop-free path within the latency bound (the links
// of Fig 4a's CDFs).
//
// A link (u,v) of weight w is accepted when d(s,u) + w + d(v,t) ≤ bound
// (in either orientation) AND the shortest s→u and v→t paths are
// node-disjoint, which makes the concatenation a genuine simple path.
// Without the disjointness check, an out-and-back walk onto a dead-end
// spur would qualify and pollute the universe. Two Dijkstra passes
// suffice — no exponential simple-path enumeration. (The check is
// mildly conservative: if only non-tree s→u / v→t path pairs are
// disjoint the link is missed; corridor geometries don't produce that
// case.)
func (n *Network) BoundedPaths(path sites.Path) (BoundedPathSet, bool) {
	src, dst, ok := n.endpoints(path)
	set := BoundedPathSet{Path: path}
	if !ok {
		return set, false
	}
	bound := n.LatencyBound(path).Seconds()
	fromSrc, prevS := n.g.ShortestPathTree(src)
	fromDst, prevT := n.g.ShortestPathTree(dst)
	if fromSrc[dst] > bound {
		return set, false
	}

	// Memoized tree-path node sets.
	sPaths := make(map[graph.NodeID]map[graph.NodeID]bool)
	tPaths := make(map[graph.NodeID][]graph.NodeID)
	sPathSet := func(u graph.NodeID) map[graph.NodeID]bool {
		if s, ok := sPaths[u]; ok {
			return s
		}
		nodes := n.g.TreePathNodes(prevS, src, u)
		s := make(map[graph.NodeID]bool, len(nodes))
		for _, nd := range nodes {
			s[nd] = true
		}
		sPaths[u] = s
		return s
	}
	tPath := func(v graph.NodeID) []graph.NodeID {
		if p, ok := tPaths[v]; ok {
			return p
		}
		p := n.g.TreePathNodes(prevT, dst, v)
		tPaths[v] = p
		return p
	}
	simpleVia := func(u, v graph.NodeID, w float64) bool {
		if fromSrc[u]+w+fromDst[v] > bound {
			return false
		}
		sSet := sPathSet(u)
		if sSet == nil {
			return false
		}
		for _, nd := range tPath(v) {
			if sSet[nd] {
				return false
			}
		}
		return true
	}

	for li := range n.Links {
		e := n.g.Edge(graph.EdgeID(li))
		if simpleVia(e.A, e.B, e.Weight) || simpleVia(e.B, e.A, e.Weight) {
			set.LinkIndexes = append(set.LinkIndexes, li)
		}
	}
	return set, true
}

// LinkLengthsOnBoundedPaths returns the lengths (meters, ascending) of
// the microwave links on all loop-free paths within the §5 bound — the
// sample Fig 4(a) plots as a CDF.
func (n *Network) LinkLengthsOnBoundedPaths(path sites.Path) ([]float64, bool) {
	set, ok := n.BoundedPaths(path)
	if !ok {
		return nil, false
	}
	lengths := make([]float64, 0, len(set.LinkIndexes))
	for _, li := range set.LinkIndexes {
		lengths = append(lengths, n.Links[li].LengthMeters)
	}
	sort.Float64s(lengths)
	return lengths, true
}

// FrequenciesOnShortestPath returns the operating frequencies (GHz,
// ascending) of the microwave links on the lowest-latency route — the
// per-network sample of Fig 4(b).
func (n *Network) FrequenciesOnShortestPath(path sites.Path) ([]float64, bool) {
	r, ok := n.BestRoute(path)
	if !ok {
		return nil, false
	}
	var out []float64
	for _, li := range r.LinkIndexes {
		for _, mhz := range n.Links[li].FrequenciesMHz {
			out = append(out, mhz/1000)
		}
	}
	sort.Float64s(out)
	return out, true
}

// FrequenciesOnAlternatePaths returns the frequencies (GHz, ascending)
// of microwave links that appear on bounded alternate paths but not on
// the shortest path — Fig 4(b)'s "NLN-alternate" series.
func (n *Network) FrequenciesOnAlternatePaths(path sites.Path) ([]float64, bool) {
	set, ok := n.BoundedPaths(path)
	if !ok {
		return nil, false
	}
	r, ok := n.BestRoute(path)
	if !ok {
		return nil, false
	}
	onSP := make(map[int]bool, len(r.LinkIndexes))
	for _, li := range r.LinkIndexes {
		onSP[li] = true
	}
	var out []float64
	for _, li := range set.LinkIndexes {
		if onSP[li] {
			continue
		}
		for _, mhz := range n.Links[li].FrequenciesMHz {
			out = append(out, mhz/1000)
		}
	}
	sort.Float64s(out)
	return out, true
}

// CDF is an empirical cumulative distribution over a sorted sample.
type CDF struct {
	// Values is the ascending sample.
	Values []float64
}

// NewCDF copies and sorts the sample.
func NewCDF(sample []float64) CDF {
	vs := append([]float64(nil), sample...)
	sort.Float64s(vs)
	return CDF{Values: vs}
}

// At returns the empirical CDF value P(X <= x).
func (c CDF) At(x float64) float64 {
	if len(c.Values) == 0 {
		return 0
	}
	// First index with value > x.
	i := sort.SearchFloat64s(c.Values, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.Values))
}

// Quantile returns the q-th quantile (0 <= q <= 1) of the sample using
// the nearest-rank method; Quantile(0.5) is the median the paper quotes.
func (c CDF) Quantile(q float64) float64 {
	if len(c.Values) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return c.Values[0]
	}
	if q >= 1 {
		return c.Values[len(c.Values)-1]
	}
	rank := int(math.Ceil(q*float64(len(c.Values)))) - 1
	if rank < 0 {
		rank = 0
	}
	return c.Values[rank]
}

// Median returns the 50th-percentile value.
func (c CDF) Median() float64 { return c.Quantile(0.5) }

// FractionBelow returns the share of the sample strictly below x (used
// for statements like "more than 94% of the frequencies are under
// 7 GHz").
func (c CDF) FractionBelow(x float64) float64 {
	if len(c.Values) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(c.Values, x)
	return float64(i) / float64(len(c.Values))
}
