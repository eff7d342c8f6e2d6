package graph

import "math"

// EnumerateOptions controls bounded loop-free path enumeration.
type EnumerateOptions struct {
	// Bound is the inclusive maximum total weight of returned paths.
	Bound float64
	// MaxPaths caps the number of returned paths (0 = DefaultMaxPaths).
	// Enumeration of simple paths is worst-case exponential; the cap is a
	// safety valve, and hitting it is reported via the truncated result.
	MaxPaths int
	// DisablePruning turns off the distance-to-target lower-bound pruning
	// and bounds the search by accumulated cost alone. It exists only for
	// the ablation benchmark.
	DisablePruning bool
}

// DefaultMaxPaths is the default enumeration cap.
const DefaultMaxPaths = 100000

// PathsWithin enumerates loop-free (simple) paths from src to dst whose
// total weight is at most opts.Bound, in DFS order. truncated reports
// whether the MaxPaths cap cut enumeration short.
//
// The search prunes any prefix whose cost plus the exact remaining
// shortest-path cost to dst exceeds the bound, computed from one reverse
// Dijkstra pass; this is what makes the "all loop-free paths within 5% of
// the geodesic c-latency" analysis of Fig 4(a) tractable.
func (g *Graph) PathsWithin(src, dst NodeID, opts EnumerateOptions) (paths []Path, truncated bool) {
	maxPaths := opts.MaxPaths
	if maxPaths <= 0 {
		maxPaths = DefaultMaxPaths
	}
	var toDst []float64
	if !opts.DisablePruning {
		toDst = g.DistancesFrom(dst) // undirected: dist-to == dist-from
		if math.IsInf(toDst[src], 1) || toDst[src] > opts.Bound {
			return nil, false
		}
	}

	onPath := make([]bool, len(g.adj))
	var nodes []NodeID
	var edges []EdgeID

	var dfs func(u NodeID, cost float64) bool // returns false when capped
	dfs = func(u NodeID, cost float64) bool {
		if u == dst {
			p := Path{
				Nodes:  append([]NodeID(nil), nodes...),
				Edges:  append([]EdgeID(nil), edges...),
				Weight: cost,
			}
			paths = append(paths, p)
			return len(paths) < maxPaths
		}
		for _, eid := range g.adj[u] {
			e := &g.edges[eid]
			v := e.Other(u)
			if onPath[v] {
				continue
			}
			nc := cost + e.Weight
			if nc > opts.Bound {
				continue
			}
			if toDst != nil && nc+toDst[v] > opts.Bound {
				continue
			}
			onPath[v] = true
			nodes = append(nodes, v)
			edges = append(edges, eid)
			ok := dfs(v, nc)
			nodes = nodes[:len(nodes)-1]
			edges = edges[:len(edges)-1]
			onPath[v] = false
			if !ok {
				return false
			}
		}
		return true
	}

	onPath[src] = true
	nodes = append(nodes, src)
	capped := !dfs(src, 0)
	return paths, capped
}

// RemovalResult reports, for one edge, whether the network still meets
// the latency bound with that edge removed.
type RemovalResult struct {
	Edge        EdgeID
	WithinBound bool
	// Latency is the s-t shortest-path weight without the edge
	// (+Inf when disconnected).
	Latency float64
}

// EdgeRemovalAnalysis removes each edge not in excluded in turn and
// reports whether the src-dst shortest path of the remaining graph (also
// minus excluded) stays within bound. This is the paper's APA
// computation (§5): APA is the fraction of results with WithinBound ==
// true. Removals go into a private copy of the mask: neither the graph
// nor excluded is modified.
func (g *Graph) EdgeRemovalAnalysis(src, dst NodeID, bound float64, excluded Mask) []RemovalResult {
	mask := g.maskFrom(excluded)
	var out []RemovalResult
	for id := range g.edges {
		if mask[id] {
			continue
		}
		out = append(out, g.removal(src, dst, bound, mask, EdgeID(id)))
	}
	return out
}

// EdgeRemovalAnalysisFast is the optimized variant: an edge not on the
// current shortest path cannot worsen it when removed, so only
// shortest-path edges need a re-run. Results are identical to
// EdgeRemovalAnalysis whenever the baseline shortest path is within
// bound; it exists both as the production implementation and as the
// ablation comparison point.
func (g *Graph) EdgeRemovalAnalysisFast(src, dst NodeID, bound float64, excluded Mask) []RemovalResult {
	mask := g.maskFrom(excluded)
	base, ok := g.ShortestPathExcluding(src, dst, mask)
	if !ok || base.Weight > bound {
		// Baseline already violates the bound; every removal does too.
		var out []RemovalResult
		baseLat := math.Inf(1)
		if ok {
			baseLat = base.Weight
		}
		for id := range g.edges {
			if mask[id] {
				continue
			}
			out = append(out, RemovalResult{Edge: EdgeID(id), WithinBound: false, Latency: baseLat})
		}
		return out
	}
	onSP := make(map[EdgeID]bool, len(base.Edges))
	for _, eid := range base.Edges {
		onSP[eid] = true
	}
	var out []RemovalResult
	for id := range g.edges {
		eid := EdgeID(id)
		if mask[id] {
			continue
		}
		if !onSP[eid] {
			out = append(out, RemovalResult{Edge: eid, WithinBound: true, Latency: base.Weight})
			continue
		}
		out = append(out, g.removal(src, dst, bound, mask, eid))
	}
	return out
}

// maskFrom returns a full-length private copy of excluded that an
// analysis may flip edges in.
func (g *Graph) maskFrom(excluded Mask) Mask {
	mask := make(Mask, len(g.edges))
	copy(mask, excluded)
	return mask
}

// removal measures the src-dst latency with eid excluded on top of
// mask, leaving mask as it found it.
func (g *Graph) removal(src, dst NodeID, bound float64, mask Mask, eid EdgeID) RemovalResult {
	mask[eid] = true
	lat := math.Inf(1)
	if p, ok := g.ShortestPathExcluding(src, dst, mask); ok {
		lat = p.Weight
	}
	mask[eid] = false
	return RemovalResult{Edge: eid, WithinBound: lat <= bound, Latency: lat}
}

// APA returns the alternate-path-availability fraction in [0, 1]: the
// share of edges whose individual removal keeps the src-dst latency
// within bound. Returns 0 for an edgeless graph.
func (g *Graph) APA(src, dst NodeID, bound float64) float64 {
	res := g.EdgeRemovalAnalysisFast(src, dst, bound, nil)
	if len(res) == 0 {
		return 0
	}
	ok := 0
	for _, r := range res {
		if r.WithinBound {
			ok++
		}
	}
	return float64(ok) / float64(len(res))
}
