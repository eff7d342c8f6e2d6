package graph

import "math"

// ShortestPathBidirectional is Dijkstra run simultaneously from both
// endpoints over the graph minus the edges in excluded, stopping when
// the frontiers' combined radius covers the best meeting point. On
// corridor-scale graphs it settles roughly half the nodes of the
// one-sided search; it exists as the ablation comparison for
// ShortestPathExcluding and returns identical weights.
func (g *Graph) ShortestPathBidirectional(src, dst NodeID, excluded Mask) (Path, bool) {
	if src == dst {
		return Path{Nodes: []NodeID{src}}, true
	}
	n := len(g.adj)
	distF := make([]float64, n)
	distB := make([]float64, n)
	prevF := make([]EdgeID, n)
	prevB := make([]EdgeID, n)
	settledF := make([]bool, n)
	settledB := make([]bool, n)
	for i := 0; i < n; i++ {
		distF[i] = math.Inf(1)
		distB[i] = math.Inf(1)
		prevF[i] = -1
		prevB[i] = -1
	}
	distF[src] = 0
	distB[dst] = 0
	var hf, hb minHeap
	hf.push(item{node: src})
	hb.push(item{node: dst})

	best := math.Inf(1)
	meet := NodeID(-1)

	relax := func(h *minHeap, dist, other []float64, prev []EdgeID,
		settled, settledOther []bool) bool {
		for len(*h) > 0 {
			it := h.pop()
			u := it.node
			if settled[u] {
				continue
			}
			settled[u] = true
			// Termination: once the settled radius reaches best/2 on
			// both sides no shorter crossing can exist; conservatively,
			// stop expanding when this frontier alone passes best.
			if dist[u] > best {
				return false
			}
			for _, eid := range g.adj[u] {
				if excluded.excludes(eid) {
					continue
				}
				e := &g.edges[eid]
				v := e.Other(u)
				nd := dist[u] + e.Weight
				if nd < dist[v] {
					dist[v] = nd
					prev[v] = eid
					h.push(item{node: v, dist: nd})
				}
				if total := nd + other[v]; total < best {
					best = total
					meet = v
				}
			}
			return true
		}
		return false
	}

	aliveF, aliveB := true, true
	for aliveF || aliveB {
		// Expand the smaller frontier first.
		if aliveF && (!aliveB || topDist(hf) <= topDist(hb)) {
			aliveF = relax(&hf, distF, distB, prevF, settledF, settledB)
		} else if aliveB {
			aliveB = relax(&hb, distB, distF, prevB, settledB, settledF)
		}
		if math.IsInf(best, 1) {
			continue
		}
		// Standard stopping rule: frontier minima sum past the best
		// crossing.
		if topDist(hf)+topDist(hb) >= best {
			break
		}
	}
	if meet < 0 {
		return Path{}, false
	}

	// Stitch src→meet (forward tree) and meet→dst (backward tree).
	forward := g.TreePathNodes(prevF, src, meet)
	var fEdges []EdgeID
	for at := meet; at != src; {
		eid := prevF[at]
		fEdges = append(fEdges, eid)
		at = g.edges[eid].Other(at)
	}
	for i, j := 0, len(fEdges)-1; i < j; i, j = i+1, j-1 {
		fEdges[i], fEdges[j] = fEdges[j], fEdges[i]
	}
	nodes := append([]NodeID(nil), forward...)
	edges := fEdges
	for at := meet; at != dst; {
		eid := prevB[at]
		edges = append(edges, eid)
		at = g.edges[eid].Other(at)
		nodes = append(nodes, at)
	}
	return Path{Nodes: nodes, Edges: edges, Weight: best}, true
}

func topDist(h minHeap) float64 {
	if len(h) == 0 {
		return math.Inf(1)
	}
	return h[0].dist
}
