package graph

import "sort"

// KShortestPaths returns up to k loop-free paths from src to dst in
// non-decreasing weight order, using Yen's algorithm. The first result
// equals ShortestPath; subsequent results are the next-best simple
// paths. Duplicate paths are never returned.
//
// The reconstruction layer uses it to rank a braided network's diverse
// physical routes — the infrastructure behind the paper's "more
// alternate paths" observation (§5) without the 5%-bound framing.
func (g *Graph) KShortestPaths(src, dst NodeID, k int) []Path {
	if k <= 0 {
		return nil
	}
	first, ok := g.ShortestPath(src, dst)
	if !ok {
		return nil
	}
	accepted := []Path{first}
	seen := map[string]bool{pathKey(first): true}
	var candidates []Path
	mask := make(Mask, len(g.edges))

	for len(accepted) < k {
		prev := accepted[len(accepted)-1]
		// Each node of the previous path (except the terminal) is a
		// spur point.
		for spurIdx := 0; spurIdx < len(prev.Nodes)-1; spurIdx++ {
			spurNode := prev.Nodes[spurIdx]
			rootNodes := prev.Nodes[:spurIdx+1]
			rootEdges := prev.Edges[:spurIdx]

			clear(mask)
			// Block the edges that previous accepted paths (sharing
			// this root) take out of the spur node.
			for _, p := range accepted {
				if len(p.Nodes) > spurIdx && sameNodes(p.Nodes[:spurIdx+1], rootNodes) &&
					len(p.Edges) > spurIdx {
					mask[p.Edges[spurIdx]] = true
				}
			}
			// Remove the root nodes (other than the spur node) from the
			// graph by excluding their incident edges.
			for _, n := range rootNodes[:len(rootNodes)-1] {
				for _, eid := range g.adj[n] {
					mask[eid] = true
				}
			}

			spurPath, ok := g.ShortestPathExcluding(spurNode, dst, mask)
			if !ok {
				continue
			}
			total := Path{
				Nodes:  append(append([]NodeID(nil), rootNodes...), spurPath.Nodes[1:]...),
				Edges:  append(append([]EdgeID(nil), rootEdges...), spurPath.Edges...),
				Weight: rootWeight(g, rootEdges) + spurPath.Weight,
			}
			key := pathKey(total)
			if !seen[key] {
				seen[key] = true
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(i, j int) bool {
			return candidates[i].Weight < candidates[j].Weight
		})
		accepted = append(accepted, candidates[0])
		candidates = candidates[1:]
	}
	return accepted
}

func rootWeight(g *Graph, edges []EdgeID) float64 {
	var w float64
	for _, eid := range edges {
		w += g.edges[eid].Weight
	}
	return w
}

func sameNodes(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func pathKey(p Path) string {
	// The edge sequence identifies a path: in a multigraph, parallel
	// edges between the same towers are distinct paths.
	key := make([]byte, 0, len(p.Edges)*4)
	for _, e := range p.Edges {
		key = append(key, byte(e), byte(e>>8), byte(e>>16), byte(e>>24))
	}
	return string(key)
}
