// Package graph provides the weighted-graph substrate for network
// reconstruction: an undirected multigraph over dense integer node ids,
// binary-heap Dijkstra, connected components, bounded loop-free path
// enumeration, and per-edge removal analysis (the primitive behind the
// paper's APA metric, §5).
//
// Edge weights are arbitrary non-negative costs; the reconstruction layer
// uses one-way propagation latency in seconds.
//
// A graph is read-only once built: no query mutates it, so any number of
// goroutines may query one graph concurrently. Analyses that knock edges
// out of the traversal (per-edge removal, Yen's spur searches, storm
// routing) describe the knocked-out edges with a caller-owned Mask.
package graph

import (
	"fmt"
	"math"
)

// NodeID identifies a node; it is a dense index assigned by AddNode.
type NodeID int32

// EdgeID identifies an edge; it is a dense index assigned by AddEdge.
type EdgeID int32

// Edge is an undirected weighted edge. Parallel edges and their distinct
// identities are preserved (two licenses may cover the same tower pair).
type Edge struct {
	A, B   NodeID
	Weight float64
}

// Mask is a set of edges excluded from a traversal, indexed by EdgeID:
// edge id is excluded when id < len(m) and m[id] is true, so a nil Mask
// excludes nothing. The caller owns the mask; queries only read it.
type Mask []bool

func (m Mask) excludes(id EdgeID) bool { return int(id) < len(m) && m[id] }

// Other returns the endpoint opposite to n.
func (e Edge) Other(n NodeID) NodeID {
	if e.A == n {
		return e.B
	}
	return e.A
}

// Graph is an undirected weighted multigraph. Nodes carry no names:
// callers that need one map their own identities onto the dense ids
// AddNode hands out.
type Graph struct {
	edges []Edge
	adj   [][]EdgeID
}

// New returns an empty graph.
func New() *Graph { return &Graph{} }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddNode adds a node and returns its id: nodes are numbered 0, 1, 2, …
// in the order they are added.
func (g *Graph) AddNode() NodeID {
	g.adj = append(g.adj, nil)
	return NodeID(len(g.adj) - 1)
}

// AddEdge adds an undirected edge with the given non-negative weight and
// returns its EdgeID.
func (g *Graph) AddEdge(a, b NodeID, w float64) (EdgeID, error) {
	if a == b {
		return 0, fmt.Errorf("graph: self loop at node %d", a)
	}
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return 0, fmt.Errorf("graph: invalid edge weight %v", w)
	}
	if int(a) >= len(g.adj) || int(b) >= len(g.adj) || a < 0 || b < 0 {
		return 0, fmt.Errorf("graph: edge references unknown node (%d, %d)", a, b)
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{A: a, B: b, Weight: w})
	g.adj[a] = append(g.adj[a], id)
	g.adj[b] = append(g.adj[b], id)
	return id, nil
}

// Edge returns a copy of the edge with the given id.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// EdgesOf returns the edge ids incident to n.
func (g *Graph) EdgesOf(n NodeID) []EdgeID { return g.adj[n] }

// Path is a walk through the graph with its total weight.
type Path struct {
	Nodes  []NodeID
	Edges  []EdgeID
	Weight float64
}

// Len returns the number of hops (edges) on the path.
func (p Path) Len() int { return len(p.Edges) }

// item is a binary-heap entry for Dijkstra.
type item struct {
	node NodeID
	dist float64
}

// minHeap is a hand-rolled binary heap over items; container/heap's
// interface indirection costs ~2x on this hot path (see the ablation
// bench), and the heap is trivial.
type minHeap []item

func (h *minHeap) push(it item) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent].dist <= (*h)[i].dist {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *minHeap) pop() item {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && (*h)[l].dist < (*h)[smallest].dist {
			smallest = l
		}
		if r < n && (*h)[r].dist < (*h)[smallest].dist {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// ShortestPath returns the minimum-weight path from src to dst, and
// whether dst is reachable. Ties are broken by insertion order
// deterministically.
func (g *Graph) ShortestPath(src, dst NodeID) (Path, bool) {
	return g.ShortestPathExcluding(src, dst, nil)
}

// ShortestPathExcluding is ShortestPath over the graph minus the edges
// in excluded.
func (g *Graph) ShortestPathExcluding(src, dst NodeID, excluded Mask) (Path, bool) {
	dist, prevEdge := g.dijkstra(src, dst, excluded)
	if math.IsInf(dist[dst], 1) {
		return Path{}, false
	}
	return g.tracePath(src, dst, dist, prevEdge), true
}

// DistancesFrom returns the minimum weight from src to every node
// (math.Inf(1) where unreachable).
func (g *Graph) DistancesFrom(src NodeID) []float64 {
	dist, _ := g.dijkstra(src, -1, nil)
	return dist
}

// ShortestPathTree returns the full Dijkstra result from src: per-node
// distances and the parent edge of each node in the shortest-path tree
// (-1 for src and unreachable nodes).
func (g *Graph) ShortestPathTree(src NodeID) ([]float64, []EdgeID) {
	return g.dijkstra(src, -1, nil)
}

// TreePathNodes returns the nodes on the tree path from src to dst
// (inclusive, in src→dst order) given a parent-edge array produced by
// ShortestPathTree(src). It returns nil when dst is unreachable.
func (g *Graph) TreePathNodes(prevEdge []EdgeID, src, dst NodeID) []NodeID {
	if src == dst {
		return []NodeID{src}
	}
	if prevEdge[dst] < 0 {
		return nil
	}
	var rev []NodeID
	at := dst
	for at != src {
		rev = append(rev, at)
		eid := prevEdge[at]
		if eid < 0 {
			return nil
		}
		at = g.edges[eid].Other(at)
	}
	rev = append(rev, src)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// dijkstra runs to completion, or until dst is settled when dst >= 0,
// never traversing an edge in excluded.
func (g *Graph) dijkstra(src, dst NodeID, excluded Mask) (dist []float64, prevEdge []EdgeID) {
	n := len(g.adj)
	dist = make([]float64, n)
	prevEdge = make([]EdgeID, n)
	settled := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevEdge[i] = -1
	}
	dist[src] = 0
	h := make(minHeap, 0, 64)
	h.push(item{node: src})
	for len(h) > 0 {
		it := h.pop()
		u := it.node
		if settled[u] {
			continue
		}
		settled[u] = true
		if u == dst {
			break
		}
		for _, eid := range g.adj[u] {
			if excluded.excludes(eid) {
				continue
			}
			e := &g.edges[eid]
			v := e.Other(u)
			if settled[v] {
				continue
			}
			if nd := dist[u] + e.Weight; nd < dist[v] {
				dist[v] = nd
				prevEdge[v] = eid
				h.push(item{node: v, dist: nd})
			}
		}
	}
	return dist, prevEdge
}

func (g *Graph) tracePath(src, dst NodeID, dist []float64, prevEdge []EdgeID) Path {
	var redges []EdgeID
	var rnodes []NodeID
	at := dst
	rnodes = append(rnodes, at)
	for at != src {
		eid := prevEdge[at]
		redges = append(redges, eid)
		at = g.edges[eid].Other(at)
		rnodes = append(rnodes, at)
	}
	// Reverse in place.
	for i, j := 0, len(redges)-1; i < j; i, j = i+1, j-1 {
		redges[i], redges[j] = redges[j], redges[i]
	}
	for i, j := 0, len(rnodes)-1; i < j; i, j = i+1, j-1 {
		rnodes[i], rnodes[j] = rnodes[j], rnodes[i]
	}
	return Path{Nodes: rnodes, Edges: redges, Weight: dist[dst]}
}

// ShortestPathNaive is Dijkstra with an O(V) linear scan instead of a
// heap. It exists only as the ablation baseline for the benchmark suite.
func (g *Graph) ShortestPathNaive(src, dst NodeID) (Path, bool) {
	n := len(g.adj)
	dist := make([]float64, n)
	prevEdge := make([]EdgeID, n)
	settled := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevEdge[i] = -1
	}
	dist[src] = 0
	for {
		u := NodeID(-1)
		best := math.Inf(1)
		for i := 0; i < n; i++ {
			if !settled[i] && dist[i] < best {
				best = dist[i]
				u = NodeID(i)
			}
		}
		if u < 0 {
			break
		}
		settled[u] = true
		if u == dst {
			break
		}
		for _, eid := range g.adj[u] {
			e := &g.edges[eid]
			v := e.Other(u)
			if nd := dist[u] + e.Weight; nd < dist[v] {
				dist[v] = nd
				prevEdge[v] = eid
			}
		}
	}
	if math.IsInf(dist[dst], 1) {
		return Path{}, false
	}
	return g.tracePath(src, dst, dist, prevEdge), true
}

// Components returns the connected components of the graph minus the
// edges in excluded, each a list of NodeIDs; components are ordered by
// their smallest node.
func (g *Graph) Components(excluded Mask) [][]NodeID {
	n := len(g.adj)
	seen := make([]bool, n)
	var comps [][]NodeID
	stack := make([]NodeID, 0, 64)
	for start := 0; start < n; start++ {
		if seen[start] {
			continue
		}
		var comp []NodeID
		stack = append(stack[:0], NodeID(start))
		seen[start] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, eid := range g.adj[u] {
				if excluded.excludes(eid) {
					continue
				}
				v := g.edges[eid].Other(u)
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// Connected reports whether dst is reachable from src.
func (g *Graph) Connected(src, dst NodeID) bool {
	_, ok := g.ShortestPath(src, dst)
	return ok
}
