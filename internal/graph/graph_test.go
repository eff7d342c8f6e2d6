package graph

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// lineGraph builds a chain n0 - n1 - ... - n{k} with unit weights.
func lineGraph(t testing.TB, k int) (*Graph, []NodeID) {
	t.Helper()
	g := New()
	ids := make([]NodeID, k+1)
	for i := range ids {
		ids[i] = g.AddNode()
	}
	for i := 0; i < k; i++ {
		if _, err := g.AddEdge(ids[i], ids[i+1], 1); err != nil {
			t.Fatal(err)
		}
	}
	return g, ids
}

// ladderGraph builds two parallel chains with rungs:
//
//	a0 - a1 - ... - a{k}
//	 \   |          /
//	  b0 - b1 - ...b{k}   (a_i - b_i rungs, plus shared endpoints)
func ladderGraph(t testing.TB, k int, railW, rungW float64) (*Graph, NodeID, NodeID) {
	t.Helper()
	g := New()
	src := g.AddNode()
	dst := g.AddNode()
	as := make([]NodeID, k)
	bs := make([]NodeID, k)
	for i := 0; i < k; i++ {
		as[i] = g.AddNode()
		bs[i] = g.AddNode()
	}
	mustAdd := func(a, b NodeID, w float64) {
		if _, err := g.AddEdge(a, b, w); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(src, as[0], railW)
	mustAdd(src, bs[0], railW)
	for i := 0; i < k-1; i++ {
		mustAdd(as[i], as[i+1], railW)
		mustAdd(bs[i], bs[i+1], railW)
	}
	for i := 0; i < k; i++ {
		mustAdd(as[i], bs[i], rungW)
	}
	mustAdd(as[k-1], dst, railW)
	mustAdd(bs[k-1], dst, railW)
	return g, src, dst
}

// TestAddNodeDense: nodes are dense indices in insertion order — the
// identity the reconstruction layer relies on (node i is tower i).
func TestAddNodeDense(t *testing.T) {
	g := New()
	for want := 0; want < 3; want++ {
		if id := g.AddNode(); int(id) != want {
			t.Errorf("AddNode #%d = %d, want %d", want, id, want)
		}
	}
	if g.NumNodes() != 3 {
		t.Errorf("NumNodes = %d, want 3", g.NumNodes())
	}
	if got := len(g.EdgesOf(2)); got != 0 {
		t.Errorf("new node has %d edges, want 0", got)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := New()
	a := g.AddNode()
	b := g.AddNode()
	if _, err := g.AddEdge(a, a, 1); err == nil {
		t.Error("self loop accepted")
	}
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := g.AddEdge(a, b, w); err == nil {
			t.Errorf("weight %v accepted", w)
		}
	}
	if _, err := g.AddEdge(a, 99, 1); err == nil {
		t.Error("unknown node accepted")
	}
	if _, err := g.AddEdge(a, b, 0); err != nil {
		t.Errorf("zero weight rejected: %v", err)
	}
}

func TestShortestPathLine(t *testing.T) {
	g, ids := lineGraph(t, 10)
	p, ok := g.ShortestPath(ids[0], ids[10])
	if !ok {
		t.Fatal("unreachable")
	}
	if p.Weight != 10 || p.Len() != 10 {
		t.Errorf("Weight=%v Len=%d, want 10, 10", p.Weight, p.Len())
	}
	if p.Nodes[0] != ids[0] || p.Nodes[len(p.Nodes)-1] != ids[10] {
		t.Error("path endpoints wrong")
	}
	// Node sequence must be consistent with edge sequence.
	for i, eid := range p.Edges {
		e := g.Edge(eid)
		u, v := p.Nodes[i], p.Nodes[i+1]
		if !((e.A == u && e.B == v) || (e.A == v && e.B == u)) {
			t.Fatalf("edge %d does not connect consecutive path nodes", i)
		}
	}
}

func TestShortestPathPrefersCheaperRoute(t *testing.T) {
	g := New()
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	g.AddEdge(a, c, 10)
	g.AddEdge(a, b, 2)
	g.AddEdge(b, c, 3)
	p, ok := g.ShortestPath(a, c)
	if !ok || p.Weight != 5 || p.Len() != 2 {
		t.Errorf("path = %+v, want weight 5 via b", p)
	}
}

func TestShortestPathParallelEdges(t *testing.T) {
	g := New()
	a, b := g.AddNode(), g.AddNode()
	g.AddEdge(a, b, 5)
	cheap, _ := g.AddEdge(a, b, 2)
	p, ok := g.ShortestPath(a, b)
	if !ok || p.Weight != 2 || p.Edges[0] != cheap {
		t.Errorf("parallel edge selection wrong: %+v", p)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New()
	a := g.AddNode()
	b := g.AddNode()
	if _, ok := g.ShortestPath(a, b); ok {
		t.Error("disconnected nodes reported reachable")
	}
}

func TestShortestPathSelf(t *testing.T) {
	g, ids := lineGraph(t, 3)
	p, ok := g.ShortestPath(ids[1], ids[1])
	if !ok || p.Weight != 0 || p.Len() != 0 || len(p.Nodes) != 1 {
		t.Errorf("self path = %+v", p)
	}
}

func TestDisabledEdges(t *testing.T) {
	g := New()
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	direct, _ := g.AddEdge(a, c, 1)
	g.AddEdge(a, b, 2)
	g.AddEdge(b, c, 2)
	mask := make(Mask, g.NumEdges())
	mask[direct] = true
	p, ok := g.ShortestPathExcluding(a, c, mask)
	if !ok || p.Weight != 4 {
		t.Errorf("with direct excluded: %+v, want weight 4", p)
	}
	if p, _ = g.ShortestPath(a, c); p.Weight != 1 {
		t.Errorf("without the mask: %+v, want weight 1", p)
	}
	// A mask shorter than the edge list excludes only what it covers.
	if p, _ = g.ShortestPathExcluding(a, c, Mask{false}); p.Weight != 1 {
		t.Errorf("short mask: %+v, want weight 1", p)
	}
}

func TestDistancesFrom(t *testing.T) {
	g, ids := lineGraph(t, 5)
	dist := g.DistancesFrom(ids[0])
	for i, id := range ids {
		if dist[id] != float64(i) {
			t.Errorf("dist[%d] = %v, want %d", i, dist[id], i)
		}
	}
	lone := g.AddNode()
	dist = g.DistancesFrom(ids[0])
	if !math.IsInf(dist[lone], 1) {
		t.Errorf("dist[lone] = %v, want +Inf", dist[lone])
	}
}

func TestNaiveMatchesHeapDijkstra(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 0))
	for trial := 0; trial < 30; trial++ {
		g := New()
		n := 30
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.AddNode()
		}
		for e := 0; e < 80; e++ {
			a := ids[rng.IntN(n)]
			b := ids[rng.IntN(n)]
			if a == b {
				continue
			}
			g.AddEdge(a, b, rng.Float64()*10)
		}
		src, dst := ids[0], ids[n-1]
		p1, ok1 := g.ShortestPath(src, dst)
		p2, ok2 := g.ShortestPathNaive(src, dst)
		if ok1 != ok2 {
			t.Fatalf("trial %d: reachability differs", trial)
		}
		if ok1 && math.Abs(p1.Weight-p2.Weight) > 1e-12 {
			t.Fatalf("trial %d: weights differ: %v vs %v", trial, p1.Weight, p2.Weight)
		}
	}
}

func TestComponents(t *testing.T) {
	g := New()
	a, b := g.AddNode(), g.AddNode()
	c, d := g.AddNode(), g.AddNode()
	g.AddNode() // isolated
	g.AddEdge(a, b, 1)
	g.AddEdge(c, d, 1)
	comps := g.Components(nil)
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	sizes := map[int]int{}
	for _, comp := range comps {
		sizes[len(comp)]++
	}
	if sizes[2] != 2 || sizes[1] != 1 {
		t.Errorf("component sizes = %v", sizes)
	}
}

func TestComponentsRespectDisabled(t *testing.T) {
	g := New()
	a, b := g.AddNode(), g.AddNode()
	e, _ := g.AddEdge(a, b, 1)
	if got := len(g.Components(nil)); got != 1 {
		t.Fatalf("components = %d, want 1", got)
	}
	mask := make(Mask, g.NumEdges())
	mask[e] = true
	if got := len(g.Components(mask)); got != 2 {
		t.Errorf("components with excluded edge = %d, want 2", got)
	}
}

// TestDijkstraTriangleProperty checks d(s,v) <= d(s,u) + w(u,v) on random
// graphs — the defining relaxation invariant.
func TestDijkstraTriangleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		g := New()
		n := 20
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.AddNode()
		}
		for e := 0; e < 50; e++ {
			a, b := ids[rng.IntN(n)], ids[rng.IntN(n)]
			if a == b {
				continue
			}
			g.AddEdge(a, b, rng.Float64()*5)
		}
		dist := g.DistancesFrom(ids[0])
		for id := 0; id < g.NumEdges(); id++ {
			e := g.Edge(EdgeID(id))
			if dist[e.B] > dist[e.A]+e.Weight+1e-12 {
				return false
			}
			if dist[e.A] > dist[e.B]+e.Weight+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLadderShortestVsRails(t *testing.T) {
	g, src, dst := ladderGraph(t, 5, 1, 0.1)
	p, ok := g.ShortestPath(src, dst)
	if !ok {
		t.Fatal("ladder unreachable")
	}
	// Straight rail: 6 edges of weight 1.
	if p.Weight != 6 {
		t.Errorf("ladder shortest = %v, want 6", p.Weight)
	}
}
