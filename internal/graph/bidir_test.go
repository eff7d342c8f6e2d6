package graph

import (
	"math"
	"math/rand/v2"
	"testing"
)

func TestBidirectionalMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	for trial := 0; trial < 40; trial++ {
		g := New()
		n := 40
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.AddNode()
		}
		for e := 0; e < 100; e++ {
			a, b := ids[rng.IntN(n)], ids[rng.IntN(n)]
			if a == b {
				continue
			}
			g.AddEdge(a, b, 0.2+rng.Float64()*5)
		}
		src, dst := ids[rng.IntN(n)], ids[rng.IntN(n)]
		p1, ok1 := g.ShortestPath(src, dst)
		p2, ok2 := g.ShortestPathBidirectional(src, dst, nil)
		if ok1 != ok2 {
			t.Fatalf("trial %d: reachability differs (%v vs %v)", trial, ok1, ok2)
		}
		if !ok1 {
			continue
		}
		if math.Abs(p1.Weight-p2.Weight) > 1e-9 {
			t.Fatalf("trial %d: weights differ: %v vs %v", trial, p1.Weight, p2.Weight)
		}
		// The returned path must actually have its claimed weight.
		var sum float64
		for _, eid := range p2.Edges {
			sum += g.Edge(eid).Weight
		}
		if math.Abs(sum-p2.Weight) > 1e-9 {
			t.Fatalf("trial %d: path edges sum %v, claimed %v", trial, sum, p2.Weight)
		}
		// And be a connected walk src→dst.
		if p2.Nodes[0] != src || p2.Nodes[len(p2.Nodes)-1] != dst {
			t.Fatalf("trial %d: endpoints wrong", trial)
		}
		for i, eid := range p2.Edges {
			e := g.Edge(eid)
			u, v := p2.Nodes[i], p2.Nodes[i+1]
			if !((e.A == u && e.B == v) || (e.A == v && e.B == u)) {
				t.Fatalf("trial %d: edge %d does not connect consecutive nodes", trial, i)
			}
		}
	}
}

func TestBidirectionalEdgeCases(t *testing.T) {
	g := New()
	a, b := g.AddNode(), g.AddNode()
	g.AddNode()

	if p, ok := g.ShortestPathBidirectional(a, a, nil); !ok || p.Weight != 0 {
		t.Errorf("self path = %+v, %v", p, ok)
	}
	if _, ok := g.ShortestPathBidirectional(a, b, nil); ok {
		t.Error("disconnected reported reachable")
	}
	g.AddEdge(a, b, 2)
	p, ok := g.ShortestPathBidirectional(a, b, nil)
	if !ok || p.Weight != 2 || p.Len() != 1 {
		t.Errorf("single edge path = %+v, %v", p, ok)
	}
}

func TestBidirectionalRespectsDisabled(t *testing.T) {
	g := New()
	a, b, c := g.AddNode(), g.AddNode(), g.AddNode()
	direct, _ := g.AddEdge(a, c, 1)
	g.AddEdge(a, b, 2)
	g.AddEdge(b, c, 2)
	mask := make(Mask, g.NumEdges())
	mask[direct] = true
	p, ok := g.ShortestPathBidirectional(a, c, mask)
	if !ok || p.Weight != 4 {
		t.Errorf("with direct excluded: %+v", p)
	}
}
