package graph

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

func TestPathsWithinDiamond(t *testing.T) {
	// src -1- m1 -1- dst  and  src -2- m2 -2- dst, plus m1 -0.5- m2.
	g := New()
	src, dst := g.AddNode(), g.AddNode()
	m1, m2 := g.AddNode(), g.AddNode()
	g.AddEdge(src, m1, 1)
	g.AddEdge(m1, dst, 1)
	g.AddEdge(src, m2, 2)
	g.AddEdge(m2, dst, 2)
	g.AddEdge(m1, m2, 0.5)

	paths, trunc := g.PathsWithin(src, dst, EnumerateOptions{Bound: 4})
	if trunc {
		t.Fatal("unexpected truncation")
	}
	// Within 4: s-m1-d (2), s-m1-m2-d (3.5), s-m2-d (4), s-m2-m1-d (3.5).
	if len(paths) != 4 {
		t.Fatalf("paths = %d, want 4; got %+v", len(paths), paths)
	}
	for _, p := range paths {
		if p.Weight > 4 {
			t.Errorf("path exceeds bound: %+v", p)
		}
		seen := map[NodeID]bool{}
		for _, n := range p.Nodes {
			if seen[n] {
				t.Errorf("path revisits node: %+v", p)
			}
			seen[n] = true
		}
	}

	paths, _ = g.PathsWithin(src, dst, EnumerateOptions{Bound: 2})
	if len(paths) != 1 || paths[0].Weight != 2 {
		t.Errorf("bound 2: %d paths, want only the shortest", len(paths))
	}

	paths, _ = g.PathsWithin(src, dst, EnumerateOptions{Bound: 1})
	if len(paths) != 0 {
		t.Errorf("bound below shortest: got %d paths", len(paths))
	}
}

func TestPathsWithinUnreachable(t *testing.T) {
	g := New()
	a, b := g.AddNode(), g.AddNode()
	paths, trunc := g.PathsWithin(a, b, EnumerateOptions{Bound: 100})
	if len(paths) != 0 || trunc {
		t.Errorf("unreachable: %d paths, trunc=%v", len(paths), trunc)
	}
}

func TestPathsWithinTruncation(t *testing.T) {
	// A ladder has exponentially many simple paths; cap at 5.
	g, src, dst := ladderGraph(t, 8, 1, 0.1)
	paths, trunc := g.PathsWithin(src, dst, EnumerateOptions{Bound: 100, MaxPaths: 5})
	if !trunc {
		t.Error("want truncation with MaxPaths=5")
	}
	if len(paths) != 5 {
		t.Errorf("paths = %d, want 5", len(paths))
	}
}

func TestPathsWithinPruningEquivalence(t *testing.T) {
	// Pruned and unpruned enumeration must agree on the path *set*.
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 10; trial++ {
		g := New()
		n := 12
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.AddNode()
		}
		for e := 0; e < 25; e++ {
			a, b := ids[rng.IntN(n)], ids[rng.IntN(n)]
			if a == b {
				continue
			}
			g.AddEdge(a, b, 1+rng.Float64()*3)
		}
		src, dst := ids[0], ids[n-1]
		sp, ok := g.ShortestPath(src, dst)
		if !ok {
			continue
		}
		bound := sp.Weight * 1.5
		p1, t1 := g.PathsWithin(src, dst, EnumerateOptions{Bound: bound})
		p2, t2 := g.PathsWithin(src, dst, EnumerateOptions{Bound: bound, DisablePruning: true})
		if t1 || t2 {
			continue
		}
		if len(p1) != len(p2) {
			t.Fatalf("trial %d: pruned=%d unpruned=%d paths", trial, len(p1), len(p2))
		}
		key := func(p Path) string { return fmt.Sprint(p.Nodes) }
		set := map[string]bool{}
		for _, p := range p1 {
			set[key(p)] = true
		}
		for _, p := range p2 {
			if !set[key(p)] {
				t.Fatalf("trial %d: unpruned found path missing from pruned: %v", trial, p.Nodes)
			}
		}
	}
}

func TestEdgeRemovalChainHasZeroAPA(t *testing.T) {
	g, ids := lineGraph(t, 10)
	src, dst := ids[0], ids[10]
	if apa := g.APA(src, dst, 100); apa != 0 {
		t.Errorf("chain APA = %v, want 0", apa)
	}
	res := g.EdgeRemovalAnalysis(src, dst, 100, nil)
	for _, r := range res {
		if r.WithinBound || !math.IsInf(r.Latency, 1) {
			t.Errorf("chain edge %d: %+v, want disconnected", r.Edge, r)
		}
	}
}

func TestEdgeRemovalLadderHasHighAPA(t *testing.T) {
	// Cheap rungs: removing any single rail edge leaves a detour through
	// the other rail at small extra cost.
	g, src, dst := ladderGraph(t, 6, 1, 0.05)
	sp, _ := g.ShortestPath(src, dst)
	apa := g.APA(src, dst, sp.Weight*1.6)
	if apa != 1 {
		t.Errorf("ladder APA = %v, want 1 (every edge has an alternate)", apa)
	}
}

func TestEdgeRemovalAsymmetricLadderTightBound(t *testing.T) {
	// Rail A is the fast rail; rail B is 20% slower. Under a tight bound,
	// removing a fast-rail edge forces a detour that violates the bound,
	// so tight-bound APA is strictly below loose-bound APA.
	g := New()
	src, dst := g.AddNode(), g.AddNode()
	k := 5
	as := make([]NodeID, k)
	bs := make([]NodeID, k)
	for i := 0; i < k; i++ {
		as[i] = g.AddNode()
		bs[i] = g.AddNode()
	}
	g.AddEdge(src, as[0], 1)
	g.AddEdge(src, bs[0], 1.2)
	for i := 0; i < k-1; i++ {
		g.AddEdge(as[i], as[i+1], 1)
		g.AddEdge(bs[i], bs[i+1], 1.2)
	}
	for i := 0; i < k; i++ {
		g.AddEdge(as[i], bs[i], 0.05)
	}
	g.AddEdge(as[k-1], dst, 1)
	g.AddEdge(bs[k-1], dst, 1.2)

	sp, ok := g.ShortestPath(src, dst)
	if !ok || sp.Weight != 6 {
		t.Fatalf("shortest = %+v, want weight 6 on fast rail", sp)
	}
	loose := g.APA(src, dst, sp.Weight*1.6)
	tight := g.APA(src, dst, sp.Weight*1.01)
	if loose != 1 {
		t.Errorf("loose APA = %v, want 1", loose)
	}
	if tight >= loose {
		t.Errorf("tight-bound APA %v should be < loose-bound APA %v", tight, loose)
	}
}

func TestEdgeRemovalFastMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 3))
	for trial := 0; trial < 20; trial++ {
		g := New()
		n := 15
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.AddNode()
		}
		for e := 0; e < 35; e++ {
			a, b := ids[rng.IntN(n)], ids[rng.IntN(n)]
			if a == b {
				continue
			}
			g.AddEdge(a, b, 0.5+rng.Float64()*2)
		}
		src, dst := ids[0], ids[n-1]
		sp, ok := g.ShortestPath(src, dst)
		if !ok {
			continue
		}
		bound := sp.Weight * 1.3
		// Unmasked, and again with about a tenth of the edges excluded.
		mask := make(Mask, g.NumEdges())
		for i := range mask {
			mask[i] = rng.IntN(10) == 0
		}
		for _, excluded := range []Mask{nil, mask} {
			slow := g.EdgeRemovalAnalysis(src, dst, bound, excluded)
			fast := g.EdgeRemovalAnalysisFast(src, dst, bound, excluded)
			if len(slow) != len(fast) {
				t.Fatalf("trial %d: result lengths differ", trial)
			}
			for i := range slow {
				if slow[i].Edge != fast[i].Edge || slow[i].WithinBound != fast[i].WithinBound {
					t.Fatalf("trial %d edge %d: slow=%+v fast=%+v",
						trial, slow[i].Edge, slow[i], fast[i])
				}
			}
		}
	}
}

// TestEdgeRemovalRestoresState: the removal analyses knock edges out in
// a private mask, leaving the caller's mask untouched.
func TestEdgeRemovalRestoresState(t *testing.T) {
	g, ids := lineGraph(t, 5)
	g.AddEdge(ids[0], ids[5], 20)
	mask := make(Mask, g.NumEdges())
	mask[2] = true
	pre := append(Mask(nil), mask...)
	g.EdgeRemovalAnalysis(ids[0], ids[5], 100, mask)
	g.EdgeRemovalAnalysisFast(ids[0], ids[5], 100, mask)
	for i := range pre {
		if mask[i] != pre[i] {
			t.Errorf("edge %d exclusion state mutated", i)
		}
	}
}

func TestEdgeRemovalSkipsDisabled(t *testing.T) {
	g, ids := lineGraph(t, 3)
	extra, _ := g.AddEdge(ids[0], ids[3], 10)
	mask := make(Mask, g.NumEdges())
	mask[extra] = true
	res := g.EdgeRemovalAnalysis(ids[0], ids[3], 100, mask)
	if len(res) != 3 {
		t.Errorf("results = %d, want 3 (excluded edge skipped)", len(res))
	}
	for _, r := range res {
		if r.WithinBound {
			t.Errorf("edge %d: %+v, want disconnected (excluded bypass must stay out)", r.Edge, r)
		}
	}
}

func TestAPAUnreachableBaseline(t *testing.T) {
	g := New()
	a, b := g.AddNode(), g.AddNode()
	c := g.AddNode()
	g.AddEdge(a, c, 1) // b unreachable
	if apa := g.APA(a, b, 100); apa != 0 {
		t.Errorf("APA with unreachable dst = %v, want 0", apa)
	}
}
