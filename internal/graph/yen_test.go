package graph

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
)

func TestKShortestDiamond(t *testing.T) {
	g := New()
	s, d := g.AddNode(), g.AddNode()
	m1, m2 := g.AddNode(), g.AddNode()
	g.AddEdge(s, m1, 1)
	g.AddEdge(m1, d, 1) // s-m1-d = 2
	g.AddEdge(s, m2, 2)
	g.AddEdge(m2, d, 2)    // s-m2-d = 4
	g.AddEdge(m1, m2, 0.5) // s-m1-m2-d = 3.5 and s-m2-m1-d = 3.5

	paths := g.KShortestPaths(s, d, 10)
	if len(paths) != 4 {
		t.Fatalf("paths = %d, want 4", len(paths))
	}
	wantWeights := []float64{2, 3.5, 3.5, 4}
	for i, p := range paths {
		if math.Abs(p.Weight-wantWeights[i]) > 1e-12 {
			t.Errorf("path %d weight = %v, want %v", i, p.Weight, wantWeights[i])
		}
		// Simple paths only.
		seen := map[NodeID]bool{}
		for _, n := range p.Nodes {
			if seen[n] {
				t.Errorf("path %d revisits node %d", i, n)
			}
			seen[n] = true
		}
	}
	// First result equals ShortestPath.
	sp, _ := g.ShortestPath(s, d)
	if paths[0].Weight != sp.Weight {
		t.Errorf("first path %v != shortest %v", paths[0].Weight, sp.Weight)
	}
}

func TestKShortestK1AndUnreachable(t *testing.T) {
	g := New()
	a, b := g.AddNode(), g.AddNode()
	lone := g.AddNode()
	g.AddEdge(a, b, 1)
	if paths := g.KShortestPaths(a, b, 1); len(paths) != 1 {
		t.Errorf("k=1 paths = %d", len(paths))
	}
	if paths := g.KShortestPaths(a, b, 0); paths != nil {
		t.Errorf("k=0 should be nil")
	}
	if paths := g.KShortestPaths(a, lone, 3); paths != nil {
		t.Errorf("unreachable should be nil, got %d", len(paths))
	}
}

// TestKShortestRestoresGraph: Yen's spur searches exclude edges through
// a private mask, so concurrent searches over one graph (run under
// -race) all see the graph as built and agree with a sequential run.
func TestKShortestRestoresGraph(t *testing.T) {
	g, src, dst := ladderGraph(t, 4, 1, 0.2)
	want := g.KShortestPaths(src, dst, 5)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := g.KShortestPaths(src, dst, 5); !reflect.DeepEqual(got, want) {
				t.Errorf("concurrent search diverged: %d paths vs %d", len(got), len(want))
			}
		}()
	}
	wg.Wait()
	if sp, _ := g.ShortestPath(src, dst); sp.Weight != want[0].Weight {
		t.Errorf("shortest path after searches = %v, want %v", sp.Weight, want[0].Weight)
	}
}

func TestKShortestMatchesEnumeration(t *testing.T) {
	// On random graphs, Yen's top-k must equal the k best simple paths
	// found by exhaustive bounded enumeration.
	rng := rand.New(rand.NewPCG(21, 4))
	for trial := 0; trial < 10; trial++ {
		g := New()
		n := 9
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.AddNode()
		}
		for e := 0; e < 16; e++ {
			a, b := ids[rng.IntN(n)], ids[rng.IntN(n)]
			if a == b {
				continue
			}
			g.AddEdge(a, b, 0.5+rng.Float64()*3)
		}
		src, dst := ids[0], ids[n-1]
		all, trunc := g.PathsWithin(src, dst, EnumerateOptions{Bound: math.Inf(1)})
		if trunc || len(all) == 0 {
			continue
		}
		// Sort enumerated paths by weight.
		weights := make([]float64, len(all))
		for i, p := range all {
			weights[i] = p.Weight
		}
		sortFloats(weights)

		k := 4
		if k > len(all) {
			k = len(all)
		}
		paths := g.KShortestPaths(src, dst, k)
		if len(paths) != k {
			t.Fatalf("trial %d: got %d paths, want %d", trial, len(paths), k)
		}
		for i := 0; i < k; i++ {
			if math.Abs(paths[i].Weight-weights[i]) > 1e-9 {
				t.Fatalf("trial %d: path %d weight %v, enumeration says %v",
					trial, i, paths[i].Weight, weights[i])
			}
		}
	}
}

func TestKShortestSortedAndUnique(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 5))
	for trial := 0; trial < 20; trial++ {
		g := New()
		n := 25
		ids := make([]NodeID, n)
		for i := range ids {
			ids[i] = g.AddNode()
		}
		for e := 0; e < 60; e++ {
			a, b := ids[rng.IntN(n)], ids[rng.IntN(n)]
			if a == b {
				continue
			}
			g.AddEdge(a, b, 0.5+rng.Float64()*4)
		}
		paths := g.KShortestPaths(ids[0], ids[n-1], 8)
		seen := map[string]bool{}
		for i, p := range paths {
			if i > 0 && p.Weight < paths[i-1].Weight-1e-12 {
				t.Fatalf("trial %d: weights not sorted at %d", trial, i)
			}
			k := pathKey(p)
			if seen[k] {
				t.Fatalf("trial %d: duplicate path at %d", trial, i)
			}
			seen[k] = true
			// Simplicity.
			nodes := map[NodeID]bool{}
			for _, nd := range p.Nodes {
				if nodes[nd] {
					t.Fatalf("trial %d: path %d revisits a node", trial, i)
				}
				nodes[nd] = true
			}
		}
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
