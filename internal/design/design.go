// Package design builds low-latency microwave networks from candidate
// tower sites under a budget — the cISP-style network design problem the
// paper relates to (§7), steered by its §6 lessons:
//
//   - engineer towards high APA using redundant links close to the
//     shortest path;
//   - longer links are cheaper (fewer towers) but less reliable;
//   - run the shortest path at high-capacity bands and the alternates at
//     lower, rain-robust frequencies.
//
// The designer works in two phases: a dynamic-programming pass picks the
// minimum-latency feasible chain between the endpoints, then the
// remaining budget buys redundancy links greedily by APA gain per
// dollar.
package design

import (
	"fmt"
	"math"
	"sort"

	"hftnetview/internal/geo"
	"hftnetview/internal/graph"
	"hftnetview/internal/units"
)

// Site is a candidate tower location.
type Site struct {
	Point geo.Point
	// TowerCost is the cost of acquiring/building the site.
	TowerCost float64
}

// CostModel prices a build.
type CostModel struct {
	// LinkCostPerKM prices radio links by length (antennas, licensing).
	LinkCostPerKM float64
	// MaxLinkKM is the longest link the radios support (the paper's
	// §2.2 screen uses 100 km as "too inefficient").
	MaxLinkKM float64
}

// DefaultCostModel prices towers at 1.0 and links at 0.02/km with the
// paper's 100 km ceiling; budgets are in the same arbitrary units.
func DefaultCostModel() CostModel {
	return CostModel{LinkCostPerKM: 0.02, MaxLinkKM: 100}
}

// Link is a designed hop.
type Link struct {
	From, To int // Site indices
	LengthM  float64
	// Alternate marks redundancy links (assigned to the low band per
	// §6's frequency lesson).
	Alternate bool
}

// Network is a designed build.
type Network struct {
	Sites []Site
	Links []Link
	// Chain is the site-index sequence of the primary path.
	Chain []int
	// Cost is the total spent (towers + links).
	Cost float64
	// Latency is the end-to-end one-way latency of the primary path,
	// endpoints included.
	Latency units.Latency
}

// Problem is one design instance.
type Problem struct {
	// Src and Dst index the endpoint sites within Candidates (they must
	// be part of the build).
	Src, Dst   int
	Candidates []Site
	Cost       CostModel
	Budget     float64
	// StretchBound is the APA latency budget relative to the c-latency
	// of the src–dst geodesic (the paper's 1.05).
	StretchBound float64
}

// Design solves the problem: a minimum-latency chain first, redundancy
// with the leftover budget. It errors when even the cheapest feasible
// chain exceeds the budget or no feasible chain exists.
func Design(p Problem) (*Network, error) {
	if p.Src == p.Dst || p.Src < 0 || p.Dst < 0 ||
		p.Src >= len(p.Candidates) || p.Dst >= len(p.Candidates) {
		return nil, fmt.Errorf("design: invalid endpoints %d, %d", p.Src, p.Dst)
	}
	if p.StretchBound <= 1 {
		p.StretchBound = 1.05
	}
	chain, err := bestChain(p)
	if err != nil {
		return nil, err
	}
	n := &Network{Sites: p.Candidates, Chain: chain}
	used := make(map[int]bool)
	for _, s := range chain {
		used[s] = true
		n.Cost += p.Candidates[s].TowerCost
	}
	var pathLen float64
	for i := 0; i+1 < len(chain); i++ {
		d := geo.Distance(p.Candidates[chain[i]].Point, p.Candidates[chain[i+1]].Point)
		pathLen += d
		n.Cost += d / 1000 * p.Cost.LinkCostPerKM
		n.Links = append(n.Links, Link{From: chain[i], To: chain[i+1], LengthM: d})
	}
	n.Latency = units.MicrowaveLatency(pathLen)
	if n.Cost > p.Budget {
		return nil, fmt.Errorf("design: cheapest chain costs %.2f, budget %.2f",
			n.Cost, p.Budget)
	}
	addRedundancy(p, n, used)
	return n, nil
}

// bestChain finds the minimum-latency src→dst chain over candidate
// sites with all links within MaxLinkKM, via Dijkstra on the feasibility
// graph. (Latency and link cost are both monotone in length, so the
// shortest-length chain is also the cheapest-link chain for its hop
// count; tower costs are handled by the budget check.)
func bestChain(p Problem) ([]int, error) {
	g := graph.New()
	ids := make([]graph.NodeID, len(p.Candidates))
	for i := range p.Candidates {
		ids[i] = g.AddNode()
	}
	maxM := p.Cost.MaxLinkKM * 1000
	for i := 0; i < len(p.Candidates); i++ {
		for j := i + 1; j < len(p.Candidates); j++ {
			d := geo.Distance(p.Candidates[i].Point, p.Candidates[j].Point)
			if d <= maxM {
				if _, err := g.AddEdge(ids[i], ids[j], d); err != nil {
					return nil, err
				}
			}
		}
	}
	path, ok := g.ShortestPath(ids[p.Src], ids[p.Dst])
	if !ok {
		return nil, fmt.Errorf("design: no feasible chain within %.0f km links",
			p.Cost.MaxLinkKM)
	}
	chain := make([]int, len(path.Nodes))
	for i, node := range path.Nodes {
		chain[i] = int(node)
	}
	return chain, nil
}

// addRedundancy spends the remaining budget on alternate links between
// non-adjacent chain towers (and unused nearby sites), picked greedily
// by APA gain per unit cost.
func addRedundancy(p Problem, n *Network, used map[int]bool) {
	type candidate struct {
		from, to int
		lengthM  float64
		cost     float64
	}
	var cands []candidate
	maxM := p.Cost.MaxLinkKM * 1000
	onChain := make(map[int]int) // site -> chain position
	for pos, s := range n.Chain {
		onChain[s] = pos
	}
	// Bypass links: chain[i] -> chain[i+2] (skip one tower), plus
	// detours through unused sites adjacent to the chain.
	for i := 0; i+2 < len(n.Chain); i++ {
		a, b := n.Chain[i], n.Chain[i+2]
		d := geo.Distance(p.Candidates[a].Point, p.Candidates[b].Point)
		if d <= maxM {
			cands = append(cands, candidate{a, b, d, d / 1000 * p.Cost.LinkCostPerKM})
		}
	}
	for s := range p.Candidates {
		if used[s] {
			continue
		}
		// A parallel relay: connect an unused site to two chain towers
		// it can see, forming a bypass of the span between them.
		var reach []int
		for _, c := range n.Chain {
			if geo.Distance(p.Candidates[s].Point, p.Candidates[c].Point) <= maxM {
				reach = append(reach, c)
			}
		}
		if len(reach) < 2 {
			continue
		}
		// Use the widest span this relay can bypass.
		sort.Slice(reach, func(i, j int) bool { return onChain[reach[i]] < onChain[reach[j]] })
		a, b := reach[0], reach[len(reach)-1]
		if onChain[b]-onChain[a] < 2 {
			continue
		}
		da := geo.Distance(p.Candidates[s].Point, p.Candidates[a].Point)
		db := geo.Distance(p.Candidates[s].Point, p.Candidates[b].Point)
		cost := p.Candidates[s].TowerCost + (da+db)/1000*p.Cost.LinkCostPerKM
		cands = append(cands, candidate{from: -s - 1, to: 0, lengthM: da + db, cost: cost})
		_ = b
	}
	// Greedy: cheapest redundancy first (APA gain per candidate is
	// roughly uniform — each bypass makes one more chain span failable —
	// so cost ordering maximizes count, and count drives APA).
	sort.Slice(cands, func(i, j int) bool { return cands[i].cost < cands[j].cost })
	for _, c := range cands {
		if n.Cost+c.cost > p.Budget {
			continue
		}
		if c.from < 0 {
			// Relay through unused site (-from-1): rebuild its two legs.
			s := -c.from - 1
			var reach []int
			for _, ch := range n.Chain {
				if geo.Distance(p.Candidates[s].Point, p.Candidates[ch].Point) <= maxM {
					reach = append(reach, ch)
				}
			}
			sort.Slice(reach, func(i, j int) bool { return onChain[reach[i]] < onChain[reach[j]] })
			a, b := reach[0], reach[len(reach)-1]
			used[s] = true
			n.Links = append(n.Links,
				Link{From: a, To: s, Alternate: true,
					LengthM: geo.Distance(p.Candidates[a].Point, p.Candidates[s].Point)},
				Link{From: s, To: b, Alternate: true,
					LengthM: geo.Distance(p.Candidates[s].Point, p.Candidates[b].Point)})
		} else {
			n.Links = append(n.Links, Link{From: c.from, To: c.to,
				LengthM: c.lengthM, Alternate: true})
		}
		n.Cost += c.cost
	}
}

// Incremental solves the problem at each budget of an ascending
// schedule — the paper's §7 note that "our longitudinal analysis may
// also help with considerations of incremental deployment". Because the
// chain is budget-independent and redundancy is bought greedily in a
// fixed cost order, each stage's build is a strict superset of the
// previous stage: nothing ever has to be torn down, matching how the
// real networks grew (§4).
func Incremental(p Problem, budgets []float64) ([]*Network, error) {
	if len(budgets) == 0 {
		return nil, fmt.Errorf("design: empty budget schedule")
	}
	var out []*Network
	prev := -math.MaxFloat64
	for _, b := range budgets {
		if b < prev {
			return nil, fmt.Errorf("design: budget schedule must be ascending")
		}
		prev = b
		stage := p
		stage.Budget = b
		n, err := Design(stage)
		if err != nil {
			return nil, fmt.Errorf("design: budget %v: %w", b, err)
		}
		out = append(out, n)
	}
	return out, nil
}

// APA evaluates the designed network exactly as the paper evaluates real
// ones: the fraction of links whose removal keeps src–dst latency within
// stretchBound × the c-latency of the geodesic.
func (n *Network) APA(src, dst int, stretchBound float64) float64 {
	g := graph.New()
	ids := make(map[int]graph.NodeID)
	ensure := func(s int) graph.NodeID {
		if id, ok := ids[s]; ok {
			return id
		}
		id := g.AddNode()
		ids[s] = id
		return id
	}
	for _, l := range n.Links {
		a, b := ensure(l.From), ensure(l.To)
		if _, err := g.AddEdge(a, b, units.MicrowaveLatency(l.LengthM).Seconds()); err != nil {
			return math.NaN()
		}
	}
	s, okS := ids[src]
	t, okT := ids[dst]
	if !okS || !okT {
		return 0
	}
	geodesic := geo.Distance(n.Sites[src].Point, n.Sites[dst].Point)
	bound := stretchBound * units.CLatency(geodesic).Seconds()
	return g.APA(s, t, bound)
}
