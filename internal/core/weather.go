package core

import (
	"hftnetview/internal/graph"
	"hftnetview/internal/radio"
	"hftnetview/internal/sites"
)

// The paper speculates (§5) that a network like Webline Holdings, slower
// in fair weather, "may be faster at other times" thanks to shorter
// links, lower frequencies and more alternate paths. This file makes
// that testable: knock out links a storm would fade and re-run the
// lowest-latency route.

// StormImpact is the outcome of a weather scenario on one network path.
type StormImpact struct {
	// LinksDown is the number of microwave links faded out.
	LinksDown int
	// Connected reports whether an end-to-end route survived.
	Connected bool
	// Route is the surviving lowest-latency route (valid only when
	// Connected).
	Route Route
	// FairWeather is the no-storm route for comparison.
	FairWeather Route
}

// linkFrequencyGHz picks the carrier used for fade evaluation: the
// link's lowest assigned channel, since an operator rides out a fade on
// the most rain-robust channel available.
func linkFrequencyGHz(l Link) float64 {
	if len(l.FrequenciesMHz) == 0 {
		return 11 // conservative default for unlicensed test fixtures
	}
	min := l.FrequenciesMHz[0]
	for _, f := range l.FrequenciesMHz[1:] {
		if f < min {
			min = f
		}
	}
	return min / 1000
}

// RouteUnderStorm finds the best route for the path once every
// microwave link whose rain attenuation under the storm exceeds marginDB
// is down (fiber tails are weatherproof). The faded links are excluded
// through a private mask; the network itself is not modified.
func (n *Network) RouteUnderStorm(path sites.Path, storm radio.Storm, marginDB float64) (StormImpact, error) {
	impact := StormImpact{}
	if fair, ok := n.BestRoute(path); ok {
		impact.FairWeather = fair
	}
	down := make(graph.Mask, n.g.NumEdges())
	for li, l := range n.Links {
		a := n.Towers[l.From].Point
		b := n.Towers[l.To].Point
		if storm.LinkDownUnderStorm(a, b, linkFrequencyGHz(l), marginDB) {
			down[li] = true
			impact.LinksDown++
		}
	}
	if r, ok := n.route(path, down); ok {
		impact.Connected = true
		impact.Route = r
	}
	return impact, nil
}
