package core

import (
	"hftnetview/internal/sites"
)

// DiverseRoutes returns up to k loop-free end-to-end routes in
// increasing latency order (Yen's algorithm over the reconstruction
// graph) — the concrete alternate routes behind a network's APA number.
// A pure chain yields exactly one route; Webline's braid yields many
// within microseconds of each other.
func (n *Network) DiverseRoutes(path sites.Path, k int) []Route {
	src, dst, ok := n.endpoints(path)
	if !ok {
		return nil
	}
	paths := n.g.KShortestPaths(src, dst, k)
	out := make([]Route, 0, len(paths))
	for _, p := range paths {
		out = append(out, n.routeFromPath(path, p))
	}
	return out
}
