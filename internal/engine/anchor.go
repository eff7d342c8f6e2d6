// Anchor re-keying: the engine frames "rebuild licensee X as of date
// D" around the corpus's temporal event log (uls.EventLog). The active
// license set only changes when an event fires, so every date between
// two consecutive events shares one snapshot — requests are re-keyed
// from their literal date to their anchor (the date of the last event
// ≤ D), and a miss rebuilds from the active set at its anchor, the same
// reconstruction core.DirectProvider runs. Dense sweeps
// (Evolution over a daily grid) therefore cost one rebuild per
// distinct anchor, not one per date.
package engine

import (
	"context"
	"sort"

	"hftnetview/internal/core"
	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
)

// canonNames sorts and deduplicates a licensee list — the canonical
// form of a union label (appendFamily canonicalizes keys the same way,
// without allocating).
func canonNames(licensees []string) []string {
	names := append([]string(nil), licensees...)
	sort.Strings(names)
	dedup := names[:0]
	for i, n := range names {
		if i == 0 || names[i-1] != n {
			dedup = append(dedup, n)
		}
	}
	return dedup
}

// rekey maps a request's date to its anchor — the last event date ≤ the
// requested date in the licensee set's merged stream. All dates
// between two events collapse onto one memo key; the network handed
// back to the caller carries the literal requested date.
func (e *Engine) rekey(req core.SnapshotRequest) (core.SnapshotRequest, bool) {
	anchor := anchorOf(e.db.EventLog(), req.Licensees, req.Date)
	if anchor == req.Date {
		return req, false
	}
	req.Date = anchor
	return req, true
}

// anchorOf is the merged-stream anchor: the max of the per-licensee
// anchors (an empty list or a "" entry selects the whole database).
func anchorOf(log *uls.EventLog, licensees []string, d uls.Date) uls.Date {
	if len(licensees) == 0 {
		return log.AnchorDate("", d)
	}
	var best uls.Date
	for _, name := range licensees {
		a := log.AnchorDate(name, d)
		if name == "" {
			return a
		}
		if best.IsZero() || (!a.IsZero() && best.Before(a)) {
			best = a
		}
	}
	return best
}

// EvolutionSweep resolves a longitudinal sweep anchor by anchor: the
// dates collapse onto their distinct anchors, the anchors' snapshots
// are resolved as one batch and each end-to-end route is computed
// once, and per-date license counts come from the log's prefix sums.
// It implements core.EvolutionSweeper, so core.EvolutionVia over the
// engine takes this path automatically.
func (e *Engine) EvolutionSweep(licensee string, path sites.Path, dates []uls.Date, opts core.Options) ([]core.EvolutionPoint, error) {
	return e.EvolutionSweepContext(context.Background(), licensee, path, dates, opts)
}

// EvolutionSweepContext is EvolutionSweep with a caller deadline
// bounding the anchor batch (the serving tier's per-request context).
// Cold anchors rebuild in parallel, under the worker semaphore.
func (e *Engine) EvolutionSweepContext(ctx context.Context, licensee string, path sites.Path, dates []uls.Date, opts core.Options) ([]core.EvolutionPoint, error) {
	log := e.db.EventLog()
	dcs := []sites.DataCenter{path.From, path.To}

	type group struct {
		anchor uls.Date
		idxs   []int
	}
	byAnchor := make(map[uls.Date]*group)
	var order []*group
	for i, d := range dates {
		a := anchorOf(log, []string{licensee}, d)
		g, ok := byAnchor[a]
		if !ok {
			g = &group{anchor: a}
			byAnchor[a] = g
			order = append(order, g)
		}
		g.idxs = append(g.idxs, i)
	}

	reqs := make([]core.SnapshotRequest, len(order))
	for k, g := range order {
		reqs[k] = core.SnapshotRequest{
			Licensees: []string{licensee},
			Date:      g.anchor,
			DCs:       dcs,
			Opts:      opts,
		}
	}
	nets, err := e.SnapshotsContext(ctx, reqs)
	if err != nil {
		return nil, err
	}

	out := make([]core.EvolutionPoint, len(dates))
	for k, g := range order {
		r, connected := nets[k].BestRoute(path)
		for _, i := range g.idxs {
			pt := core.EvolutionPoint{
				Date:           dates[i],
				ActiveLicenses: log.ActiveCount(licensee, dates[i]),
			}
			if connected {
				pt.Connected = true
				pt.Latency = r.Latency
			}
			out[i] = pt
		}
	}
	return out, nil
}
