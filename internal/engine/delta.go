// Delta snapshot path: the engine reframes "rebuild licensee X as of
// date D" around the corpus's temporal event log (uls.EventLog). The
// active license set only changes when an event fires, so every date
// between two consecutive events shares one snapshot — requests are
// re-keyed from their literal date to their anchor (the date of the
// last event ≤ D), and a rebuild replays the log from the nearest
// rolling cursor or keyframe instead of re-running the date-interval
// stabbing query. Monotone sweeps (Evolution over an ascending date
// grid) therefore cost one linear pass over the log; keyframes bound
// the rewind cost of out-of-order dates and are exportable for warm
// boot (see internal/store keyframe persistence).
package engine

import (
	"context"
	"sort"
	"strings"
	"sync"

	"hftnetview/internal/core"
	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
)

// track is the rolling replay state for one (licensee set, DC set,
// options) family of snapshots: its merged event stream, a cursor with
// the active set after the events applied so far, and keyframes — the
// active set captured at multiples of the keyframe interval while the
// cursor rolled forward. One track serves every date requested for the
// family; the memo store above it absorbs repeats, so a track only
// sees distinct anchors.
type track struct {
	label string
	dcs   []sites.DataCenter
	opts  core.Options

	mu        sync.Mutex
	events    []uls.Event
	cursor    int                     // events applied into active
	active    map[string]*uls.License // call sign -> license, after cursor events
	keyframes map[int][]*uls.License  // event index -> active set at that index
}

// deltaStats accumulates one rebuild's replay counters; fill folds
// them into the engine stats under the engine mutex.
type deltaStats struct {
	deltaBuilds, keyframeRestores, eventsReplayed, keyframesSaved int64
}

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

// trackFor returns (building if needed) the replay track for the
// request's (licensees, DCs, options) family.
func (e *Engine) trackFor(req core.SnapshotRequest) *track {
	key := string(appendFamily(nil, req))
	e.trackMu.Lock()
	defer e.trackMu.Unlock()
	if t, ok := e.tracks[key]; ok {
		return t
	}
	names := canonNames(req.Licensees)
	t := &track{
		label:     core.UnionLabel(names),
		dcs:       append([]sites.DataCenter(nil), req.DCs...),
		opts:      req.Opts,
		events:    e.db.EventLog().MergedEvents(names),
		active:    make(map[string]*uls.License),
		keyframes: make(map[int][]*uls.License),
	}
	e.tracks[key] = t
	return t
}

// flushTracks drops all replay state; called (under the engine mutex)
// when a database generation change flushes the memo store.
func (e *Engine) flushTracks() {
	e.trackMu.Lock()
	e.tracks = make(map[string]*track)
	e.trackMu.Unlock()
}

// snapshotActive copies the active set into a call-sign-sorted slice —
// the stable form kept in keyframes and handed to the stitcher.
func snapshotActive(active map[string]*uls.License) []*uls.License {
	out := make([]*uls.License, 0, len(active))
	for _, l := range active {
		out = append(out, l)
	}
	uls.SortLicenses(out)
	return out
}

// replayLocked advances (or rewinds) the track to the given event
// index and returns the active set there. Rolling forward applies
// events one by one, capturing a keyframe at every multiple of the
// interval it passes; a target behind the cursor restarts from the
// nearest keyframe at or before it (or from the empty set).
// t.mu must be held.
func (t *track) replayLocked(to, every int) (active []*uls.License, ds deltaStats) {
	ds.deltaBuilds = 1
	if t.cursor > to {
		base, baseIdx := []*uls.License(nil), 0
		for idx, set := range t.keyframes {
			if idx <= to && idx > baseIdx {
				base, baseIdx = set, idx
			}
		}
		t.active = make(map[string]*uls.License, len(base))
		for _, l := range base {
			t.active[l.CallSign] = l
		}
		t.cursor = baseIdx
		ds.keyframeRestores = 1
	}
	for t.cursor < to {
		ev := t.events[t.cursor]
		if ev.Kind.Activates() {
			t.active[ev.License.CallSign] = ev.License
		} else {
			delete(t.active, ev.License.CallSign)
		}
		t.cursor++
		ds.eventsReplayed++
		if every > 0 && t.cursor%every == 0 {
			if _, ok := t.keyframes[t.cursor]; !ok {
				t.keyframes[t.cursor] = snapshotActive(t.active)
				ds.keyframesSaved++
			}
		}
	}
	return snapshotActive(t.active), ds
}

// reconstructDelta is the engine's rebuild for a cache miss: resolve
// the request's track, replay the event log to the requested (anchor)
// date, and stitch the network from the replayed active set. Stitching
// sorts the materialized links by their unique (call sign, path
// number) identity, so the result is deep-equal to a full stab-query
// rebuild of the same date (core.DirectProvider, the equivalence
// suite's reference).
func (e *Engine) reconstructDelta(req core.SnapshotRequest) (*core.Network, deltaStats, error) {
	t := e.trackFor(req)
	t.mu.Lock()
	active, ds := t.replayLocked(uls.EventCursorAt(t.events, req.Date), e.keyframeEvery)
	t.mu.Unlock()
	n, err := core.ReconstructActive(active, t.label, req.Date, t.dcs, req.Opts)
	return n, ds, err
}

// EvolutionSweep resolves a longitudinal sweep as one linear pass over
// the event log: the dates collapse onto their distinct anchors,
// anchors resolve in ascending order (so the rolling cursor only moves
// forward — each anchor's snapshot is the previous one patched by the
// events between them), the end-to-end route is computed once per
// anchor, and per-date license counts come from the log's prefix sums.
// It implements core.EvolutionSweeper, so core.EvolutionVia over the
// engine takes this path automatically.
func (e *Engine) EvolutionSweep(licensee string, path sites.Path, dates []uls.Date, opts core.Options) ([]core.EvolutionPoint, error) {
	return e.EvolutionSweepContext(context.Background(), licensee, path, dates, opts)
}

// EvolutionSweepContext is EvolutionSweep with a caller deadline
// bounding each anchor snapshot (the serving tier's per-request
// context).
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
	sort.Slice(order, func(i, j int) bool { return order[i].anchor.Before(order[j].anchor) })

	out := make([]core.EvolutionPoint, len(dates))
	for _, g := range order {
		n, err := e.SnapshotContext(ctx, core.SnapshotRequest{
			Licensees: []string{licensee},
			Date:      g.anchor,
			DCs:       dcs,
			Opts:      opts,
		})
		if err != nil {
			return nil, err
		}
		r, connected := n.BestRoute(path)
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

// KeyframeExport is the engine's replay state in persistable form:
// per track, the keyframe active sets as call-sign lists. It is only
// meaningful against the exact corpus it was captured from — event
// indexes and call signs are positions in that corpus's event log —
// so it carries the corpus digest and importers must match it.
type KeyframeExport struct {
	CorpusSHA256     string          `json:"corpus_sha256"`
	KeyframeInterval int             `json:"keyframe_interval"`
	Tracks           []KeyframeTrack `json:"tracks,omitempty"`
}

// KeyframeTrack is one track's identity and captured keyframes.
type KeyframeTrack struct {
	Licensees []string           `json:"licensees,omitempty"`
	DCs       []sites.DataCenter `json:"dcs,omitempty"`
	Opts      core.Options       `json:"opts"`
	Keyframes []Keyframe         `json:"keyframes,omitempty"`
}

// Keyframe is one captured active set: the call signs in force after
// the first EventIndex events of the track's merged stream.
type Keyframe struct {
	EventIndex int      `json:"event_index"`
	CallSigns  []string `json:"call_signs,omitempty"`
}

// ExportKeyframes captures every track's keyframes for persistence.
// corpusSHA256 identifies the corpus the replay state was built
// against; ImportKeyframes on a different corpus must be refused by
// the caller (the store layer keys keyframe files to the generation's
// digest for exactly this reason).
func (e *Engine) ExportKeyframes(corpusSHA256 string) KeyframeExport {
	out := KeyframeExport{CorpusSHA256: corpusSHA256, KeyframeInterval: e.keyframeEvery}
	e.trackMu.Lock()
	type namedTrack struct {
		key string
		t   *track
	}
	tracks := make([]namedTrack, 0, len(e.tracks))
	for k, t := range e.tracks {
		tracks = append(tracks, namedTrack{key: k, t: t})
	}
	e.trackMu.Unlock()
	sort.Slice(tracks, func(i, j int) bool { return tracks[i].key < tracks[j].key })

	for _, nt := range tracks {
		t := nt.t
		parts := strings.SplitN(nt.key, "\x1e", 3)
		kt := KeyframeTrack{DCs: append([]sites.DataCenter(nil), t.dcs...)}
		if parts[0] != "" {
			kt.Licensees = strings.Split(parts[0], "\x1f")
		}
		t.mu.Lock()
		idxs := make([]int, 0, len(t.keyframes))
		for idx := range t.keyframes {
			idxs = append(idxs, idx)
		}
		sort.Ints(idxs)
		for _, idx := range idxs {
			kf := Keyframe{EventIndex: idx}
			for _, l := range t.keyframes[idx] {
				kf.CallSigns = append(kf.CallSigns, l.CallSign)
			}
			kt.Keyframes = append(kt.Keyframes, kf)
		}
		t.mu.Unlock()
		if len(kt.Keyframes) == 0 {
			continue
		}
		kt.Opts = t.opts
		out.Tracks = append(out.Tracks, kt)
	}
	return out
}

// ImportKeyframes seeds replay tracks from a prior export, returning
// the number of keyframes installed. Callers must only import state
// captured from an identical corpus (compare KeyframeExport.
// CorpusSHA256 against the live generation's digest); keyframes whose
// call signs or event indexes don't resolve against the current
// database are skipped rather than trusted.
func (e *Engine) ImportKeyframes(kf KeyframeExport) int {
	installed := 0
	for _, kt := range kf.Tracks {
		t := e.trackFor(core.SnapshotRequest{Licensees: kt.Licensees, DCs: kt.DCs, Opts: kt.Opts})
		t.mu.Lock()
		for _, frame := range kt.Keyframes {
			if frame.EventIndex < 0 || frame.EventIndex > len(t.events) {
				continue
			}
			if _, ok := t.keyframes[frame.EventIndex]; ok {
				continue
			}
			set := make([]*uls.License, 0, len(frame.CallSigns))
			resolved := true
			for _, cs := range frame.CallSigns {
				l, ok := e.db.ByCallSign(cs)
				if !ok {
					resolved = false
					break
				}
				set = append(set, l)
			}
			if !resolved {
				continue
			}
			t.keyframes[frame.EventIndex] = set
			installed++
		}
		t.mu.Unlock()
	}
	return installed
}
