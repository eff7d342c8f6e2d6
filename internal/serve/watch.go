package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hftnetview/internal/core"
	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
)

// /v1/watch — streaming replay of one licensee's network evolution.
//
// Where /v1/evolution samples a date grid and returns one JSON body,
// /v1/watch replays the licensee's temporal event log as a
// server-sent-event stream: an initial full snapshot at the replay
// window's start, then one diff frame per event date — links and towers
// added/removed (core.DiffNetworks), the latency delta, the active
// license count, and the lifecycle events that fired. Frames carry
// SSE ids of the form "<generation>.<seq>" with seq monotonically
// increasing and gap-free, so a client (or the soak test) can assert
// it observed every transition — and a dropped client can resume: a
// reconnect with the standard Last-Event-ID header picks the replay
// up at the next frame of the same pinned generation, or gets 409
// when that generation is no longer the live corpus (diffs from a
// dead generation cannot be stitched onto the new one's replay).
//
// The stream is long-lived, so it deliberately bypasses the query
// surface's admission limiter and per-request deadline — a replay
// parked in the admission queue would pin a slot for minutes — and is
// bounded instead by its own stream semaphore (WatchMaxStreams).
// Backpressure is the replay clock: frames flow through a bounded
// channel into the client connection, so a slow reader blocks the
// producer and pauses the replay rather than ballooning memory or
// skipping events. Heartbeat comments keep idle connections (paced
// replays between sparse events) alive through proxies.
//
// Each stream pins its corpus generation at entry, like every query: a
// hot reload mid-stream never tears or mixes replays — the stream
// finishes against the generation it started with.

// watchBuffer is the per-stream frame buffer between the replay
// producer and the client connection. When a slow client fills it, the
// replay clock pauses, so a stream holds at most this many unsent
// frames, however long its replay.
const watchBuffer = 32

// watchState is the server's streaming surface: a stream semaphore, a
// drain signal for graceful shutdown, and counters.
type watchState struct {
	sem      chan struct{}
	stop     chan struct{}
	stopOnce sync.Once

	streams  atomic.Int64 // streams accepted
	active   atomic.Int64 // streams currently open
	rejected atomic.Int64 // 503s from the stream semaphore
	frames   atomic.Int64 // data frames written (hello/snapshot/diff/eof/drain)
	drained  atomic.Int64 // streams ended by StopWatches
}

// WatchStats is the /statsz view of the streaming surface.
type WatchStats struct {
	Streams  int64 `json:"streams"`
	Active   int64 `json:"active"`
	Rejected int64 `json:"rejected"`
	Frames   int64 `json:"frames"`
	Drained  int64 `json:"drained"`
}

func (ws *watchState) stats() WatchStats {
	return WatchStats{
		Streams:  ws.streams.Load(),
		Active:   ws.active.Load(),
		Rejected: ws.rejected.Load(),
		Frames:   ws.frames.Load(),
		Drained:  ws.drained.Load(),
	}
}

// StopWatches asks every open /v1/watch stream to drain: each writer
// sends a final `drain` event and closes. New watch requests are
// refused afterwards. Idempotent; wired into graceful shutdown
// (http.Server.RegisterOnShutdown) so Shutdown's handler wait cannot
// hang on a replay that still has years to stream.
func (s *Server) StopWatches() {
	s.watch.stopOnce.Do(func() { close(s.watch.stop) })
}

// sseFrame is one wire-ready frame: a pre-marshaled payload with its
// event name and sequence id.
type sseFrame struct {
	id    int64
	event string
	data  []byte
}

// watchHello is the stream's opening frame: the replay parameters as
// resolved, the pinned generation, and how many diff frames will
// follow (barring error or drain).
type watchHello struct {
	Licensee   string  `json:"licensee"`
	Path       string  `json:"path"`
	From       string  `json:"from"`
	To         string  `json:"to"`
	Speed      float64 `json:"speed"`
	Seed       int64   `json:"seed"`
	Generation int64   `json:"generation"`
	// StoreGeneration / CorpusSHA256 identify the pinned corpus across
	// processes, zero/empty when it was never persisted.
	StoreGeneration int64  `json:"store_generation,omitempty"`
	CorpusSHA256    string `json:"corpus_sha256,omitempty"`
	// Diffs is the number of diff frames the replay will emit.
	Diffs int `json:"diffs"`
}

// watchEvent is one lifecycle transition inside a diff frame.
type watchEvent struct {
	Kind     string `json:"kind"`
	CallSign string `json:"call_sign"`
}

// watchSnapshot is the network state at the start of the replay window.
type watchSnapshot struct {
	Seq            int64   `json:"seq"`
	Date           string  `json:"date"`
	Towers         int     `json:"towers"`
	Links          int     `json:"links"`
	Connected      bool    `json:"connected"`
	LatencyMicros  float64 `json:"latency_us,omitempty"`
	ActiveLicenses int     `json:"active_licenses"`
}

// watchDiff is one replay step: what changed at this event date
// relative to the previous frame.
type watchDiff struct {
	Seq            int64        `json:"seq"`
	Date           string       `json:"date"`
	Events         []watchEvent `json:"events"`
	TowersAdded    int          `json:"towers_added"`
	TowersRemoved  int          `json:"towers_removed"`
	LinksAdded     int          `json:"links_added"`
	LinksRemoved   int          `json:"links_removed"`
	Towers         int          `json:"towers"`
	Links          int          `json:"links"`
	Connected      bool         `json:"connected"`
	LatencyMicros  float64      `json:"latency_us,omitempty"`
	LatencyDeltaUs float64      `json:"latency_delta_us,omitempty"`
	ActiveLicenses int          `json:"active_licenses"`
}

// parseFloat parses an optional float query parameter.
func parseFloat(q url.Values, name string, def float64) (float64, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q (want a number)", name, v)
	}
	return f, nil
}

// handleWatch serves /v1/watch. Parameters: licensee (required), path
// (FROM-TO, default CME-NY4), from/to (years, defaults 2013/2020, each
// within [minQueryYear, maxQueryYear], end capped at the paper
// snapshot), speed (virtual days per wall second; 0 = as fast as the
// client reads), seed (deterministic pacing jitter, so many concurrent
// paced replays don't tick in lockstep).
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	licensee := q.Get("licensee")
	if licensee == "" {
		writeError(w, http.StatusBadRequest, "missing required parameter: licensee")
		return
	}
	path, err := parsePath(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	from, to, err := parseYears(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	speed, err := parseFloat(q, "speed", 0)
	if err != nil || speed < 0 {
		writeError(w, http.StatusBadRequest, "bad speed (want a number of virtual days per second >= 0)")
		return
	}
	seed, err := parseInt(q, "seed", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	g := s.gen.Load()
	if g == nil {
		w.Header().Set("Retry-After", RetryAfterJitter(s.cfg.RetryAfter))
		writeError(w, http.StatusServiceUnavailable, "no corpus loaded")
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}

	// Resume: a reconnecting client presents the last frame id it saw
	// and the replay continues from the next frame. resumeAfter is the
	// seq already delivered (-1 = fresh stream). The id's generation
	// part must match the live generation — resuming against a corpus
	// that has since been replaced would stitch diffs from two
	// different histories, so that is a 409, restart from scratch.
	// (id -1 is the drain frame: a client that saw it starts fresh.)
	resumeAfter := int64(-1)
	if lei := r.Header.Get("Last-Event-ID"); lei != "" && lei != "-1" {
		genPart, seqPart, found := strings.Cut(lei, ".")
		pg, err1 := strconv.ParseInt(genPart, 10, 64)
		ps, err2 := strconv.ParseInt(seqPart, 10, 64)
		if !found || err1 != nil || err2 != nil || ps < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad Last-Event-ID %q (want <generation>.<seq>)", lei))
			return
		}
		if pg != g.id {
			writeError(w, http.StatusConflict, fmt.Sprintf("generation %d is gone (live generation is %d); restart the stream", pg, g.id))
			return
		}
		resumeAfter = ps
	}
	if _, ok := g.licensee(licensee); !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown licensee %q", licensee))
		return
	}

	// Refuse new streams once draining, and bound concurrent streams
	// with the watch semaphore (non-blocking: a replay is not worth
	// queueing for).
	select {
	case <-s.watch.stop:
		writeError(w, http.StatusServiceUnavailable, "server draining")
		return
	default:
	}
	select {
	case s.watch.sem <- struct{}{}:
	default:
		s.watch.rejected.Add(1)
		w.Header().Set("Retry-After", RetryAfterJitter(s.cfg.RetryAfter))
		writeError(w, http.StatusServiceUnavailable, "watch stream limit reached")
		return
	}
	defer func() { <-s.watch.sem }()
	s.watch.streams.Add(1)
	s.watch.active.Add(1)
	defer s.watch.active.Add(-1)

	start := uls.NewDate(from, time.January, 1)
	end := uls.NewDate(to, time.December, 31)
	if to >= 2020 {
		end = paperSnapshot()
	}

	// The replay schedule: every distinct event date in (start, end],
	// with that date's events attached.
	var steps []watchStep
	for _, ev := range g.db.EventLog().Events(licensee) {
		if !ev.Date.After(start) || ev.Date.After(end) {
			continue
		}
		if n := len(steps); n > 0 && steps[n-1].date.Equal(ev.Date) {
			steps[n-1].events = append(steps[n-1].events, ev)
		} else {
			steps = append(steps, watchStep{date: ev.Date, events: []uls.Event{ev}})
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	if g.storeGen > 0 {
		w.Header().Set("X-Corpus-Generation", strconv.FormatInt(g.storeGen, 10))
	}
	if g.digest != "" {
		w.Header().Set("X-Corpus-Digest", g.digest)
	}
	w.WriteHeader(http.StatusOK)

	// The producer computes frames and the writer ships them; the
	// bounded channel between them is the backpressure seam. Canceling
	// ctx (client gone, writer done, or drain) stops the producer.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	go func() {
		select {
		case <-s.watch.stop:
			cancel()
		case <-ctx.Done():
		}
	}()

	frames := make(chan sseFrame, watchBuffer)
	go func() {
		defer close(frames)
		s.produceWatch(ctx, g, licensee, path, start, speed, int64(seed), steps, resumeAfter, frames)
	}()

	heartbeat := time.NewTicker(s.cfg.WatchHeartbeat)
	defer heartbeat.Stop()
	// A drain broadcast makes three select cases ready at once: the
	// stop channel, ctx (via the forwarder), and the closing frames
	// channel (the producer exits on ctx). Go picks among ready cases
	// at random, so every exit path below re-checks stop — the drain
	// frame must reach every still-connected stream, not just the ones
	// whose select happened to land on the stop arm.
	terminal := false // an eof or error frame has been written
	drain := func() {
		fmt.Fprint(w, "id: -1\nevent: drain\ndata: {}\n\n")
		flusher.Flush()
		s.watch.frames.Add(1)
		s.watch.drained.Add(1)
	}
	stopping := func() bool {
		select {
		case <-s.watch.stop:
			return true
		default:
			return false
		}
	}
	for {
		select {
		case f, ok := <-frames:
			if !ok {
				// Producer done: either the replay completed (terminal
				// frame already written) or the drain broadcast
				// canceled it mid-stream.
				if !terminal && stopping() && r.Context().Err() == nil {
					drain()
				}
				return
			}
			fmt.Fprintf(w, "id: %d.%d\nevent: %s\ndata: %s\n\n", g.id, f.id, f.event, f.data)
			flusher.Flush()
			s.watch.frames.Add(1)
			if f.event == "eof" || f.event == "error" {
				terminal = true
			}
		case <-heartbeat.C:
			fmt.Fprint(w, ": hb\n\n")
			flusher.Flush()
		case <-s.watch.stop:
			if !terminal {
				drain()
			}
			return
		case <-ctx.Done():
			// Client disconnects cancel ctx too; only a still-connected
			// client mid-drain gets the terminal frame.
			if !terminal && stopping() && r.Context().Err() == nil {
				drain()
			}
			return
		}
	}
}

// watchStep is one replay step: a distinct event date and the
// lifecycle events that fired on it.
type watchStep struct {
	date   uls.Date
	events []uls.Event
}

// produceWatch computes the replay frames in order: hello (seq 0), the
// start snapshot (seq 1), one diff per event date (seq 2..S+1), eof
// (seq S+2). Every send honors ctx, so a canceled stream stops
// computing promptly; with speed > 0 the producer paces frames by
// virtual time (jittered deterministically by seed so concurrent
// replays desynchronize).
//
// resumeAfter >= 0 resumes a dropped stream: every frame with seq <=
// resumeAfter is suppressed (the client already has them), the
// baseline network state is recomputed at the date the client last
// saw, and the replay continues from the next frame — the
// concatenation of the frames the client kept and the frames this
// stream emits is byte-identical to an uninterrupted replay.
func (s *Server) produceWatch(ctx context.Context, g *generation, licensee string, path sites.Path, start uls.Date, speed float64, seed int64, steps []watchStep, resumeAfter int64, frames chan<- sseFrame) {
	send := func(id int64, event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		select {
		case frames <- sseFrame{id: id, event: event, data: data}:
			return true
		case <-ctx.Done():
			return false
		}
	}
	fail := func(id int64, err error) {
		send(id, "error", errorBody{Error: err.Error()})
	}

	log := g.db.EventLog()
	dcs := []sites.DataCenter{path.From, path.To}
	snapshotAt := func(d uls.Date) (*core.Network, error) {
		return g.eng.SnapshotContext(ctx, core.SnapshotRequest{
			Licensees: []string{licensee},
			Date:      d,
			DCs:       dcs,
			Opts:      core.DefaultOptions(),
		})
	}
	latency := func(n *core.Network) (float64, bool) {
		r, ok := n.BestRoute(path)
		if !ok {
			return 0, false
		}
		return r.Latency.Microseconds(), true
	}

	S := int64(len(steps))
	last := resumeAfter // highest seq the client already holds; -1 = none
	lastStr := start.String()
	if S > 0 {
		lastStr = steps[S-1].date.String()
	}
	if last < 0 {
		if !send(0, "hello", watchHello{
			Licensee: licensee, Path: path.Name(),
			From: start.String(), To: lastStr,
			Speed: speed, Seed: seed,
			Generation: g.id, StoreGeneration: g.storeGen, CorpusSHA256: g.digest,
			Diffs: len(steps),
		}) {
			return
		}
		last = 0
	}

	// Baseline network state: for a fresh stream (or a client holding
	// only the hello) it is the window start and is emitted as the
	// snapshot frame; for a resume it is the date of the last diff the
	// client saw — recomputed, not replayed, so the diffs that follow
	// chain off exactly the state the client's copy ends in. A window
	// with no events has no diff to resume from: its baseline stays the
	// window start, and the stream goes straight to eof.
	baseline := start
	if last >= 2 && S > 0 {
		baseline = steps[min(last-2, S-1)].date
	}
	prev, err := snapshotAt(baseline)
	if err != nil {
		fail(last+1, err)
		return
	}
	prevLat, prevConn := latency(prev)
	if last == 0 {
		snap := watchSnapshot{
			Seq: 1, Date: start.String(),
			Towers: len(prev.Towers), Links: len(prev.Links),
			Connected:      prevConn,
			ActiveLicenses: log.ActiveCount(licensee, start),
		}
		if prevConn {
			snap.LatencyMicros = prevLat
		}
		if !send(1, "snapshot", snap) {
			return
		}
		last = 1
	}

	rng := rand.New(rand.NewPCG(uint64(seed), 0x77a7c4)) //nolint:gosec // pacing jitter, not security
	clock := baseline
	seq := last
	// Diff for step index i carries seq 2+i; the client holds seqs
	// through `last`, so the replay continues at step index last-1.
	for _, st := range steps[min(last-1, S):] {
		if speed > 0 {
			days := int(st.date.Time().Sub(clock.Time()).Hours() / 24)
			if days > 0 {
				wait := time.Duration(float64(days) / speed * float64(time.Second))
				// ±10% deterministic jitter: many streams replaying the
				// same corpus at the same speed shouldn't tick in
				// lockstep.
				wait += time.Duration((rng.Float64() - 0.5) * 0.2 * float64(wait))
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					return
				}
			}
		}
		clock = st.date

		cur, err := snapshotAt(st.date)
		if err != nil {
			fail(seq+1, err)
			return
		}
		seq++
		d := core.DiffNetworks(prev, cur)
		curLat, curConn := latency(cur)
		frame := watchDiff{
			Seq: seq, Date: st.date.String(),
			Events:         make([]watchEvent, 0, len(st.events)),
			TowersAdded:    d.TowersAdded,
			TowersRemoved:  d.TowersRemoved,
			LinksAdded:     d.LinksAdded,
			LinksRemoved:   d.LinksRemoved,
			Towers:         len(cur.Towers),
			Links:          len(cur.Links),
			Connected:      curConn,
			ActiveLicenses: log.ActiveCount(licensee, st.date),
		}
		for _, ev := range st.events {
			frame.Events = append(frame.Events, watchEvent{
				Kind: ev.Kind.String(), CallSign: ev.License.CallSign,
			})
		}
		if curConn {
			frame.LatencyMicros = curLat
			if prevConn {
				frame.LatencyDeltaUs = curLat - prevLat
			}
		}
		if !send(seq, "diff", frame) {
			return
		}
		prev, prevLat, prevConn = cur, curLat, curConn
	}

	// The eof seq is fixed at S+2 regardless of where the stream
	// resumed — a client that reconnects after seeing the eof just gets
	// it again, idempotently.
	send(S+2, "eof", map[string]int64{"frames": S + 2})
}
