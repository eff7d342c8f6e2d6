package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"hftnetview/internal/core"
	"hftnetview/internal/engine"
	"hftnetview/internal/entity"
	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
)

// Handler returns the service's HTTP surface. Query endpoints run the
// full resilience stack (recovery → counting → admission → deadline);
// the health/status endpoints bypass admission so they answer even
// while the query surface is saturated.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	query := func(h http.HandlerFunc) http.Handler {
		return s.withCounting(s.withAdmission(s.withDeadline(h)))
	}
	mux.Handle("/v1/snapshot", query(s.handleSnapshot))
	mux.Handle("/v1/rank", query(s.handleRank))
	mux.Handle("/v1/evolution", query(s.handleEvolution))
	mux.Handle("/v1/apa", query(s.handleAPA))

	// The replay stream is long-lived, so it skips admission and the
	// per-request deadline; its own semaphore bounds concurrency (see
	// watch.go).
	mux.Handle("/v1/watch", s.withCounting(http.HandlerFunc(s.handleWatch)))

	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statsz", s.handleStatsz)

	return s.withRecovery(mux)
}

// ctxProvider adapts a generation's engine to core.SnapshotProvider
// with every snapshot wait bounded by the request context, so the
// per-request deadline reaches into each reconstruction the analyses
// fan out.
type ctxProvider struct {
	ctx context.Context
	eng *engine.Engine
}

func (p ctxProvider) DB() *uls.Database { return p.eng.DB() }

func (p ctxProvider) Snapshot(req core.SnapshotRequest) (*core.Network, error) {
	return p.eng.SnapshotContext(p.ctx, req)
}

func (p ctxProvider) Snapshots(reqs []core.SnapshotRequest) ([]*core.Network, error) {
	return p.eng.SnapshotsContext(p.ctx, reqs)
}

// EvolutionSweep forwards core.EvolutionSweeper to the engine's
// anchor-grouped sweep, keeping the request context on every anchor
// snapshot — core.EvolutionVia over a ctxProvider resolves each
// distinct anchor once, not every date.
func (p ctxProvider) EvolutionSweep(licensee string, path sites.Path, dates []uls.Date, opts core.Options) ([]core.EvolutionPoint, error) {
	return p.eng.EvolutionSweepContext(p.ctx, licensee, path, dates, opts)
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	body, _ := json.Marshal(errorBody{Error: msg}) // a string always encodes
	writeBody(w, status, append(body, '\n'))
}

// writeJSON answers 200 with v as one compact JSON line and returns
// the bytes it sent. The body is encoded before anything is sent, so a
// value that fails to encode answers 500 with the error envelope
// instead of an empty 200, and writeJSON returns nil.
func writeJSON(w http.ResponseWriter, v any) []byte {
	body, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("encoding response: %v", err))
		return nil
	}
	body = append(body, '\n')
	writeBody(w, http.StatusOK, body)
	return body
}

// writeBody sends a finished body, closing newline included, in one
// write with its Content-Length. It never modifies body, which may be a
// stored answer.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// answer serves one /v1 query, keyed k, over generation g (the live
// one, loaded by the caller). A query g has already answered gets its
// stored bytes and touches no breaker, engine or encoder, so an open
// breaker still answers it. Otherwise f runs the engine-backed
// analysis inside the circuit breaker and its failure accounting:
// engine failures (timeouts, rebuild errors) count against the
// breaker; client-side cancellation does not. Only a 200 is stored.
func (s *Server) answer(w http.ResponseWriter, r *http.Request, g *generation, k answerKey, f func(p core.SnapshotProvider, g *generation) (any, error)) {
	if g == nil {
		w.Header().Set("Retry-After", RetryAfterJitter(s.cfg.RetryAfter))
		writeError(w, http.StatusServiceUnavailable, "no corpus loaded")
		return
	}
	// Every query response names the exact corpus it was computed from:
	// the fleet's chaos soak asserts wrong-generation responses are
	// impossible by checking these against the primary's published set.
	if g.storeGen > 0 {
		w.Header().Set("X-Corpus-Generation", strconv.FormatInt(g.storeGen, 10))
	}
	if g.digest != "" {
		w.Header().Set("X-Corpus-Digest", g.digest)
	}
	if body, ok := g.answers.get(k); ok {
		writeBody(w, http.StatusOK, body)
		return
	}
	done, err := s.breaker.Allow()
	if err != nil {
		s.counters.rejected.Add(1)
		w.Header().Set("Retry-After", RetryAfterJitter(s.cfg.BreakerCooldown))
		writeError(w, http.StatusServiceUnavailable, "engine circuit breaker open")
		return
	}
	v, err := f(ctxProvider{ctx: r.Context(), eng: g.eng}, g)
	switch engine.Classify(err) {
	case engine.FailureNone:
		done(false)
		if body := writeJSON(w, v); body != nil {
			g.answers.put(k, body)
		}
	case engine.FailureCanceled:
		// The client hung up; the engine is fine.
		done(false)
		writeError(w, statusClientClosedRequest, "client canceled")
	case engine.FailureTimeout:
		s.counters.failures.Add(1)
		done(true)
		writeError(w, http.StatusGatewayTimeout, fmt.Sprintf("query deadline exceeded: %v", err))
	default: // FailureRebuild
		s.counters.failures.Add(1)
		done(true)
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("reconstruction failed: %v", err))
	}
}

// --- query parameter parsing ---
//
// Each handler parses its query string once (r.URL.Query builds a new
// map on every call) and hands the values to these helpers.

// paperSnapshot is the default as-of date, the paper's 1 April 2020.
func paperSnapshot() uls.Date { return uls.NewDate(2020, time.April, 1) }

func parseDate(q url.Values) (uls.Date, error) {
	v := q.Get("date")
	if v == "" {
		return paperSnapshot(), nil
	}
	d, err := uls.ParseDate(v)
	if err != nil || d.IsZero() {
		return uls.Date{}, fmt.Errorf("bad date %q (want YYYY-MM-DD or MM/DD/YYYY)", v)
	}
	return d, nil
}

// parsePath parses ?path=FROM-TO (default CME-NY4) into two distinct
// data centers. A path from a data center to itself is a 400: every
// network would "connect" it at zero latency.
func parsePath(q url.Values) (sites.Path, error) {
	v := q.Get("path")
	if v == "" {
		return sites.Path{From: sites.CME, To: sites.NY4}, nil
	}
	from, to, ok := strings.Cut(v, "-")
	if !ok {
		return sites.Path{}, fmt.Errorf("bad path %q (want FROM-TO, e.g. CME-NY4)", v)
	}
	a, okA := sites.ByCode(strings.ToUpper(from))
	b, okB := sites.ByCode(strings.ToUpper(to))
	if !okA || !okB {
		return sites.Path{}, fmt.Errorf("unknown data center in path %q (codes: CME, NY4, NYSE, NASDAQ)", v)
	}
	if a.Code == b.Code {
		return sites.Path{}, fmt.Errorf("bad path %q: both ends are %s", v, a.Code)
	}
	return sites.Path{From: a, To: b}, nil
}

// Year-range queries (/v1/evolution, /v1/watch) accept from/to years
// in [minQueryYear, maxQueryYear]; anything else is a 400. The corpus
// spans 2013–2020, and the bound keeps one request's date grid small:
// without it, from=-1000000000&to=1000000000 asks for two billion
// sample dates.
const (
	minQueryYear = 1990
	maxQueryYear = 2100
)

// parseYears parses the from/to year range (defaults 2013 and 2020).
func parseYears(q url.Values) (from, to int, err error) {
	if from, err = parseInt(q, "from", 2013); err != nil {
		return 0, 0, err
	}
	if to, err = parseInt(q, "to", 2020); err != nil {
		return 0, 0, err
	}
	for _, y := range []int{from, to} {
		if y < minQueryYear || y > maxQueryYear {
			return 0, 0, fmt.Errorf("year %d out of range [%d, %d]", y, minQueryYear, maxQueryYear)
		}
	}
	if from > to {
		return 0, 0, fmt.Errorf("from=%d after to=%d", from, to)
	}
	return from, to, nil
}

func parseInt(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q (want an integer)", name, v)
	}
	return n, nil
}

// --- response DTOs ---

// networkRow is one connected network: the Table 1 row shape.
type networkRow struct {
	Licensee      string  `json:"licensee"`
	LatencyMicros float64 `json:"latency_us"`
	APA           float64 `json:"apa"`
	Towers        int     `json:"towers"`
	Hops          int     `json:"hops"`
}

func toRow(s core.NetworkSummary) networkRow {
	return networkRow{
		Licensee:      s.Licensee,
		LatencyMicros: s.Latency.Microseconds(),
		APA:           s.APA,
		Towers:        s.TowerCount,
		Hops:          s.HopCount,
	}
}

// --- endpoints ---

// handleSnapshot serves /v1/snapshot: the networks with an end-to-end
// route on the path at the date, in latency order (Table 1).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	date, err := parseDate(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	path, err := parsePath(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	type resp struct {
		Date       string       `json:"date"`
		Path       string       `json:"path"`
		Generation int64        `json:"generation"`
		Networks   []networkRow `json:"networks"`
	}
	k := answerKey{endpoint: "/v1/snapshot", date: date, from: path.From.Code, to: path.To.Code}
	s.answer(w, r, s.gen.Load(), k, func(p core.SnapshotProvider, g *generation) (any, error) {
		rows, err := core.ConnectedNetworksVia(p, date, path, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		out := resp{Date: date.String(), Path: path.Name(), Generation: g.id,
			Networks: make([]networkRow, 0, len(rows))}
		for _, row := range rows {
			out.Networks = append(out.Networks, toRow(row))
		}
		return out, nil
	})
}

// handleRank serves /v1/rank: the fastest networks per corridor path
// (Table 2), optionally truncated with ?top=N.
func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	date, err := parseDate(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	top, err := parseInt(q, "top", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	type ranking struct {
		Path         string       `json:"path"`
		GeodesicKM   float64      `json:"geodesic_km"`
		Ranked       []networkRow `json:"ranked"`
		GeodesicRTTu float64      `json:"geodesic_rtt_us"`
	}
	type resp struct {
		Date       string    `json:"date"`
		Generation int64     `json:"generation"`
		Paths      []ranking `json:"paths"`
	}
	k := answerKey{endpoint: "/v1/rank", date: date, top: top}
	s.answer(w, r, s.gen.Load(), k, func(p core.SnapshotProvider, g *generation) (any, error) {
		ranks, err := core.RankNetworksVia(p, date, sites.CorridorPaths(), top, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		out := resp{Date: date.String(), Generation: g.id}
		for _, pr := range ranks {
			rk := ranking{
				Path:         pr.Path.Name(),
				GeodesicKM:   pr.GeodesicMeters / 1e3,
				GeodesicRTTu: 2 * pr.GeodesicMeters / 299792458.0 * 1e6,
				Ranked:       make([]networkRow, 0, len(pr.Ranked)),
			}
			for _, row := range pr.Ranked {
				rk.Ranked = append(rk.Ranked, toRow(row))
			}
			out.Paths = append(out.Paths, rk)
		}
		return out, nil
	})
}

// handleEvolution serves /v1/evolution: one licensee's longitudinal
// trajectory (Figs 1–2) over ?from/?to years of paper sample dates,
// each year within [minQueryYear, maxQueryYear].
func (s *Server) handleEvolution(w http.ResponseWriter, r *http.Request) {
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
	type point struct {
		Date           string  `json:"date"`
		Connected      bool    `json:"connected"`
		LatencyMicros  float64 `json:"latency_us,omitempty"`
		ActiveLicenses int     `json:"active_licenses"`
	}
	type resp struct {
		Licensee   string  `json:"licensee"`
		Path       string  `json:"path"`
		Generation int64   `json:"generation"`
		Points     []point `json:"points"`
	}
	// A name the generation never filed under is a 404, outside the
	// breaker's accounting: answering it would memoize one empty
	// snapshot per name, and a publish would carry them all over.
	g := s.gen.Load()
	if g != nil {
		name, ok := g.licensee(licensee)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("unknown licensee %q", licensee))
			return
		}
		licensee = name
	}
	k := answerKey{endpoint: "/v1/evolution", from: path.From.Code, to: path.To.Code,
		licensee: licensee, fromYear: from, toYear: to}
	s.answer(w, r, g, k, func(p core.SnapshotProvider, g *generation) (any, error) {
		pts, err := core.EvolutionVia(p, licensee, path, core.PaperSampleDates(from, to), core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		out := resp{Licensee: licensee, Path: path.Name(), Generation: g.id,
			Points: make([]point, 0, len(pts))}
		for _, pt := range pts {
			jp := point{Date: pt.Date.String(), Connected: pt.Connected,
				ActiveLicenses: pt.ActiveLicenses}
			if pt.Connected {
				jp.LatencyMicros = pt.Latency.Microseconds()
			}
			out.Points = append(out.Points, jp)
		}
		return out, nil
	})
}

// handleAPA serves /v1/apa: per-network alternate-path availability on
// the path at the date (§5), plus the complementary licensee pairs
// whose union closes an end-to-end route (§2.4).
func (s *Server) handleAPA(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	date, err := parseDate(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	path, err := parsePath(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	type apaRow struct {
		Licensee      string  `json:"licensee"`
		APA           float64 `json:"apa"`
		LatencyMicros float64 `json:"latency_us"`
	}
	type pairRow struct {
		Pair          string  `json:"pair"`
		LatencyMicros float64 `json:"latency_us"`
	}
	type resp struct {
		Date          string    `json:"date"`
		Path          string    `json:"path"`
		Generation    int64     `json:"generation"`
		Networks      []apaRow  `json:"networks"`
		Complementary []pairRow `json:"complementary_pairs"`
	}
	k := answerKey{endpoint: "/v1/apa", date: date, from: path.From.Code, to: path.To.Code}
	s.answer(w, r, s.gen.Load(), k, func(p core.SnapshotProvider, g *generation) (any, error) {
		rows, err := core.ConnectedNetworksVia(p, date, path, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		pairs, err := entity.ComplementaryPairsVia(p, date, path, nil, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		out := resp{Date: date.String(), Path: path.Name(), Generation: g.id,
			Networks: make([]apaRow, 0, len(rows)), Complementary: []pairRow{}}
		for _, row := range rows {
			out.Networks = append(out.Networks, apaRow{
				Licensee: row.Licensee, APA: row.APA,
				LatencyMicros: row.Latency.Microseconds(),
			})
		}
		for _, pr := range pairs {
			out.Complementary = append(out.Complementary, pairRow{
				Pair:          pr.A + " + " + pr.B,
				LatencyMicros: pr.Latency.Microseconds(),
			})
		}
		return out, nil
	})
}

// handleHealthz is liveness: the process is up and the handler loop
// responds. Always 200.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// readyzBody is the /readyz payload.
type readyzBody struct {
	Ready           bool            `json:"ready"`
	Degraded        bool            `json:"degraded,omitempty"`
	Breaker         string          `json:"breaker"`
	Generation      *generationInfo `json:"generation,omitempty"`
	LastReloadError string          `json:"last_reload_error,omitempty"`
	Persist         *PersistStatus  `json:"persist,omitempty"`
}

// handleReadyz is readiness: 503 until a corpus generation is
// installed, 200 thereafter. A failed hot reload does not flip
// readiness (the old generation keeps serving) but surfaces here as
// degraded with the reload error.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	body := readyzBody{Breaker: s.breaker.State().String()}
	g := s.gen.Load()
	if g != nil {
		info := g.info()
		body.Ready = true
		body.Generation = &info
	}
	if rs := s.ReloadStatus(); rs.LastError != "" {
		body.Degraded = true
		body.LastReloadError = rs.LastError
	}
	if ps := s.PersistStatus(); ps.Enabled {
		body.Persist = &ps
		if ps.LastError != "" {
			body.Degraded = true
		}
	}
	if !body.Ready {
		w.Header().Set("Retry-After", RetryAfterJitter(s.cfg.RetryAfter))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(body)
		return
	}
	writeJSON(w, body)
}

// handleStatsz serves the counter snapshot.
func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}
