package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"hftnetview/internal/core"
	"hftnetview/internal/engine"
	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
)

// spanHeader carries a traced request's id from the client through the
// front (which forwards client headers) to the replica that serves it.
const spanHeader = "X-Bench-Span"

// span is one layer's interval for one request, timed from outside the
// layer by wrapping the handler that enters it.
type span struct {
	ID    int       `json:"id"`
	Layer string    `json:"layer"` // "fleet.front" or "serve"
	Node  string    `json:"node"`  // "front" or the replica's name
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// wrap records a span around every request to h that carries a span id;
// requests without one pass through untouched.
func (t *tracer) wrap(layer, node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: id, Layer: layer, Node: node, Start: start, End: end})
		t.mu.Unlock()
	})
}

// byLayer indexes spans by (layer, id, node).
func (t *tracer) byLayer() map[string]map[int]map[string]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]map[int]map[string]span)
	for _, s := range t.spans {
		if out[s.Layer] == nil {
			out[s.Layer] = make(map[int]map[string]span)
		}
		if out[s.Layer][s.ID] == nil {
			out[s.Layer][s.ID] = make(map[string]span)
		}
		out[s.Layer][s.ID][s.Node] = s
	}
	return out
}

// writeSpans writes every span as one JSON object per line.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// fetchClock is a puller's HTTP transport wrapper: it totals the time
// spent fetching manifests and segments, each from the request until
// its body is closed, so PullOnce splits into fetch and install.
type fetchClock struct {
	base http.RoundTripper

	mu                 sync.Mutex
	manifest, segments time.Duration
}

func (c *fetchClock) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	segment := strings.Contains(req.URL.Path, "/segment/")
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		c.add(segment, time.Since(start))
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { c.add(segment, time.Since(start)) }}
	return resp, nil
}

func (c *fetchClock) add(segment bool, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if segment {
		c.segments += d
	} else {
		c.manifest += d
	}
}

// take returns and clears the totals since the last take.
func (c *fetchClock) take() (manifest, segments time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	manifest, segments = c.manifest, c.segments
	c.manifest, c.segments = 0, 0
	return manifest, segments
}

// timedBody ends a fetch at the body's EOF, or its close if that comes
// first — not at the deferred close after the puller has verified and
// staged what it read.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// layerClock is the layer replay's core.SnapshotProvider for one
// request: it forwards to the replayed engine and times the wall time
// the analysis spends inside engine calls — batch Snapshots and
// EvolutionSweep — and each single snapshot lookup those batches fan
// out to.
type layerClock struct {
	eng *engine.Engine

	mu     sync.Mutex
	engine time.Duration   // wall time in engine calls
	calls  []time.Duration // every single snapshot lookup
}

func (c *layerClock) DB() *uls.Database { return c.eng.DB() }

func (c *layerClock) Snapshot(req core.SnapshotRequest) (*core.Network, error) {
	start := time.Now()
	n, err := c.eng.Snapshot(req)
	d := time.Since(start)
	c.mu.Lock()
	c.calls = append(c.calls, d)
	c.mu.Unlock()
	return n, err
}

func (c *layerClock) Snapshots(reqs []core.SnapshotRequest) ([]*core.Network, error) {
	start := time.Now()
	nets, err := core.SnapshotsParallel(c, reqs)
	c.addEngine(time.Since(start))
	return nets, err
}

// EvolutionSweep keeps core.EvolutionVia on the engine's event-log
// sweep, as the replicas' provider does.
func (c *layerClock) EvolutionSweep(licensee string, path sites.Path, dates []uls.Date, opts core.Options) ([]core.EvolutionPoint, error) {
	start := time.Now()
	pts, err := c.eng.EvolutionSweep(licensee, path, dates, opts)
	c.addEngine(time.Since(start))
	return pts, err
}

func (c *layerClock) addEngine(d time.Duration) {
	c.mu.Lock()
	c.engine += d
	c.mu.Unlock()
}

// layers is one replayed request's split.
type layers struct {
	engine, core, render time.Duration
	bytes                int
}

// replayOne re-executes r on c the way a replica handler does —
// analysis through the provider, then the indented JSON encode — and
// splits its time into engine, core (analysis minus engine) and render.
func (c *layerClock) replayOne(r request) (layers, error) {
	start := time.Now()
	b, err := answer(c, r)
	analysed := time.Now()
	if err != nil {
		return layers{}, err
	}
	raw := render(b)
	rendered := time.Now()
	c.mu.Lock()
	eng := c.engine
	c.mu.Unlock()
	return layers{engine: eng, core: analysed.Sub(start) - eng, render: rendered.Sub(analysed), bytes: len(raw)}, nil
}
