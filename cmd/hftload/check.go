package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"sync"

	"hftnetview/internal/core"
	"hftnetview/internal/engine"
	"hftnetview/internal/uls"
)

// oracle maps a request URI to the fields a correct response carries,
// computed by a fresh engine over the corpus — independent of every
// memo, delta track and generation the servers under load accumulate.
type oracle map[string]map[string]any

// buildOracle answers reqs with engine.New(db) and the provider API.
func buildOracle(db *uls.Database, reqs []request) (oracle, error) {
	eng := engine.New(db)
	o := make(oracle, len(reqs))
	for _, r := range reqs {
		want, err := expect(eng, r)
		if err != nil {
			return nil, err
		}
		o[r.uri()] = want
	}
	return o, nil
}

// expect computes r's compared fields through p.
func expect(p core.SnapshotProvider, r request) (map[string]any, error) {
	b, err := answer(p, r)
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", r.uri(), err)
	}
	return fieldsOf(render(b), r.ep)
}

// fieldsOf decodes a response body and keeps the endpoint's compared
// fields, so formatting and the process-local generation never count.
func fieldsOf(body []byte, ep endpoint) (map[string]any, error) {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	out := make(map[string]any, 2)
	for _, f := range compared(ep) {
		v, ok := m[f]
		if !ok {
			return nil, fmt.Errorf("response lacks %q", f)
		}
		out[f] = v
	}
	return out, nil
}

// matches reports whether body carries want's fields.
func matches(r request, body []byte, want map[string]any) error {
	got, err := fieldsOf(body, r.ep)
	if err != nil {
		return fmt.Errorf("%s: %w", r.uri(), err)
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: answer differs from the oracle", r.uri())
	}
	return nil
}

// published is the fleet's set of store generations the primary has
// published, each with its corpus digest.
type published struct {
	mu   sync.Mutex
	gens map[int64]string
}

func (p *published) add(gen int64, digest string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gens == nil {
		p.gens = make(map[int64]string)
	}
	p.gens[gen] = digest
}

// verify checks a response's generation headers against the set.
func (p *published) verify(h http.Header) error {
	gen, err := strconv.ParseInt(h.Get("X-Corpus-Generation"), 10, 64)
	if err != nil {
		return fmt.Errorf("bad X-Corpus-Generation %q", h.Get("X-Corpus-Generation"))
	}
	p.mu.Lock()
	digest, ok := p.gens[gen]
	p.mu.Unlock()
	switch {
	case !ok:
		return fmt.Errorf("generation %d was never published", gen)
	case digest != h.Get("X-Corpus-Digest"):
		return fmt.Errorf("generation %d served with digest %q, published as %q", gen, h.Get("X-Corpus-Digest"), digest)
	}
	return nil
}

// checker judges one 200 response. Every workload checks what it can
// afford on every answer: the hot key sets against the oracle, the
// unbounded apa-history keys against the invariants (with a seeded
// sample re-checked against the oracle after the run), and the fleet's
// generation headers against the published set.
type checker struct {
	oracle     oracle     // nil: no per-answer oracle
	invariants bool       // check the physics and ordering invariants
	published  *published // nil: single replica, no headers to check

	// verified holds, per URI, the last few bodies that passed the
	// oracle. A hot key's answer repeats byte for byte until its replica
	// swaps generation, so a repeat is checked with one comparison
	// instead of a JSON decode — keeping the checker's own allocation,
	// which shares the servers' heap and garbage collector, small.
	mu       sync.Mutex
	verified map[string][]string
}

// keepVerified bounds the bodies remembered per URI: enough for every
// replica's current generation and the one before it.
const keepVerified = 8

func (c *checker) check(r request, h http.Header, body []byte) error {
	if c.published != nil {
		if err := c.published.verify(h); err != nil {
			return fmt.Errorf("%s: %w", r.uri(), err)
		}
	}
	if c.oracle != nil {
		if err := c.matchesOracle(r, body); err != nil {
			return err
		}
	}
	if c.invariants {
		if err := invariants(r, body); err != nil {
			return fmt.Errorf("%s: %w", r.uri(), err)
		}
	}
	return nil
}

func (c *checker) matchesOracle(r request, body []byte) error {
	uri := r.uri()
	c.mu.Lock()
	for _, b := range c.verified[uri] {
		if b == string(body) {
			c.mu.Unlock()
			return nil
		}
	}
	c.mu.Unlock()
	want, ok := c.oracle[uri]
	if !ok {
		return fmt.Errorf("%s: no oracle entry", uri)
	}
	if err := matches(r, body, want); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.verified == nil {
		c.verified = make(map[string][]string)
	}
	seen := append(c.verified[uri], string(body))
	c.verified[uri] = seen[max(0, len(seen)-keepVerified):]
	return nil
}

// invariantBody is the part of every response the invariants read.
type invariantBody struct {
	Networks []struct {
		LatencyMicros float64 `json:"latency_us"`
		APA           float64 `json:"apa"`
	} `json:"networks"`
	Complementary []struct {
		LatencyMicros float64 `json:"latency_us"`
	} `json:"complementary_pairs"`
	Points []struct {
		Date          string  `json:"date"`
		Connected     bool    `json:"connected"`
		LatencyMicros float64 `json:"latency_us"`
	} `json:"points"`
}

// invariants checks what must hold of any correct answer, whatever the
// date: rows in latency order, no route faster than light along the
// great circle, APA a fraction, trajectory points in date order.
func invariants(r request, body []byte) error {
	var b invariantBody
	if err := json.Unmarshal(body, &b); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	// The c-bound in µs, with a relative slack far below any modelled
	// fiber tail so only a physically impossible route trips it.
	floor := r.path.GeodesicMeters() / speedOfLight * 1e6 * (1 - 1e-9)
	for i, n := range b.Networks {
		switch {
		case n.LatencyMicros < floor:
			return fmt.Errorf("row %d: latency %.3f µs beats the %.3f µs c-bound", i, n.LatencyMicros, floor)
		case n.APA < 0 || n.APA > 1:
			return fmt.Errorf("row %d: APA %v outside [0,1]", i, n.APA)
		case i > 0 && n.LatencyMicros < b.Networks[i-1].LatencyMicros:
			return fmt.Errorf("row %d: rows out of latency order", i)
		}
	}
	for i, p := range b.Complementary {
		if p.LatencyMicros < floor {
			return fmt.Errorf("pair %d: latency %.3f µs beats the %.3f µs c-bound", i, p.LatencyMicros, floor)
		}
	}
	if r.ep == epEvolution {
		if want := len(core.PaperSampleDates(r.from, r.to)); len(b.Points) != want {
			return fmt.Errorf("%d points, want %d", len(b.Points), want)
		}
		var prev uls.Date
		for i, p := range b.Points {
			d, err := uls.ParseDate(p.Date)
			if err != nil {
				return fmt.Errorf("point %d: %w", i, err)
			}
			if i > 0 && !prev.Before(d) {
				return fmt.Errorf("point %d: %s not after %s", i, d, prev)
			}
			if p.Connected && p.LatencyMicros < floor {
				return fmt.Errorf("point %d: latency %.3f µs beats the %.3f µs c-bound", i, p.LatencyMicros, floor)
			}
			prev = d
		}
	}
	return nil
}
