package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
	"hftnetview/internal/units"
)

// fuzzEndpoints are the JSON query endpoints FuzzQueryParams drives.
// /v1/watch shares their date, path and year parsers but streams until
// its replay ends, so it is left to TestWatchBadParams.
var fuzzEndpoints = []string{"/v1/snapshot", "/v1/rank", "/v1/evolution", "/v1/apa"}

// fuzzRow is any latency/APA row the endpoints answer with.
type fuzzRow struct {
	LatencyMicros *float64 `json:"latency_us"`
	APA           *float64 `json:"apa"`
}

// fuzzBody is the union of the endpoints' response shapes.
type fuzzBody struct {
	Date          string    `json:"date"`
	Licensee      string    `json:"licensee"`
	Path          string    `json:"path"`
	Networks      []fuzzRow `json:"networks"`
	Complementary []fuzzRow `json:"complementary_pairs"`
	Points        []struct {
		Date          string  `json:"date"`
		Connected     bool    `json:"connected"`
		LatencyMicros float64 `json:"latency_us"`
	} `json:"points"`
	Paths []struct {
		Path   string    `json:"path"`
		Ranked []fuzzRow `json:"ranked"`
	} `json:"paths"`
}

// FuzzQueryParams drives the /v1 query endpoints with arbitrary query
// strings. Whatever the parameters: no panic and no 5xx; every 200
// names two distinct known data centers; every latency is at least the
// path's great-circle time at c (nothing beats light in vacuum); every
// APA lies in [0, 1]; every /v1/evolution answer names a licensee of
// the corpus (an unknown one is a 404, never a memo entry).
//
// Every 200 also echoes what was asked: the canonical date, the path
// and the licensee; /v1/rank?top=N (N > 0) ranks at most N per path;
// /v1/evolution's points lie within its from/to years; and the same
// request sent again returns the same bytes. The one server keeps its
// answer cache across inputs, so a cache key that drops a parameter
// answers a later input with an earlier input's body and fails here.
// Seeded with TestBadParams' and TestUnknownLicenseeNotFound's URLs and
// valid ones, the last of them repeating an earlier question with one
// parameter changed.
func FuzzQueryParams(f *testing.F) {
	for _, seed := range []struct {
		endpoint uint8
		query    string
	}{
		{0, ""},
		{0, "date=2020-04-01&path=CME-NY4"},
		{0, "date=06/15/2016&path=cme-nasdaq"},
		{0, "date=not-a-date"},
		{0, "path=CME"},
		{0, "path=CME-LHR"},
		{0, "path=CME-CME"},
		{0, "path=NY4-CME&date=2013-01-01"},
		{1, "top=3"},
		{1, "top=many"},
		{1, "top=-1&date=2017-02-28"},
		{2, ""},
		{2, "licensee=New+Line+Networks&from=2013&to=2020"},
		{2, "licensee=X&from=2020&to=2013"},
		{2, "licensee=X&from=-1000000000&to=1000000000"},
		{2, "licensee=X&from=1989&to=2020"},
		{2, "licensee=Webline+Holdings&path=CME-NYSE&from=2018&to=2020"},
		{2, "licensee=x&path=CME-CME"},
		{2, "licensee=X"},
		{2, "licensee=new+line+networks&from=2016"},
		{3, ""},
		{3, "path=NY4-NY4"},
		{3, "date=2019-11-30&path=CME-NASDAQ"},
		{0, "date=2016-01-01&path=CME-NY4"},
		{0, "date=2020-04-01&path=NY4-CME"},
		{1, "top=2"},
		{1, "top=0"},
		{2, "licensee=New+Line+Networks&path=CME-NYSE&from=2013&to=2020"},
		{2, "licensee=New+Line+Networks&from=2016&to=2018"},
		{2, "licensee=Webline+Holdings&from=2013&to=2020"},
		{3, "path=CME-NYSE"},
	} {
		f.Add(seed.endpoint, seed.query)
	}
	var once sync.Once
	var h http.Handler
	f.Fuzz(func(t *testing.T, endpoint uint8, query string) {
		once.Do(func() { h = testServer(t, Config{}).Handler() })
		req := httptest.NewRequest("GET", fuzzEndpoints[int(endpoint)%len(fuzzEndpoints)], nil)
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%s?%s: status %d: %s", req.URL.Path, query, rec.Code, rec.Body.String())
		}
		if rec.Code != http.StatusOK {
			return
		}
		var body fuzzBody
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s?%s: undecodable 200: %v", req.URL.Path, query, err)
		}
		again := httptest.NewRecorder()
		h.ServeHTTP(again, req)
		if !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
			t.Fatalf("%s?%s: the repeat answered %d %s, the first 200 %s", req.URL.Path, query, again.Code, again.Body, rec.Body)
		}
		echoes(t, req, body)
		if req.URL.Path == "/v1/evolution" {
			if _, ok := slices.BinarySearch(corpus(t).Licensees(), body.Licensee); !ok {
				t.Fatalf("%s?%s: 200 for licensee %q, which the corpus does not have", req.URL.Path, query, body.Licensee)
			}
		}
		check := func(pathName string, rows []fuzzRow) {
			from, to, _ := strings.Cut(pathName, "-")
			a, okA := sites.ByCode(from)
			b, okB := sites.ByCode(to)
			if !okA || !okB || a.Code == b.Code {
				t.Fatalf("%s?%s: 200 names path %q, want two distinct data centers", req.URL.Path, query, pathName)
			}
			floor := units.CLatency(sites.Path{From: a, To: b}.GeodesicMeters()).Microseconds()
			for _, r := range rows {
				if r.LatencyMicros != nil && *r.LatencyMicros < floor*(1-1e-9) {
					t.Fatalf("%s?%s: latency %v µs beats the %v µs c-bound of %s", req.URL.Path, query, *r.LatencyMicros, floor, pathName)
				}
				if r.APA != nil && !(*r.APA >= 0 && *r.APA <= 1) {
					t.Fatalf("%s?%s: APA %v outside [0, 1]", req.URL.Path, query, *r.APA)
				}
			}
		}
		if req.URL.Path == "/v1/rank" {
			for _, p := range body.Paths {
				check(p.Path, p.Ranked)
			}
			return
		}
		rows := append(body.Networks, body.Complementary...)
		for _, p := range body.Points {
			if p.Connected {
				rows = append(rows, fuzzRow{LatencyMicros: &p.LatencyMicros})
			}
		}
		check(body.Path, rows)
	})
}

// echoes fails t unless a 200 body answers exactly what req asked:
// the canonical date, the path, the licensee, at most top rows per
// ranked path, and evolution points within the from/to years.
func echoes(t *testing.T, req *http.Request, body fuzzBody) {
	t.Helper()
	q := req.URL.Query()
	date, derr := parseDate(q)
	path, perr := parsePath(q)
	switch req.URL.Path {
	case "/v1/snapshot", "/v1/apa":
		if derr != nil || perr != nil || body.Date != date.String() || body.Path != path.Name() {
			t.Fatalf("%s?%s: 200 for %s on %s, asked %v (%v) on %v (%v)", req.URL.Path, req.URL.RawQuery,
				body.Date, body.Path, date, derr, path.Name(), perr)
		}
	case "/v1/rank":
		top, err := parseInt(q, "top", 0)
		if derr != nil || err != nil || body.Date != date.String() {
			t.Fatalf("%s?%s: 200 for %s, asked %v (%v, %v)", req.URL.Path, req.URL.RawQuery, body.Date, date, derr, err)
		}
		for _, p := range body.Paths {
			if top > 0 && len(p.Ranked) > top {
				t.Fatalf("%s?%s: %d networks ranked on %s, asked for at most %d", req.URL.Path, req.URL.RawQuery,
					len(p.Ranked), p.Path, top)
			}
		}
	case "/v1/evolution":
		from, to, err := parseYears(q)
		if perr != nil || err != nil || body.Path != path.Name() || body.Licensee != q.Get("licensee") {
			t.Fatalf("%s?%s: 200 for %q on %s, asked %q on %v (%v, %v)", req.URL.Path, req.URL.RawQuery,
				body.Licensee, body.Path, q.Get("licensee"), path.Name(), perr, err)
		}
		for _, p := range body.Points {
			d, err := uls.ParseDate(p.Date)
			if err != nil || d.Year < from || d.Year > to {
				t.Fatalf("%s?%s: a point at %q (%v), asked for %d-%d", req.URL.Path, req.URL.RawQuery, p.Date, err, from, to)
			}
		}
	}
}

// FuzzWatchLastEventID resumes /v1/watch with arbitrary Last-Event-ID
// headers over arbitrary year windows. Whatever the input: no panic,
// and the answer is a 200, 400 or 409; a 200 stream's frame seqs are
// consecutive and it ends at eof. Seeded with a resume past the diffs
// of a window that has none (Webline Holdings files nothing in 1990),
// which once crashed the server.
func FuzzWatchLastEventID(f *testing.F) {
	for _, seed := range []struct {
		lastID   string
		from, to int
	}{
		{"1.2", 1990, 1990},
		{"1.1000", 1990, 1991},
		{"", 2013, 2020},
		{"1.0", 2016, 2017},
		{"1.1", 2013, 2020},
		{"1.4", 2013, 2020},
		{"1.1000", 2013, 2020},
		{"-1", 2019, 2019},
		{"2.3", 2013, 2020},
		{"1.x", 2013, 2020},
		{"1.-4", 2013, 2020},
		{"1", 2013, 2020},
		{"1.2", 2020, 2013},
	} {
		f.Add(seed.lastID, seed.from, seed.to)
	}
	var once sync.Once
	var h http.Handler
	f.Fuzz(func(t *testing.T, lastID string, from, to int) {
		once.Do(func() { h = testServer(t, Config{}).Handler() })
		req := httptest.NewRequest("GET", fmt.Sprintf("/v1/watch?licensee=Webline+Holdings&from=%d&to=%d", from, to), nil)
		req.Header.Set("Last-Event-ID", lastID)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusConflict:
			return
		case http.StatusOK:
		default:
			t.Fatalf("from=%d to=%d Last-Event-ID %q: status %d: %s", from, to, lastID, rec.Code, rec.Body.String())
		}
		events, _ := parseSSE(rec.Body)
		if len(events) == 0 || events[len(events)-1].event != "eof" {
			t.Fatalf("from=%d to=%d Last-Event-ID %q: stream %+v does not end at eof", from, to, lastID, events)
		}
		_, prev := watchID(t, events[0].id)
		for _, ev := range events[1:] {
			if _, seq := watchID(t, ev.id); seq != prev+1 {
				t.Fatalf("from=%d to=%d Last-Event-ID %q: seq %d follows %d", from, to, lastID, seq, prev)
			} else {
				prev = seq
			}
		}
	})
}
