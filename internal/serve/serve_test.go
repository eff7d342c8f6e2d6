package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hftnetview/internal/core"
	"hftnetview/internal/sites"
	"hftnetview/internal/synth"
	"hftnetview/internal/uls"
)

var (
	corpusOnce sync.Once
	corpusDB   *uls.Database
	corpusErr  error
)

func corpus(t testing.TB) *uls.Database {
	t.Helper()
	corpusOnce.Do(func() { corpusDB, corpusErr = synth.Generate() })
	if corpusErr != nil {
		t.Fatalf("synth.Generate: %v", corpusErr)
	}
	return corpusDB
}

func testServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	s.SetCorpus(corpus(t), "test corpus")
	return s
}

func get(t testing.TB, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec
}

func decode[T any](t testing.TB, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
	return v
}

type snapshotResp struct {
	Date       string `json:"date"`
	Path       string `json:"path"`
	Generation int64  `json:"generation"`
	Networks   []struct {
		Licensee      string  `json:"licensee"`
		LatencyMicros float64 `json:"latency_us"`
		APA           float64 `json:"apa"`
		Towers        int     `json:"towers"`
		Hops          int     `json:"hops"`
	} `json:"networks"`
}

// TestSnapshotEndpointMatchesDirect: the HTTP rows must equal the
// one-shot analysis over the same corpus.
func TestSnapshotEndpointMatchesDirect(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()

	rec := get(t, h, "/v1/snapshot?date=2020-04-01&path=CME-NY4")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	got := decode[snapshotResp](t, rec)

	want, err := core.ConnectedNetworksVia(core.DirectProvider(corpus(t)),
		uls.NewDate(2020, time.April, 1),
		sites.Path{From: sites.CME, To: sites.NY4}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Networks) != len(want) || len(want) == 0 {
		t.Fatalf("rows = %d, want %d (nonzero)", len(got.Networks), len(want))
	}
	for i, row := range got.Networks {
		if row.Licensee != want[i].Licensee {
			t.Errorf("row %d licensee = %q, want %q", i, row.Licensee, want[i].Licensee)
		}
		if row.LatencyMicros != want[i].Latency.Microseconds() {
			t.Errorf("row %d latency = %v, want %v", i, row.LatencyMicros, want[i].Latency.Microseconds())
		}
		if row.APA != want[i].APA || row.Towers != want[i].TowerCount || row.Hops != want[i].HopCount {
			t.Errorf("row %d = %+v, want %+v", i, row, want[i])
		}
	}
	if got.Date != "04/01/2020" || got.Path != "CME-NY4" || got.Generation != 1 {
		t.Errorf("envelope = %s/%s/gen %d, want 04/01/2020/CME-NY4/gen 1",
			got.Date, got.Path, got.Generation)
	}
}

func TestRankEndpoint(t *testing.T) {
	s := testServer(t, Config{})
	rec := get(t, s.Handler(), "/v1/rank?top=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	got := decode[struct {
		Paths []struct {
			Path   string `json:"path"`
			Ranked []struct {
				Licensee string `json:"licensee"`
			} `json:"ranked"`
		} `json:"paths"`
	}](t, rec)
	if len(got.Paths) != 3 {
		t.Fatalf("paths = %d, want the 3 corridor paths", len(got.Paths))
	}
	for _, p := range got.Paths {
		if len(p.Ranked) == 0 || len(p.Ranked) > 3 {
			t.Errorf("path %s ranked %d networks, want 1..3", p.Path, len(p.Ranked))
		}
	}
}

func TestEvolutionEndpoint(t *testing.T) {
	s := testServer(t, Config{})
	rec := get(t, s.Handler(), "/v1/evolution?licensee=New+Line+Networks&from=2016&to=2020")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	got := decode[struct {
		Licensee string `json:"licensee"`
		Points   []struct {
			Date      string `json:"date"`
			Connected bool   `json:"connected"`
		} `json:"points"`
	}](t, rec)
	if len(got.Points) != 5 {
		t.Fatalf("points = %d, want 5 (2016..2020)", len(got.Points))
	}
	anyConnected := false
	for _, p := range got.Points {
		anyConnected = anyConnected || p.Connected
	}
	if !anyConnected {
		t.Error("no connected point for New Line Networks 2016-2020")
	}
}

func TestAPAEndpoint(t *testing.T) {
	s := testServer(t, Config{})
	rec := get(t, s.Handler(), "/v1/apa")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	got := decode[struct {
		Networks []struct {
			Licensee string  `json:"licensee"`
			APA      float64 `json:"apa"`
		} `json:"networks"`
		Complementary []struct {
			Pair string `json:"pair"`
		} `json:"complementary_pairs"`
	}](t, rec)
	if len(got.Networks) == 0 {
		t.Fatal("no APA rows")
	}
	for _, n := range got.Networks {
		if n.APA < 0 || n.APA > 1 {
			t.Errorf("%s APA = %v, want [0,1]", n.Licensee, n.APA)
		}
	}
}

func TestBadParams(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	for _, url := range []string{
		"/v1/snapshot?date=not-a-date",
		"/v1/snapshot?path=CME",
		"/v1/snapshot?path=CME-LHR",
		"/v1/rank?top=many",
		"/v1/evolution", // missing licensee
		"/v1/evolution?licensee=X&from=2020&to=2013",
		// Years outside [minQueryYear, maxQueryYear]: unbounded, one
		// such request asks for billions of sample dates.
		"/v1/evolution?licensee=X&from=-1000000000&to=1000000000",
		"/v1/evolution?licensee=X&from=1989&to=2020",
		"/v1/evolution?licensee=X&from=2013&to=2101",
		"/v1/evolution?licensee=X&to=1900", // default from=2013 is fine, to is not
		// A path needs two distinct data centers: from a data center to
		// itself every network would connect at 0 µs.
		"/v1/snapshot?path=CME-CME",
		"/v1/apa?path=NY4-NY4",
		"/v1/evolution?licensee=x&path=CME-CME",
		"/v1/watch?licensee=x&path=nyse-NYSE",
	} {
		if rec := get(t, h, url); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", url, rec.Code)
		}
	}
	// The range's own endpoints are accepted.
	url := fmt.Sprintf("/v1/evolution?licensee=New+Line+Networks&from=%d&to=%d", minQueryYear, maxQueryYear)
	if rec := get(t, h, url); rec.Code != http.StatusOK {
		t.Errorf("%s: status = %d, want 200", url, rec.Code)
	}
}

// TestUnknownLicenseeNotFound: a licensee the serving corpus never
// filed under is a 404 on the two per-licensee endpoints — names match
// exactly, case included. The check runs before the circuit breaker:
// with the breaker open, known names shed with 503 but unknown ones
// still answer 404, and no 404 counts as an engine failure.
func TestUnknownLicenseeNotFound(t *testing.T) {
	s := testServer(t, Config{BreakerThreshold: 1, BreakerCooldown: time.Hour})
	h := s.Handler()
	urls := []string{
		"/v1/evolution?licensee=X",
		"/v1/evolution?licensee=No+Such+Networks&path=CME-NYSE&from=2016&to=2018",
		"/v1/evolution?licensee=new+line+networks",
		"/v1/watch?licensee=X",
		"/v1/watch?licensee=No+Such+Networks&from=2016&speed=0",
	}
	check := func() {
		t.Helper()
		for _, url := range urls {
			if rec := get(t, h, url); rec.Code != http.StatusNotFound {
				t.Errorf("%s: status = %d, want 404", url, rec.Code)
			}
		}
	}
	check()
	if st := s.Stats(); st.Failures != 0 || st.Breaker.Consecutive != 0 {
		t.Errorf("404s reached the breaker: %+v, %d engine failures", st.Breaker, st.Failures)
	}

	done, err := s.breaker.Allow()
	if err != nil {
		t.Fatal(err)
	}
	done(true) // one failure trips a threshold-1 breaker
	if rec := get(t, h, "/v1/evolution?licensee=New+Line+Networks"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("known licensee with the breaker open: status = %d, want 503", rec.Code)
	}
	check()
}

// TestUnknownLicenseeNoMemo gates the memo bound (make bench-gate):
// 2,000 distinct unknown names on /v1/evolution and /v1/watch add no
// memo entry, so a publish carries over only what the known names
// built. The count is deterministic; answering the names would add one
// entry per name and request shape.
func TestUnknownLicenseeNoMemo(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	if rec := get(t, h, "/v1/evolution?licensee=New+Line+Networks"); rec.Code != http.StatusOK {
		t.Fatalf("known licensee: status %d", rec.Code)
	}
	warm := s.Stats().Engine.Entries
	for i := 0; i < 2000; i++ {
		name := fmt.Sprintf("Unknown+Licensee+%04d", i)
		for _, u := range []string{"/v1/evolution?licensee=" + name, "/v1/watch?speed=0&licensee=" + name} {
			if rec := get(t, h, u); rec.Code != http.StatusNotFound {
				t.Fatalf("%s: status %d, want 404", u, rec.Code)
			}
		}
	}
	st := s.Stats().Engine
	t.Logf("memo: %d entries after one known and 2,000 unknown licensees (%d before the unknown ones)", st.Entries, warm)
	if st.Entries != warm {
		t.Fatalf("unknown licensees grew the memo from %d to %d entries", warm, st.Entries)
	}
	s.SetCorpus(corpus(t), "same corpus again")
	if got := s.Stats().Engine.Inherited; got != int64(warm) {
		t.Fatalf("publish carried over %d entries, want %d", got, warm)
	}
}

// TestCompactBodies: every /v1 answer and error is one compact JSON
// line plus a newline, sent in full with a Content-Length equal to its
// size. The service used to send these bodies indented, which is the
// same encoding run through json.Indent, so each must decode to the
// same value as its indented form.
func TestCompactBodies(t *testing.T) {
	h := testServer(t, Config{}).Handler()
	for _, url := range []string{
		"/v1/snapshot?path=CME-NY4&date=2020-04-01",
		"/v1/snapshot?path=NY4-NYSE&date=2016-01-01",
		"/v1/rank?date=2020-04-01",
		"/v1/rank?top=2",
		"/v1/evolution?licensee=New+Line+Networks&path=CME-NY4",
		"/v1/evolution?licensee=Webline+Holdings&path=CME-NASDAQ&from=2015&to=2017",
		"/v1/apa?path=CME-NY4&date=2020-04-01",
		"/v1/apa?path=CME-NYSE&date=2018-06-30",
		"/v1/snapshot?date=not-a-date",
		"/v1/evolution?licensee=No+Such+Networks",
		"/readyz",
		"/statsz",
	} {
		rec := get(t, h, url)
		body := rec.Body.Bytes()
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", url, cl, len(body))
		}
		line, rest, ok := bytes.Cut(body, []byte("\n"))
		if !ok || len(rest) != 0 {
			t.Errorf("%s: body is not one line plus a newline: %q", url, body)
			continue
		}
		var compact, indented bytes.Buffer
		if err := json.Compact(&compact, line); err != nil || !bytes.Equal(compact.Bytes(), line) {
			t.Errorf("%s: body is not compact JSON (%v): %s", url, err, line)
			continue
		}
		if err := json.Indent(&indented, line, "", "  "); err != nil {
			t.Fatal(err)
		}
		var got, want any
		if err := json.Unmarshal(line, &got); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
		if err := json.Unmarshal(indented.Bytes(), &want); err != nil {
			t.Fatalf("%s: %v", url, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: compact body decodes to %v, its indented form to %v", url, got, want)
		}
	}
}

// TestWriteJSONEncodeError: a value that cannot be encoded answers 500
// with the error envelope, never an empty 200.
func TestWriteJSONEncodeError(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, map[string]float64{"latency_us": math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if got := decode[errorBody](t, rec); !strings.Contains(got.Error, "encoding response") {
		t.Errorf("error = %q, want it to name the failed encode", got.Error)
	}
}

func TestHealthEndpoints(t *testing.T) {
	// No corpus: alive but not ready.
	s := New(Config{})
	h := s.Handler()
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", rec.Code)
	}
	rec := get(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz without corpus = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("readyz 503 missing Retry-After")
	}
	// Queries without a corpus are 503, not 500.
	if rec := get(t, h, "/v1/snapshot"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query without corpus = %d, want 503", rec.Code)
	}

	s.SetCorpus(corpus(t), "test corpus")
	rec = get(t, h, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz with corpus = %d, want 200", rec.Code)
	}
	body := decode[readyzBody](t, rec)
	if !body.Ready || body.Generation == nil || body.Generation.Licenses == 0 {
		t.Errorf("readyz body = %+v, want ready with a populated generation", body)
	}
}

func TestStatszCounters(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	for i := 0; i < 3; i++ {
		if rec := get(t, h, "/v1/snapshot"); rec.Code != http.StatusOK {
			t.Fatalf("warmup %d: status %d", i, rec.Code)
		}
	}
	rec := get(t, h, "/statsz")
	if rec.Code != http.StatusOK {
		t.Fatalf("statsz = %d", rec.Code)
	}
	st := decode[ServeStats](t, rec)
	if st.Requests != 3 {
		t.Errorf("requests = %d, want 3", st.Requests)
	}
	if st.Engine == nil || st.Engine.Rebuilds == 0 {
		t.Errorf("engine stats = %+v, want nonzero rebuilds", st.Engine)
	}
	// The first request asks the engine for the 12 licensees within
	// reach; the two repeats are answered with its stored body.
	if st.Engine != nil && (st.Engine.Hits != 0 || st.Engine.Misses != 12) {
		t.Errorf("engine hits/misses = %d/%d after three identical queries, want 0/12",
			st.Engine.Hits, st.Engine.Misses)
	}
	if st.Answers == nil || st.Answers.Hits != 2 || st.Answers.Misses != 1 {
		t.Errorf("answers = %+v, want 2 hits and 1 miss", st.Answers)
	}
	if st.Breaker.State != "closed" {
		t.Errorf("breaker state = %q, want closed", st.Breaker.State)
	}
}

// TestBreakerTripsOnEngineTimeouts: queries that blow the rebuild
// budget 504 and, after enough consecutive failures, trip the breaker
// into fast 503s.
func TestBreakerTripsOnEngineTimeouts(t *testing.T) {
	s := New(Config{
		// A 1ns rebuild budget makes every cold snapshot wait expire
		// deterministically: the first query over a cold engine can
		// never have every reconstruction already memoized.
		RebuildTimeout:   time.Nanosecond,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	})
	s.SetCorpus(corpus(t), "test corpus")
	h := s.Handler()

	rec := get(t, h, "/v1/snapshot")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("timeout query: status = %d, want 504 (body %s)", rec.Code, rec.Body.String())
	}
	rec = get(t, h, "/v1/snapshot")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-trip query: status = %d, want 503 from open breaker", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("breaker 503 missing Retry-After")
	}
	st := s.Stats()
	if st.Breaker.State != "open" || st.BreakerReject == 0 || st.Failures < 1 {
		t.Errorf("stats = breaker %+v, rejects %d, failures %d; want open/1+/1+",
			st.Breaker, st.BreakerReject, st.Failures)
	}
	// readyz surfaces the open breaker but stays ready (old corpus
	// still pinned; liveness decisions belong to the operator).
	rb := decode[readyzBody](t, get(t, h, "/readyz"))
	if rb.Breaker != "open" {
		t.Errorf("readyz breaker = %q, want open", rb.Breaker)
	}
}
