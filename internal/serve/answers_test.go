package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"hftnetview/internal/store"
	"hftnetview/internal/uls"
)

// TestAnswerCache: a generation answers a query it has already
// answered with the stored bytes and the pinned generation's identity
// headers, without the engine; one parsed query is one entry; only
// 200s are stored; a publish starts over; an open breaker still
// answers what is stored; and the stored bodies never pass answerCap.
func TestAnswerCache(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{BreakerThreshold: 1, BreakerCooldown: time.Hour})
	s.AttachStore(st)
	t.Cleanup(func() { s.CloseStore() })
	s.SetCorpus(corpus(t), "answer cache")
	h := s.Handler()
	lookups := func() int64 {
		e := s.Stats().Engine
		return e.Hits + e.Misses + e.Coalesced
	}
	answers := func() AnswerStats { return *s.Stats().Answers }
	ok := func(url string) *httptest.ResponseRecorder {
		t.Helper()
		rec := get(t, h, url)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", url, rec.Code, rec.Body.String())
		}
		return rec
	}

	// A repeat touches no engine and sends the same bytes and headers.
	for _, url := range []string{
		"/v1/snapshot?path=CME-NY4&date=2020-04-01",
		"/v1/rank?top=3",
		"/v1/evolution?licensee=New+Line+Networks&path=CME-NYSE",
		"/v1/apa?path=CME-NASDAQ",
	} {
		first := ok(url)
		before, ans := lookups(), answers()
		again := ok(url)
		if n := lookups() - before; n != 0 {
			t.Errorf("%s: the repeat made %d engine lookups, want 0", url, n)
		}
		if got := answers(); got.Hits != ans.Hits+1 || got.Misses != ans.Misses {
			t.Errorf("%s: answers %+v after the repeat, want one hit more than %+v", url, got, ans)
		}
		if !bytes.Equal(first.Body.Bytes(), again.Body.Bytes()) {
			t.Errorf("%s: the repeat's body differs:\n%s\n%s", url, first.Body, again.Body)
		}
		if !reflect.DeepEqual(first.Header(), again.Header()) {
			t.Errorf("%s: the repeat's headers %v differ from %v", url, again.Header(), first.Header())
		}
		if g := again.Header().Get("X-Corpus-Generation"); g != "1" || again.Header().Get("X-Corpus-Digest") == "" {
			t.Errorf("%s: the repeat names store generation %q and digest %q, want 1 and the corpus digest",
				url, g, again.Header().Get("X-Corpus-Digest"))
		}
	}

	// One question asked two ways is one entry; different questions are
	// different entries. Every URL here is new to the generation.
	for _, c := range []struct {
		a, b string
		same bool
	}{
		{"/v1/snapshot?path=cme-ny4&date=2019-06-30&x=1", "/v1/snapshot?date=06/30/2019&path=CME-NY4", true},
		{"/v1/snapshot?path=CME-NY4&date=2018-01-01", "/v1/snapshot?path=NY4-CME&date=2018-01-01", false},
		{"/v1/rank?top=3&date=2017-01-01", "/v1/rank?top=0&date=2017-01-01", false},
		{"/v1/evolution?licensee=New+Line+Networks&from=2013&to=2020", "/v1/evolution?licensee=New+Line+Networks&from=2014&to=2020", false},
		{"/v1/evolution?licensee=New+Line+Networks&from=2015&to=2020", "/v1/evolution?licensee=New+Line+Networks&from=2015&to=2019", false},
		{"/v1/evolution?licensee=New+Line+Networks&path=CME-NASDAQ", "/v1/evolution?licensee=Webline+Holdings&path=CME-NASDAQ", false},
	} {
		before := answers()
		a, b := ok(c.a), ok(c.b)
		got := answers()
		entries, misses, hits := got.Entries-before.Entries, got.Misses-before.Misses, got.Hits-before.Hits
		switch {
		case c.same && (entries != 1 || misses != 1 || hits != 1 || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes())):
			t.Errorf("%s and %s: %d entries, %d misses, %d hits, want the second to hit the first's one entry",
				c.a, c.b, entries, misses, hits)
		case !c.same && (entries != 2 || misses != 2 || hits != 0):
			t.Errorf("%s and %s: %d entries, %d misses, %d hits, want two entries",
				c.a, c.b, entries, misses, hits)
		}
	}

	// Errors are never stored.
	before := answers()
	for i := 0; i < 2; i++ {
		if rec := get(t, h, "/v1/snapshot?date=not-a-date"); rec.Code != http.StatusBadRequest {
			t.Fatalf("bad date: status %d, want 400", rec.Code)
		}
	}
	if got := answers(); got != before {
		t.Errorf("answers %+v after two 400s, want %+v", got, before)
	}
	slow := New(Config{RebuildTimeout: time.Nanosecond})
	slow.SetCorpus(corpus(t), "every rebuild times out")
	for i := 0; i < 2; i++ {
		if rec := get(t, slow.Handler(), "/v1/snapshot"); rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("request %d under a 1ns rebuild budget: status %d, want 504", i, rec.Code)
		}
	}
	if got := *slow.Stats().Answers; got != (AnswerStats{}) {
		t.Errorf("answers %+v after two 504s, want none", got)
	}

	// A publish starts an empty cache: the next answer is recomputed
	// from the new corpus and names the new generation.
	s.SetCorpus(oneLicenseeChanged(t, corpus(t), "Webline Holdings"), "one licensee changed")
	if got := answers(); got != (AnswerStats{}) {
		t.Errorf("answers %+v right after a publish, want none", got)
	}
	before0 := lookups()
	rec := ok("/v1/snapshot?path=CME-NY4&date=2020-04-01")
	if lookups() == before0 {
		t.Error("the first answer after a publish made no engine lookup")
	}
	if g := decode[snapshotResp](t, rec).Generation; g != 2 {
		t.Errorf("the first answer after a publish names generation %d, want 2", g)
	}
	if g := rec.Header().Get("X-Corpus-Generation"); g != "2" {
		t.Errorf("the first answer after a publish names store generation %q, want 2", g)
	}

	// An open breaker answers a stored query and sheds any other.
	done, err := s.breaker.Allow()
	if err != nil {
		t.Fatal(err)
	}
	done(true) // threshold 1: open for an hour
	if again := ok("/v1/snapshot?path=CME-NY4&date=2020-04-01"); !bytes.Equal(again.Body.Bytes(), rec.Body.Bytes()) {
		t.Error("an open breaker changed a stored answer")
	}
	if rec := get(t, h, "/v1/snapshot?path=CME-NYSE"); rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("a new query under an open breaker: status %d, Retry-After %q, want 503 with a hint",
			rec.Code, rec.Header().Get("Retry-After"))
	}

	// A walk over distinct dates encodes more than the cap; the stored
	// bytes never pass it, and every 200 is a hit or a miss.
	walk := testServer(t, Config{})
	wh := walk.Handler()
	served, encoded := int64(0), 0
	for day := 0; encoded <= 2*answerCap; day++ {
		url := "/v1/snapshot?date=" + uls.NewDate(2020, time.April, 1).AddDays(day).Time().Format("2006-01-02")
		for repeat := 0; repeat < 2; repeat++ {
			rec := get(t, wh, url)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d", url, rec.Code)
			}
			served++
			if repeat == 0 {
				encoded += rec.Body.Len()
			}
			if got := walk.Stats().Answers; got.Bytes > answerCap {
				t.Fatalf("%s: the cache holds %d bytes, over the %d cap", url, got.Bytes, answerCap)
			}
		}
	}
	got := *walk.Stats().Answers
	t.Logf("walk: %d answers, %d bytes encoded, cache %+v", served, encoded, got)
	if got.Hits+got.Misses != served || got.Hits != served/2 || got.Resets == 0 {
		t.Errorf("walk of %d 200s: answers %+v, want a hit for each repeat and at least one reset", served, got)
	}

	// A body larger than the cap is counted and not stored.
	var c answerCache
	c.put(answerKey{endpoint: "/v1/rank"}, make([]byte, answerCap+1))
	if got := c.stats(); got != (AnswerStats{Misses: 1}) {
		t.Errorf("an oversized body: answers %+v, want one miss and nothing stored", got)
	}
}

// TestAnswerCacheConcurrent: clients asking the same few questions at
// once, across a publish, each get a 200 whose bytes equal every other
// answer to that question from the same generation.
func TestAnswerCacheConcurrent(t *testing.T) {
	s := testServer(t, Config{})
	h := s.Handler()
	urls := []string{
		"/v1/snapshot?path=CME-NY4",
		"/v1/rank?top=3",
		"/v1/evolution?licensee=Webline+Holdings",
		"/v1/apa?path=CME-NYSE",
	}
	var mu sync.Mutex
	seen := make(map[string][]byte) // generation and URL -> first body
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				url := urls[(c+i)%len(urls)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
				var body struct{ Generation int64 }
				if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusOK || err != nil {
					t.Errorf("%s: status %d (%v), body %s", url, rec.Code, err, rec.Body)
					return
				}
				key := fmt.Sprint(body.Generation, url)
				mu.Lock()
				if first, ok := seen[key]; !ok {
					seen[key] = rec.Body.Bytes()
				} else if !bytes.Equal(first, rec.Body.Bytes()) {
					t.Errorf("%s: two answers from generation %d differ", url, body.Generation)
				}
				mu.Unlock()
			}
		}(c)
	}
	s.SetCorpus(corpus(t), "republished under load")
	wg.Wait()
}

// reusedWriter is a ResponseWriter an allocation count can reuse: it
// keeps its header map and discards the body, so only the handler's
// own allocations count.
type reusedWriter struct {
	header http.Header
	status int
}

func (w *reusedWriter) Header() http.Header         { return w.header }
func (w *reusedWriter) WriteHeader(status int)      { w.status = status }
func (w *reusedWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestAnswerHitAllocs gates the answer cache's hit path (make
// bench-gate): a repeated request on each /v1 query endpoint, through
// Server.Handler and its middleware, makes at most 20 allocations.
// Recomputing the answer made 55 (snapshot), 124 (rank), 69
// (evolution) and 118 (apa). Without the race detector, whose
// instrumentation allocates on its own.
func TestAnswerHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	h := testServer(t, Config{}).Handler()
	for _, url := range []string{
		"/v1/snapshot?path=CME-NY4&date=2020-04-01",
		"/v1/rank?date=2020-04-01",
		"/v1/evolution?licensee=New+Line+Networks&path=CME-NY4",
		"/v1/apa?path=CME-NY4&date=2020-04-01",
	} {
		req := httptest.NewRequest("GET", url, nil)
		w := &reusedWriter{header: http.Header{}}
		h.ServeHTTP(w, req)
		allocs := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) })
		if w.status != http.StatusOK {
			t.Fatalf("%s: status %d", url, w.status)
		}
		t.Logf("%s: %.0f allocations per repeat", url, allocs)
		if allocs > 20 {
			t.Errorf("%s: a repeat allocates %.0f times, want <= 20", url, allocs)
		}
	}
}
