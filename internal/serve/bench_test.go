package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"hftnetview/internal/synth"
	"hftnetview/internal/uls"
)

// The admission queue and circuit breaker sit on every request, so
// their no-contention fast paths must cost nanoseconds, not
// microseconds. `make bench` emits these as JSON alongside the E1–E18
// suite.

// BenchmarkAdmissionFastPath: Acquire+Release with a free slot (the
// overload-free common case; no timer may be allocated here).
func BenchmarkAdmissionFastPath(b *testing.B) {
	l := NewLimiter(64, 100*time.Millisecond)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Acquire(ctx); err != nil {
			b.Fatal(err)
		}
		l.Release()
	}
}

// BenchmarkAdmissionFastPathParallel: the same fast path under
// GOMAXPROCS-way contention on the slot channel.
func BenchmarkAdmissionFastPathParallel(b *testing.B) {
	l := NewLimiter(64, 100*time.Millisecond)
	ctx := context.Background()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := l.Acquire(ctx); err != nil {
				b.Fatal(err)
			}
			l.Release()
		}
	})
}

// BenchmarkBreakerFastPath: Allow+done(success) on a closed breaker
// (every healthy request pays this).
func BenchmarkBreakerFastPath(b *testing.B) {
	br := NewBreaker(5, 5*time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := br.Allow()
		if err != nil {
			b.Fatal(err)
		}
		done(false)
	}
}

// BenchmarkBreakerOpenRejection: the shed path while the breaker is
// open — rejections must be at least as cheap as admissions.
func BenchmarkBreakerOpenRejection(b *testing.B) {
	br := NewBreaker(1, time.Hour)
	done, err := br.Allow()
	if err != nil {
		b.Fatal(err)
	}
	done(true) // trip
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := br.Allow(); err == nil {
			b.Fatal("breaker unexpectedly closed")
		}
	}
}

// BenchmarkMiddlewareStack: one request through the full resilience
// stack (recovery → counting → admission → deadline) to a no-op
// handler — the serving overhead on top of handler work.
func BenchmarkMiddlewareStack(b *testing.B) {
	s := New(Config{})
	noop := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	h := s.withRecovery(s.withCounting(s.withAdmission(s.withDeadline(noop))))
	req := httptest.NewRequest("GET", "/v1/snapshot", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkWarmQuery: one warm request to each /v1 endpoint at the
// paper date through Server.Handler, on the synthetic corpus (1x) and
// on ten times its licensees (10x: nine copies of every licensee's
// filings moved out of fiber reach, synth.DistantCopies), so the
// sizes differ only in what cannot reach the corridor. Each sub-
// benchmark warms a fresh server's memo with one request first, then
// reports the process CPU a request costs (cpu-ns/op: getrusage user
// plus system time around the timed loop, so it counts the goroutines
// a request fans out to and the garbage collector, which wall-clock
// ns/op hides on a machine with few cores), the engine lookups a
// request makes (lookups/op), the answers served from the generation's
// answer cache (answer-hits/op) and the memo entries its key set holds
// (memo-entries).
//
// A repeated request is an answer-cache hit. The -miss variants of the
// dated endpoints ask a different date on every iteration, each after
// the corpus's last license event, so every date re-keys onto the
// same event anchor as the paper date: the memo hits and the answer
// misses, which times the analysis and the encode. E18's in-process
// tables come from
//
//	go test -run '^$' -bench BenchmarkWarmQuery -benchmem -cpu 2 ./internal/serve/
func BenchmarkWarmQuery(b *testing.B) {
	far, err := synth.DistantCopies(corpus(b), 9)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		db   *uls.Database
	}{{"1x", corpus(b)}, {"10x", far}} {
		for _, q := range []struct{ name, url string }{
			{"snapshot", "/v1/snapshot?path=CME-NY4&date=2020-04-01"},
			{"rank", "/v1/rank?date=2020-04-01"},
			{"evolution", "/v1/evolution?licensee=New+Line+Networks&path=CME-NY4"},
			{"apa", "/v1/apa?path=CME-NY4&date=2020-04-01"},
			{"watch", "/v1/watch?licensee=New+Line+Networks&path=CME-NY4&from=2020&to=2020&speed=0"},
		} {
			b.Run(c.name+"/"+q.name, func(b *testing.B) {
				warmQuery(b, c.db, []*http.Request{httptest.NewRequest("GET", q.url, nil)})
			})
			if !strings.Contains(q.url, "date=2020-04-01") {
				continue
			}
			b.Run(c.name+"/"+q.name+"-miss", func(b *testing.B) {
				// More dates than the answer cache holds bodies, so a date
				// comes round again only after the cache has started over.
				reqs := make([]*http.Request, 1000)
				for i := range reqs {
					date := uls.NewDate(2020, time.April, 1).AddDays(i).Time().Format("2006-01-02")
					reqs[i] = httptest.NewRequest("GET", strings.Replace(q.url, "2020-04-01", date, 1), nil)
				}
				warmQuery(b, c.db, reqs)
			})
		}
	}
}

// warmQuery times reqs through a fresh server over db, round robin,
// after reqs[0] has warmed its memo.
func warmQuery(b *testing.B, db *uls.Database, reqs []*http.Request) {
	s := New(Config{})
	s.SetCorpus(db, "warm query benchmark")
	h := s.Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, reqs[0])
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status %d, body %s", reqs[0].URL, rec.Code, rec.Body.String())
	}
	lookups := func() int64 {
		st := s.Stats().Engine
		return st.Hits + st.Misses + st.Coalesced
	}
	before, hits := lookups(), s.Stats().Answers.Hits
	b.ReportAllocs()
	cpu := processCPU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := reqs[(i+1)%len(reqs)]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d", req.URL, rec.Code)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(processCPU()-cpu)/float64(b.N), "cpu-ns/op")
	b.ReportMetric(float64(lookups()-before)/float64(b.N), "lookups/op")
	b.ReportMetric(float64(s.Stats().Answers.Hits-hits)/float64(b.N), "answer-hits/op")
	b.ReportMetric(float64(s.Stats().Engine.Entries), "memo-entries")
}

// processCPU is the user plus system CPU time the process has run so
// far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// getrusage fails only for an unknown "who" or a bad buffer address,
	// and RUSAGE_SELF with a local buffer is neither.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
