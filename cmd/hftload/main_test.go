package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var (
	envOnce sync.Once
	testEnv *env
	envErr  error
)

// sharedEnv builds the corpus and oracle once for every test.
func sharedEnv(t *testing.T) *env {
	t.Helper()
	envOnce.Do(func() { testEnv, envErr = newEnv() })
	if envErr != nil {
		t.Fatal(envErr)
	}
	return testEnv
}

func workloadNamed(t *testing.T, e *env, name string) workload {
	t.Helper()
	for _, w := range workloads(e.names) {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}

// smokeConfig runs a workload for 1 s at 10 rps with every check on.
func smokeConfig(t *testing.T, traced bool) config {
	return config{
		seed:         7,
		warm:         200 * time.Millisecond,
		measure:      time.Second,
		sat:          300 * time.Millisecond,
		setups:       2,
		trace:        traced,
		workdir:      t.TempDir(),
		spansDir:     t.TempDir(),
		publishEvery: 250 * time.Millisecond,
		rate:         10,
	}
}

func TestSameSeedSameRequests(t *testing.T) {
	e := sharedEnv(t)
	for _, w := range workloads(e.names) {
		a := makePlan(w, 42, time.Second, 5*time.Second)
		b := makePlan(w, 42, time.Second, 5*time.Second)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from seed 42 differ", w.name)
		}
		if !reflect.DeepEqual(satRequests(w, 42, time.Second), satRequests(w, 42, time.Second)) {
			t.Errorf("%s: two closed-loop lists from seed 42 differ", w.name)
		}
		c := makePlan(w, 43, time.Second, 5*time.Second)
		if reflect.DeepEqual(a.sched, c.sched) || reflect.DeepEqual(a.reqs, c.reqs) {
			t.Errorf("%s: seeds 42 and 43 gave the same schedule or requests", w.name)
		}
	}
}

func TestPoissonMeanMatchesRate(t *testing.T) {
	const rate, secs = 150.0, 2000
	sched := poissonSchedule(rngFor(1, "test", "arrivals"), rate, secs*time.Second)
	got := float64(len(sched)) / secs
	if math.Abs(got-rate)/rate > 0.02 {
		t.Fatalf("mean rate %.2f/s, want within 2%% of %.0f/s", got, rate)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i] < sched[i-1] {
			t.Fatalf("arrival %d at %v before arrival %d at %v", i, sched[i], i-1, sched[i-1])
		}
	}
}

func TestPercentileIsRankBased(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100 … 1: unsorted input
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {99.5, 100}, {100, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1…100 = %g, want %g", c.p, got, c.want)
		}
	}
	// Never interpolated: every answer is a sample.
	if got := percentile([]float64{1, 10}, 50); got != 1 {
		t.Errorf("p50 of {1, 10} = %g, want the sample 1", got)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{19, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// TestPacedLoopSendsOneAtATime schedules every request at once against
// a server that takes 20 ms per answer: the loop must send them one
// after another, count each latency from its own send (not from the
// schedule), and send nothing after its cutoff.
func TestPacedLoopSendsOneAtATime(t *testing.T) {
	var inFlight atomic.Int32
	var overlapped atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if inFlight.Add(1) > 1 {
			overlapped.Store(true)
		}
		defer inFlight.Add(-1)
		time.Sleep(20 * time.Millisecond)
	}))
	defer srv.Close()
	x := &exchanger{base: srv.URL, check: func(request, http.Header, []byte) error { return nil }}
	const n = 10
	reqs, sched := make([]request, n), make([]time.Duration, n)
	measured := false
	outs := x.pacedLoop(time.Now(), reqs, sched, 2, 100*time.Millisecond, func() { measured = true })

	if !measured {
		t.Error("onMeasure never ran")
	}
	if overlapped.Load() {
		t.Error("two requests were in flight at once")
	}
	sent := latencies(outs)
	if len(sent) < 3 || len(sent) > 7 {
		t.Fatalf("%d of %d requests sent before a 100-ms cutoff at 20 ms each", len(sent), n)
	}
	for i, l := range sent {
		if l < 20 || l > 200 {
			t.Errorf("request %d: latency %.1f ms, want about 20 ms from its own send", i, l)
		}
	}
	if w := queueWaits(outs); w[len(w)-1] < 40 {
		t.Errorf("last sent request waited %.1f ms behind the others, want ≥ 40", w[len(w)-1])
	}
	if !outs[n-1].unsent() || countFailed(outs) != 0 {
		t.Errorf("last request: %v; %d failed, want not sent and none failed", outs[n-1].err, countFailed(outs))
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestInvariantsRejectImpossibleAnswers(t *testing.T) {
	e := sharedEnv(t)
	snap := e.keys[0] // Table 1 on CME-NY4: ~3956 µs at c
	for _, c := range []struct{ name, body string }{
		{"faster than light", `{"networks": [{"latency_us": 3900, "apa": 0.5}]}`},
		{"out of order", `{"networks": [{"latency_us": 4000, "apa": 0.5}, {"latency_us": 3990, "apa": 0.5}]}`},
		{"APA above 1", `{"networks": [{"latency_us": 4000, "apa": 1.5}]}`},
	} {
		if invariants(snap, []byte(c.body)) == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if err := invariants(snap, []byte(`{"networks": [{"latency_us": 3961.7, "apa": 0.9}, {"latency_us": 3970, "apa": 0}]}`)); err != nil {
		t.Errorf("plausible answer rejected: %v", err)
	}
	evo := request{ep: epEvolution, licensee: "x", path: snap.path, from: 2019, to: 2020}
	if invariants(evo, []byte(`{"points": [{"date": "04/01/2020"}, {"date": "01/01/2019"}]}`)) == nil {
		t.Error("points out of date order accepted")
	}
}

// TestSmoke runs every workload for 1 s at 10 rps, untraced and traced,
// with every answer checked, and asserts each prints every metric
// BENCHMARK.json names, with its unit.
func TestSmoke(t *testing.T) {
	path, err := findDefinition()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	e := sharedEnv(t)
	for _, wd := range def.Workloads {
		w := workloadNamed(t, e, wd.Name)
		for _, traced := range []bool{false, true} {
			want := def.EndToEnd
			if traced {
				want = def.PerLayer
			}
			t.Run(w.name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				t.Parallel()
				res, err := runWorkload(smokeConfig(t, traced), w, e)
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 || res.attempted == 0 {
					t.Fatalf("correct=%v failed=%d attempted=%d: %v", res.correct, res.failed, res.attempted, res.notes)
				}
				var out bytes.Buffer
				printResult(&out, smokeConfig(t, traced), res)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var summary struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
					t.Fatalf("last line is not the JSON summary: %v", err)
				}
				if len(summary.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(summary.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := summary.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !strings.Contains(out.String(), m.Name+" "):
						t.Errorf("metric %s missing from the human-readable lines", m.Name)
					}
				}
			})
		}
	}
}

// TestCorruptOracleFailsTheRun damages one oracle entry and expects the
// run to exit 1: the correctness check is live.
func TestCorruptOracleFailsTheRun(t *testing.T) {
	e := sharedEnv(t)
	cfg := smokeConfig(t, false)
	rank := request{ep: epRank, date: paperDate}.uri()
	cfg.corrupt = func(o oracle) {
		if _, ok := o[rank]; !ok {
			t.Fatalf("no oracle entry for %s", rank)
		}
		o[rank] = map[string]any{"paths": "tampered"}
	}
	var out, errs bytes.Buffer
	if code := runAll(cfg, e, []workload{workloadNamed(t, e, "hot-tables")}, 1, &out, &errs); code != 1 {
		t.Fatalf("exit %d with a corrupted oracle, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errs.String())
	}
	if !strings.Contains(errs.String()+out.String(), "differs from the oracle") {
		t.Errorf("the failure does not name the oracle mismatch:\n%s%s", out.String(), errs.String())
	}
}
