package engine

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"hftnetview/internal/core"
	"hftnetview/internal/geo"
	"hftnetview/internal/radio"
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

var (
	pathNY4  = sites.Path{From: sites.CME, To: sites.NY4}
	snapshot = uls.NewDate(2020, time.April, 1)
)

func req(licensee string, date uls.Date, opts core.Options) core.SnapshotRequest {
	return core.SnapshotRequest{
		Licensees: []string{licensee},
		Date:      date,
		DCs:       sites.All,
		Opts:      opts,
	}
}

func TestSnapshotMemoization(t *testing.T) {
	e := New(corpus(t))
	a, err := e.Snapshot(req("Webline Holdings", snapshot, core.DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Snapshot(req("Webline Holdings", snapshot, core.DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Rebuilds != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 rebuild", st)
	}
	if a == b {
		t.Error("engine returned the same *Network header twice; wants one header per call")
	}
	if len(a.Links) != len(b.Links) || len(a.Towers) != len(b.Towers) {
		t.Errorf("snapshot mismatch: %d/%d links, %d/%d towers",
			len(a.Links), len(b.Links), len(a.Towers), len(b.Towers))
	}
	if &a.Links[0] != &b.Links[0] {
		t.Error("memo hit copied the links; wants them shared with the memoized network")
	}
}

// TestCacheKeyOptions: same db+date+licensee with differing Options
// must not share a snapshot.
func TestCacheKeyOptions(t *testing.T) {
	e := New(corpus(t))
	def := core.DefaultOptions()
	uncapped := def
	uncapped.FiberTailsPerDC = 0 // 0 = no per-DC cap: strictly more tails

	a, err := e.Snapshot(req("Webline Holdings", snapshot, def))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Snapshot(req("Webline Holdings", snapshot, uncapped))
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 misses, 0 hits (options must split keys)", st)
	}
	if len(b.Fiber) <= len(a.Fiber) {
		t.Errorf("uncapped fiber tails = %d, capped = %d; options leaked across keys",
			len(b.Fiber), len(a.Fiber))
	}

	// Different dates must split keys too.
	if _, err := e.Snapshot(req("Webline Holdings",
		uls.NewDate(2016, time.January, 1), def)); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Misses != 3 {
		t.Errorf("misses = %d after distinct-date request, want 3", st.Misses)
	}
}

// TestCacheKeyCanonicalization: licensee order, duplicate names, and DC
// order must not split keys.
func TestCacheKeyCanonicalization(t *testing.T) {
	e := New(corpus(t))
	def := core.DefaultOptions()
	reqs := []core.SnapshotRequest{
		{Licensees: []string{"New Line Networks", "Pierce Broadband"},
			Date: snapshot, DCs: sites.All, Opts: def},
		{Licensees: []string{"Pierce Broadband", "New Line Networks"},
			Date: snapshot, DCs: reversedDCs(), Opts: def},
		{Licensees: []string{"New Line Networks", "Pierce Broadband", "New Line Networks"},
			Date: snapshot, DCs: sites.All, Opts: def},
	}
	for _, r := range reqs {
		if _, err := e.Snapshot(r); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v, want 1 miss + 2 hits across equivalent requests", st)
	}
}

func reversedDCs() []sites.DataCenter {
	out := append([]sites.DataCenter(nil), sites.All...)
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestMutationDoesNotPoisonCache: each snapshot call returns a header of
// the caller's own over the shared memoized network. Reassigning its
// fields must not leak into later cache reads, and the requested date
// the engine patches onto each header must not leak between callers
// whose dates share one memo entry.
func TestMutationDoesNotPoisonCache(t *testing.T) {
	e := New(corpus(t))
	r := req("Webline Holdings", snapshot, core.DefaultOptions())
	anchor := e.DB().EventLog().AnchorDate("Webline Holdings", snapshot)
	if anchor.IsZero() || anchor == snapshot {
		t.Fatalf("sanity: anchor of %v is %v; want an earlier event date", snapshot, anchor)
	}
	first, err := e.Snapshot(r)
	if err != nil {
		t.Fatal(err)
	}
	route0, ok := first.BestRoute(pathNY4)
	if !ok {
		t.Fatal("WH should be connected")
	}
	name := first.Licensee
	towers, links, fiber := len(first.Towers), len(first.Links), len(first.Fiber)

	// Vandalize the returned header.
	vandalDate := uls.NewDate(1999, time.January, 1)
	first.Licensee = "vandal"
	first.Date = vandalDate
	first.Towers, first.Links, first.Fiber = nil, nil, nil

	// The anchor date itself keys the same memo entry.
	second, err := e.Snapshot(req("Webline Holdings", anchor, core.DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if second.Date != anchor {
		t.Errorf("second snapshot date = %v, want its own request date %v", second.Date, anchor)
	}
	if second.Licensee != name {
		t.Errorf("cache poisoned: licensee %q, want %q", second.Licensee, name)
	}
	if len(second.Towers) != towers || len(second.Links) != links || len(second.Fiber) != fiber {
		t.Errorf("cache poisoned: %d/%d/%d towers/links/fiber, want %d/%d/%d",
			len(second.Towers), len(second.Links), len(second.Fiber), towers, links, fiber)
	}
	route1, ok := second.BestRoute(pathNY4)
	if !ok {
		t.Fatal("cache poisoned: second snapshot not connected")
	}
	if route1.Latency != route0.Latency {
		t.Errorf("cache poisoned: latency %v, want %v", route1.Latency, route0.Latency)
	}
	if first.Date != vandalDate {
		t.Errorf("a later call's date patch reached an earlier caller's header: %v", first.Date)
	}
	third, err := e.Snapshot(r)
	if err != nil {
		t.Fatal(err)
	}
	if third.Date != snapshot {
		t.Errorf("third snapshot date = %v, want %v", third.Date, snapshot)
	}
	if st := e.Stats(); st.Rebuilds != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v, want 1 rebuild and 2 hits on one shared entry", st)
	}
}

// TestSharedSnapshotConcurrentReaders: one memoized snapshot is shared
// by every reader, so every Network analysis must be read-only. Eight
// goroutines run all of them on one engine snapshot (under -race in
// make ci) and each answer must equal the same analysis on a fresh,
// unshared core.Reconstruct of the key; afterwards the shared
// snapshot's towers, links, and fiber must still equal the rebuild's.
func TestSharedSnapshotConcurrentReaders(t *testing.T) {
	db := corpus(t)
	e := New(db)
	r := req("Webline Holdings", snapshot, core.DefaultOptions())
	shared, err := e.Snapshot(r)
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() *core.Network {
		n, err := core.Reconstruct(db, r.Licensees[0], r.Date, r.DCs, r.Opts)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	storm := radio.GenerateStorm(3, sites.CME.Location, sites.NY4.Location, radio.DefaultStormConfig())
	paths := []sites.Path{pathNY4, {From: sites.CME, To: sites.NYSE}, {From: sites.NASDAQ, To: sites.CME}}
	// answers runs every analysis on n, in a fixed order.
	answers := func(n *core.Network) []any {
		var out []any
		for _, p := range paths {
			route, ok := n.BestRoute(p)
			apa, apaOK := n.APA(p)
			set, setOK := n.BoundedPaths(p)
			lengths, lenOK := n.LinkLengthsOnBoundedPaths(p)
			spFreqs, spOK := n.FrequenciesOnShortestPath(p)
			altFreqs, altOK := n.FrequenciesOnAlternatePaths(p)
			impact, err := n.RouteUnderStorm(p, storm, radio.DefaultFadeMarginDB)
			out = append(out, route, ok, apa, apaOK, set, setOK, lengths, lenOK,
				spFreqs, spOK, altFreqs, altOK, impact, err, n.DiverseRoutes(p, 4))
		}
		return out
	}
	want := answers(fresh())
	if route, ok := want[0].(core.Route); !ok || route.HopCount() == 0 {
		t.Fatalf("sanity: %s has no route on %s", r.Licensees[0], pathNY4.Name())
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := shared
			if w%2 == 1 {
				// Half the readers go through their own memo hit: a
				// separate header over the same shared network.
				var err error
				if n, err = e.Snapshot(r); err != nil {
					t.Error(err)
					return
				}
			}
			<-start
			for i := 0; i < 3; i++ {
				if got := answers(n); !reflect.DeepEqual(got, want) {
					t.Errorf("reader %d pass %d: shared-snapshot answers differ from a fresh rebuild", w, i)
					return
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()

	rebuilt := fresh()
	if !reflect.DeepEqual(shared.Towers, rebuilt.Towers) ||
		!reflect.DeepEqual(shared.Links, rebuilt.Links) ||
		!reflect.DeepEqual(shared.Fiber, rebuilt.Fiber) {
		t.Error("analyses modified the shared snapshot: towers, links, or fiber no longer equal a fresh rebuild")
	}
	if st := e.Stats(); st.Rebuilds != 1 {
		t.Errorf("rebuilds = %d, want 1 (every reader shares one snapshot)", st.Rebuilds)
	}
}

// TestSnapshotHitAllocs gates the memo-hit path: a warm SnapshotContext
// hit allocates only the returned header — no key string, no rebuild
// timer, no copy of the network. The race detector's instrumentation
// allocates on its own, so the gate runs without it (make bench-gate).
func TestSnapshotHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := New(corpus(t), WithRebuildTimeout(time.Minute))
	r := req("Webline Holdings", snapshot, core.DefaultOptions())
	// Permuted, duplicated names exercise the key canonicalization.
	r.Licensees = []string{"Webline Holdings", "New Line Networks", "Webline Holdings"}
	ctx := context.Background()
	if _, err := e.SnapshotContext(ctx, r); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.SnapshotContext(ctx, r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("warm snapshot hit allocates %.1f times, want <= 1", allocs)
	}
	if st := e.Stats(); st.Rebuilds != 1 {
		t.Errorf("rebuilds = %d, want 1", st.Rebuilds)
	}
}

// TestSnapshotsHitAllocs gates the warm batch path: the 12 paper-date
// CME-NY4 requests of Table 1, all memo hits, allocate the entry list,
// the result slice and one block of headers between them — not one
// header, goroutine or timer per request. Without the race detector, as
// TestSnapshotHitAllocs (make bench-gate).
func TestSnapshotsHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	e := New(corpus(t), WithRebuildTimeout(time.Minute))
	reqs := core.ConnectedNetworksRequests(e.DB(), snapshot, pathNY4, core.DefaultOptions())
	if len(reqs) != 12 {
		t.Fatalf("%d paper-date CME-NY4 requests, want 12", len(reqs))
	}
	ctx := context.Background()
	if _, err := e.SnapshotsContext(ctx, reqs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.SnapshotsContext(ctx, reqs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("warm 12-request batch allocates %.1f times, want <= 3", allocs)
	}
	if st := e.Stats(); st.Rebuilds != 12 {
		t.Errorf("rebuilds = %d, want 12", st.Rebuilds)
	}
}

// TestConcurrentExactlyOnce: 100 goroutines requesting a mix of
// identical and distinct snapshots; every key must be reconstructed
// exactly once and all results must agree. Run under -race.
func TestConcurrentExactlyOnce(t *testing.T) {
	e := New(corpus(t))
	def := core.DefaultOptions()
	licensees := []string{
		"New Line Networks", "Webline Holdings", "Pierce Broadband",
		"Jefferson Microwave", "National Tower Company",
	}
	dates := []uls.Date{
		uls.NewDate(2016, time.January, 1),
		snapshot,
	}
	distinct := len(licensees) * len(dates)

	const goroutines = 100
	type result struct {
		key     string
		towers  int
		links   int
		latency string
	}
	results := make([]result, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			lic := licensees[i%len(licensees)]
			d := dates[(i/len(licensees))%len(dates)]
			n, err := e.Snapshot(req(lic, d, def))
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
				return
			}
			lat := "-"
			if r, ok := n.BestRoute(pathNY4); ok {
				lat = r.Latency.String()
			}
			results[i] = result{
				key:     fmt.Sprintf("%s@%s", lic, d),
				towers:  len(n.Towers),
				links:   len(n.Links),
				latency: lat,
			}
		}(i)
	}
	close(start)
	wg.Wait()

	st := e.Stats()
	if st.Rebuilds != int64(distinct) {
		t.Errorf("rebuilds = %d, want exactly %d (one per distinct key)", st.Rebuilds, distinct)
	}
	if st.Misses != int64(distinct) {
		t.Errorf("misses = %d, want %d", st.Misses, distinct)
	}
	if got := st.Hits + st.Coalesced + st.Misses; got != goroutines {
		t.Errorf("hits+coalesced+misses = %d, want %d", got, goroutines)
	}
	byKey := make(map[string]result)
	for _, r := range results {
		if prev, ok := byKey[r.key]; ok && prev != r {
			t.Errorf("divergent results for %s: %+v vs %+v", r.key, prev, r)
		}
		byKey[r.key] = r
	}
}

// TestGenerationInvalidation: mutating the database flushes the memo
// store on the next request.
func TestGenerationInvalidation(t *testing.T) {
	db := uls.NewDatabase()
	grant := uls.NewDate(2015, time.June, 1)
	lic := func(cs string, a, b geo.Point) *uls.License {
		return &uls.License{
			CallSign: cs, LicenseID: 1, Licensee: "Gen Net",
			RadioService: uls.ServiceMG, Status: uls.StatusActive, Grant: grant,
			Locations: []uls.Location{
				{Number: 1, Point: a, SupportHeight: 100},
				{Number: 2, Point: b, SupportHeight: 100},
			},
			Paths: []uls.Path{{Number: 1, TXLocation: 1, RXLocation: 2,
				StationClass: uls.ClassFXO, FrequenciesMHz: []float64{11000}}},
		}
	}
	a := geo.Point{Lat: 41.85, Lon: -87.6}
	b := geo.Point{Lat: 41.80, Lon: -87.0}
	c := geo.Point{Lat: 41.75, Lon: -86.4}
	if err := db.Add(lic("WQGN001", a, b)); err != nil {
		t.Fatal(err)
	}

	e := New(db)
	r := req("Gen Net", snapshot, core.DefaultOptions())
	n1, err := e.Snapshot(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(n1.Links) != 1 {
		t.Fatalf("links = %d, want 1", len(n1.Links))
	}

	if err := db.Add(lic("WQGN002", b, c)); err != nil {
		t.Fatal(err)
	}
	n2, err := e.Snapshot(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(n2.Links) != 2 {
		t.Errorf("links after Add = %d, want 2 (stale cache served)", len(n2.Links))
	}
	if st := e.Stats(); st.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", st.Invalidations)
	}
}

// TestEvolutionCachedMatchesDirect: the engine's evolution sweep must
// match the one-shot path exactly, on cold and warm cache alike.
func TestEvolutionCachedMatchesDirect(t *testing.T) {
	db := corpus(t)
	dates := core.PaperSampleDates(2013, 2020)
	want, err := core.EvolutionVia(core.DirectProvider(db), "New Line Networks", pathNY4, dates, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := New(db)
	for pass := 0; pass < 2; pass++ {
		got, err := e.Evolution("New Line Networks", pathNY4, dates, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("pass %d: %d points, want %d", pass, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("pass %d point %d = %+v, want %+v", pass, i, got[i], want[i])
			}
		}
	}
	st := e.Stats()
	// Anchor re-keying collapses the date grid onto distinct event-log
	// anchors, so rebuilds can undershoot the date count but must never
	// exceed it, and the second sweep must be fully cached.
	if st.Rebuilds > int64(len(dates)) || st.Rebuilds < 1 {
		t.Errorf("rebuilds = %d, want 1..%d (one per distinct anchor)", st.Rebuilds, len(dates))
	}
	if st.Rebuilds != st.Misses {
		t.Errorf("rebuilds = %d, misses = %d; want equal (second sweep fully cached)", st.Rebuilds, st.Misses)
	}
	if st.Hits < st.Misses {
		t.Errorf("hits = %d, want >= %d (second sweep served from memo)", st.Hits, st.Misses)
	}
}

// TestUnionSnapshot: multi-licensee requests reconstruct the union
// network and memoize under the canonical (sorted) licensee set.
func TestUnionSnapshot(t *testing.T) {
	e := New(corpus(t))
	def := core.DefaultOptions()
	u, err := e.Snapshot(core.SnapshotRequest{
		Licensees: []string{"Webline Holdings", "New Line Networks"},
		Date:      snapshot, DCs: sites.All, Opts: def,
	})
	if err != nil {
		t.Fatal(err)
	}
	nln, err := e.Snapshot(req("New Line Networks", snapshot, def))
	if err != nil {
		t.Fatal(err)
	}
	wh, err := e.Snapshot(req("Webline Holdings", snapshot, def))
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Links) <= len(nln.Links) || len(u.Links) <= len(wh.Links) {
		t.Errorf("union links = %d, want more than either member (%d, %d)",
			len(u.Links), len(nln.Links), len(wh.Links))
	}
}

// TestStatsConsistentSnapshot: Stats must be one coherent snapshot
// while query traffic mutates the counters — the /statsz scrape runs
// concurrently with serving. Run under -race. Before counters moved
// under the engine mutex, field-by-field atomic reads could observe a
// rebuild ahead of the miss that caused it.
func TestStatsConsistentSnapshot(t *testing.T) {
	e := New(corpus(t))
	def := core.DefaultOptions()
	licensees := []string{
		"New Line Networks", "Webline Holdings", "Pierce Broadband",
		"Jefferson Microwave", "National Tower Company",
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lic := licensees[(w+i)%len(licensees)]
				d := uls.NewDate(2013+(w+i)%8, time.April, 1)
				if _, err := e.Snapshot(req(lic, d, def)); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
			}
		}(w)
	}

	var prev Stats
	for i := 0; i < 200; i++ {
		st := e.Stats()
		if st.Rebuilds > st.Misses {
			t.Fatalf("inconsistent snapshot: rebuilds %d > misses %d", st.Rebuilds, st.Misses)
		}
		if tot, ptot := st.Hits+st.Misses+st.Coalesced, prev.Hits+prev.Misses+prev.Coalesced; tot < ptot {
			t.Fatalf("request total went backwards: %d -> %d", ptot, tot)
		}
		if st.Hits < prev.Hits || st.Misses < prev.Misses || st.Rebuilds < prev.Rebuilds {
			t.Fatalf("counter went backwards: %+v -> %+v", prev, st)
		}
		prev = st
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotContextTimeout: an expired wait returns a
// FailureTimeout-classified error, the abandoned rebuild still primes
// the memo store, and a later request is served from it.
func TestSnapshotContextTimeout(t *testing.T) {
	e := New(corpus(t), WithRebuildTimeout(time.Nanosecond))
	r := req("New Line Networks", snapshot, core.DefaultOptions())
	_, err := e.SnapshotContext(context.Background(), r)
	if err == nil {
		t.Fatal("want timeout error from 1ns rebuild budget")
	}
	if c := Classify(err); c != FailureTimeout {
		t.Fatalf("Classify(%v) = %v, want FailureTimeout", err, c)
	}

	// The background rebuild finishes and memoizes; once done, even the
	// 1ns budget serves it (ready results are never turned into
	// timeouts).
	awaitMemo(t, e)
	n, err := e.SnapshotContext(context.Background(), r)
	if err != nil {
		t.Fatalf("post-rebuild request: %v", err)
	}
	if len(n.Links) == 0 {
		t.Error("post-rebuild request returned empty network")
	}
	if st := e.Stats(); st.Rebuilds != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v, want 1 rebuild, 1 hit", st)
	}
}

// holdWorkers fills e's rebuild semaphore, so no rebuild can start
// until release runs: a miss made in between stays pending for as long
// as the test needs.
func holdWorkers(e *Engine) (release func()) {
	for range cap(e.sem) {
		e.sem <- struct{}{}
	}
	return func() {
		for range cap(e.sem) {
			<-e.sem
		}
	}
}

// awaitMemo waits until every entry in e's memo store is complete.
// (Stats counts a rebuild just before its entry completes, so polling
// Rebuilds would leave a window in which a lookup coalesces.)
func awaitMemo(t *testing.T, e *Engine) {
	t.Helper()
	e.mu.Lock()
	ents := make([]*entry, 0, len(e.entries))
	for _, ent := range e.entries {
		ents = append(ents, ent)
	}
	e.mu.Unlock()
	for _, ent := range ents {
		select {
		case <-ent.done:
		case <-time.After(10 * time.Second):
			t.Fatal("abandoned rebuild never completed")
		}
	}
}

// TestSnapshotContextCanceled: caller cancellation classifies as
// FailureCanceled, not as an engine failure, and the abandoned wait
// still memoizes. The rebuild is held until the wait has failed, so the
// outcome does not depend on which of the two finishes first.
func TestSnapshotContextCanceled(t *testing.T) {
	e := New(corpus(t))
	release := holdWorkers(e)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := req("Webline Holdings", snapshot, core.DefaultOptions())
	_, err := e.SnapshotContext(ctx, r)
	release()
	if err == nil {
		t.Fatal("want error from canceled context")
	}
	if c := Classify(err); c != FailureCanceled {
		t.Fatalf("Classify(%v) = %v, want FailureCanceled", err, c)
	}

	awaitMemo(t, e)
	if _, err := e.SnapshotContext(ctx, r); err != nil {
		t.Fatalf("memoized snapshot under a canceled context: %v", err)
	}
	if st := e.Stats(); st.Misses != 1 || st.Hits != 1 || st.Rebuilds != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 rebuild", st)
	}
}

// TestSnapshotsContextCanceled is the batch twin: a canceled batch that
// must wait for a held miss fails as FailureCanceled, while a batch of
// hits under the same canceled context succeeds, because a ready
// snapshot is never turned into an error.
func TestSnapshotsContextCanceled(t *testing.T) {
	e := New(corpus(t))
	def := core.DefaultOptions()
	hit := req("Webline Holdings", snapshot, def)
	if _, err := e.Snapshot(hit); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	release := holdWorkers(e)
	_, err := e.SnapshotsContext(ctx, []core.SnapshotRequest{hit, req("New Line Networks", snapshot, def)})
	release()
	if c := Classify(err); c != FailureCanceled {
		t.Fatalf("batch with a held miss: Classify(%v) = %v, want FailureCanceled", err, c)
	}

	awaitMemo(t, e)
	batch := []core.SnapshotRequest{req("New Line Networks", snapshot, def), hit, hit}
	nets, err := e.SnapshotsContext(ctx, batch)
	if err != nil {
		t.Fatalf("all-hit batch under a canceled context: %v", err)
	}
	for i, n := range nets {
		if n.Licensee != batch[i].Licensees[0] || n.Date != snapshot {
			t.Errorf("nets[%d] = %s at %s, want %s at %s", i, n.Licensee, n.Date, batch[i].Licensees[0], snapshot)
		}
	}
}

// TestSnapshotsStartsEveryMiss: a batch registers every miss, and so
// queues every rebuild, before it waits on any of them. With the
// rebuild semaphore held, all N distinct misses (every licensee at the
// paper date) must show in Stats while no rebuild has run; a pool that
// waits on each lookup in turn registers only as many as it has
// workers.
func TestSnapshotsStartsEveryMiss(t *testing.T) {
	e := New(corpus(t))
	var reqs []core.SnapshotRequest
	for _, name := range e.DB().Licensees() {
		reqs = append(reqs, req(name, snapshot, core.DefaultOptions()))
	}
	release := holdWorkers(e)
	type result struct {
		nets []*core.Network
		err  error
	}
	res := make(chan result, 1)
	go func() {
		nets, err := e.Snapshots(reqs)
		res <- result{nets, err}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Misses < int64(len(reqs)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	st := e.Stats()
	release()
	if st.Misses != int64(len(reqs)) || st.Rebuilds != 0 {
		t.Errorf("with the semaphore held: misses = %d, rebuilds = %d; want %d misses before any rebuild",
			st.Misses, st.Rebuilds, len(reqs))
	}

	r := <-res
	if r.err != nil {
		t.Fatal(r.err)
	}
	for i, n := range r.nets {
		if n.Licensee != reqs[i].Licensees[0] {
			t.Errorf("nets[%d] = %s, want %s", i, n.Licensee, reqs[i].Licensees[0])
		}
	}
	if st := e.Stats(); st.Rebuilds != int64(len(reqs)) {
		t.Errorf("rebuilds = %d, want %d", st.Rebuilds, len(reqs))
	}
}

// TestRebuildErrorNotMemoized: failed rebuilds must be retried, not
// served from the memo store — the circuit breaker's half-open probe
// depends on the retry actually re-executing.
func TestRebuildErrorNotMemoized(t *testing.T) {
	e := New(corpus(t))
	var bad core.Options // zero options fail reconstruction
	r := req("Webline Holdings", snapshot, bad)
	for i := 1; i <= 2; i++ {
		_, err := e.Snapshot(r)
		if err == nil {
			t.Fatalf("attempt %d: want reconstruction error", i)
		}
		if c := Classify(err); c != FailureRebuild {
			t.Fatalf("Classify(%v) = %v, want FailureRebuild", err, c)
		}
		if st := e.Stats(); st.Rebuilds != int64(i) {
			t.Fatalf("rebuilds after attempt %d = %d, want %d (errors must not be memoized)",
				i, st.Rebuilds, i)
		}
	}
	if st := e.Stats(); st.Entries != 0 {
		t.Errorf("entries = %d, want 0 (error entries must be evicted)", st.Entries)
	}
}

// TestPrewarm: prewarming a set of requests rebuilds each exactly
// once, and the subsequent real queries are memo hits.
func TestPrewarm(t *testing.T) {
	e := New(corpus(t))
	names := []string{"Webline Holdings", "New Line Networks", "Pierce Broadband"}
	reqs := make([]core.SnapshotRequest, len(names))
	for i, n := range names {
		reqs[i] = req(n, snapshot, core.DefaultOptions())
	}
	// Duplicate one request: it must coalesce, not double-build.
	reqs = append(reqs, req(names[0], snapshot, core.DefaultOptions()))

	n := e.Prewarm(context.Background(), reqs)
	if n != len(reqs) {
		t.Fatalf("Prewarm = %d, want %d", n, len(reqs))
	}
	st := e.Stats()
	if st.Rebuilds != int64(len(names)) {
		t.Errorf("prewarm ran %d rebuilds, want %d (duplicate must coalesce)", st.Rebuilds, len(names))
	}

	for _, name := range names {
		if _, err := e.Snapshot(req(name, snapshot, core.DefaultOptions())); err != nil {
			t.Fatalf("query after prewarm: %v", err)
		}
	}
	if after := e.Stats(); after.Rebuilds != st.Rebuilds {
		t.Errorf("queries after prewarm rebuilt (%d -> %d rebuilds), want all memo hits",
			st.Rebuilds, after.Rebuilds)
	}
}

// TestPrewarmCanceled: an expired context stops the sweep early and
// the count reflects only what finished.
func TestPrewarmCanceled(t *testing.T) {
	e := New(corpus(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if n := e.Prewarm(ctx, []core.SnapshotRequest{
		req("Webline Holdings", snapshot, core.DefaultOptions()),
	}); n != 0 {
		t.Fatalf("Prewarm under canceled ctx = %d, want 0", n)
	}
}
