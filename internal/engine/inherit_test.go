package engine

import (
	"context"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"hftnetview/internal/core"
	"hftnetview/internal/entity"
	"hftnetview/internal/geo"
	"hftnetview/internal/sites"
	"hftnetview/internal/store"
	"hftnetview/internal/uls"
)

// cloneLicense deep-copies a license, so a corpus variant can edit its
// copy without touching the base corpus.
func cloneLicense(l *uls.License) *uls.License {
	c := *l
	c.Locations = slices.Clone(l.Locations)
	c.Paths = slices.Clone(l.Paths)
	for i := range c.Paths {
		c.Paths[i].FrequenciesMHz = slices.Clone(l.Paths[i].FrequenciesMHz)
	}
	return &c
}

// variantOf builds a new database from deep copies of base's licenses,
// each passed through edit, which may change its copy or return nil to
// drop it.
func variantOf(t *testing.T, base *uls.Database, edit func(*uls.License) *uls.License) *uls.Database {
	t.Helper()
	db := uls.NewDatabase()
	for _, l := range base.All() {
		if c := edit(cloneLicense(l)); c != nil {
			if err := db.Add(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// activeLicenseOf returns the call sign of the licensee's first license
// (by call sign) in force on the date.
func activeLicenseOf(t *testing.T, db *uls.Database, licensee string, d uls.Date) string {
	t.Helper()
	ls := db.ByLicensee(licensee)
	uls.SortLicenses(ls)
	for _, l := range ls {
		if l.ActiveAt(d) && len(l.Paths) > 0 {
			return l.CallSign
		}
	}
	t.Fatalf("%s has no license in force on %s", licensee, d)
	return ""
}

// inheritStep is one corpus change in the equivalence chain: next
// derives the step's variant from the previous one, and changed names
// the licensees whose event streams it changes.
type inheritStep struct {
	name    string
	changed []string
	next    func(prev *uls.Database) *uls.Database
}

// inheritChain is the equivalence suite's walk over corpus variants.
// Each step changes one thing about one or two licensees, starting
// from the synthetic corpus.
func inheritChain(t *testing.T, base *uls.Database) []inheritStep {
	const (
		dropped = "Jefferson Microwave"
		moved   = "New Line Networks"
		retuned = "Webline Holdings"
		recut   = "Pierce Broadband"
		donor   = "GTT Americas"
	)
	movedCS := activeLicenseOf(t, base, moved, snapshot)
	retunedCS := activeLicenseOf(t, base, retuned, snapshot)
	recutCS := activeLicenseOf(t, base, recut, snapshot)
	donorCS := activeLicenseOf(t, base, donor, snapshot)
	edit := func(f func(*uls.License) *uls.License) func(*uls.Database) *uls.Database {
		return func(prev *uls.Database) *uls.Database { return variantOf(t, prev, f) }
	}
	return []inheritStep{
		{"drop a licensee", []string{dropped}, edit(func(l *uls.License) *uls.License {
			if l.Licensee == dropped {
				return nil
			}
			return l
		})},
		{"re-add it", []string{dropped}, func(*uls.Database) *uls.Database {
			return variantOf(t, base, func(l *uls.License) *uls.License { return l })
		}},
		{"move a coordinate one ULP", []string{moved}, edit(func(l *uls.License) *uls.License {
			if l.CallSign == movedCS {
				l.Locations[0].Point.Lat = math.Nextafter(l.Locations[0].Point.Lat, 90)
			}
			return l
		})},
		{"change a frequency", []string{retuned}, edit(func(l *uls.License) *uls.License {
			if l.CallSign == retunedCS {
				l.Paths[0].FrequenciesMHz[0] += 10
			}
			return l
		})},
		{"change a cancellation date", []string{recut}, edit(func(l *uls.License) *uls.License {
			if l.CallSign == recutCS {
				l.Cancellation = snapshot.AddDays(-1)
			}
			return l
		})},
		{"file a license under another licensee", []string{donor, moved}, edit(func(l *uls.License) *uls.License {
			if l.CallSign == donorCS {
				l.Licensee = moved
			}
			return l
		})},
	}
}

// inheritDates is the equivalence suite's date grid: one date in each
// phase of the corridor's build-out, ending at the paper's snapshot.
var inheritDates = []uls.Date{
	uls.NewDate(2014, time.June, 1),
	uls.NewDate(2016, time.January, 1),
	uls.NewDate(2018, time.March, 15),
	snapshot,
}

// answers is everything the suite compares between an inheriting and a
// fresh engine.
type answers struct {
	tables     [][]core.NetworkSummary // per (date, corridor path): Table 1
	networks   []*core.Network         // per (date, licensee): snapshot over CME-NY4
	evolutions [][]core.EvolutionPoint // per probed licensee
	pairs      [][]entity.Pair         // per corridor path at two dates
}

// collect resolves the suite's query set over p, whose engine is eng.
// The probed licensees get an evolution sweep each.
func collect(t *testing.T, p core.SnapshotProvider, eng *Engine, probes []string) answers {
	t.Helper()
	opts := core.DefaultOptions()
	var a answers
	for _, d := range inheritDates {
		for _, path := range sites.CorridorPaths() {
			rows, err := core.ConnectedNetworksVia(p, d, path, opts)
			if err != nil {
				t.Fatal(err)
			}
			a.tables = append(a.tables, rows)
		}
		for _, name := range p.DB().Licensees() {
			n, err := p.Snapshot(core.SnapshotRequest{Licensees: []string{name}, Date: d,
				DCs: []sites.DataCenter{pathNY4.From, pathNY4.To}, Opts: opts})
			if err != nil {
				t.Fatal(err)
			}
			a.networks = append(a.networks, n)
		}
	}
	for _, name := range probes {
		pts, err := eng.EvolutionSweep(name, pathNY4, core.PaperSampleDates(2013, 2020), opts)
		if err != nil {
			t.Fatal(err)
		}
		a.evolutions = append(a.evolutions, pts)
	}
	for _, d := range []uls.Date{inheritDates[1], snapshot} {
		for _, path := range sites.CorridorPaths() {
			pairs, err := entity.ComplementaryPairsVia(p, d, path, nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			a.pairs = append(a.pairs, pairs)
		}
	}
	return a
}

// assertSameAnswers fails unless every answer of got deep-equals want.
// Networks compare by their exported content: an inherited network
// carries route/APA memo entries a fresh one has not computed yet, and
// those answers are compared through the Table 1 rows instead.
func assertSameAnswers(t *testing.T, step string, got, want answers) {
	t.Helper()
	if !reflect.DeepEqual(got.tables, want.tables) {
		t.Errorf("%s: Table 1 rows (BestRoute, APA) differ from a fresh engine's", step)
	}
	if len(got.networks) != len(want.networks) {
		t.Fatalf("%s: %d snapshots, fresh engine %d", step, len(got.networks), len(want.networks))
	}
	for i, g := range got.networks {
		w := want.networks[i]
		if g.Licensee != w.Licensee || g.Date != w.Date || !reflect.DeepEqual(g.Towers, w.Towers) ||
			!reflect.DeepEqual(g.Links, w.Links) || !reflect.DeepEqual(g.Fiber, w.Fiber) {
			t.Errorf("%s: snapshot of %s on %s differs from a fresh engine's", step, w.Licensee, w.Date)
		}
		gr, gok := g.BestRoute(pathNY4)
		wr, wok := w.BestRoute(pathNY4)
		ga, gaok := g.APA(pathNY4)
		wa, waok := w.APA(pathNY4)
		if gok != wok || !reflect.DeepEqual(gr, wr) || gaok != waok || ga != wa {
			t.Errorf("%s: route/APA of %s on %s differs from a fresh engine's", step, w.Licensee, w.Date)
		}
	}
	if !reflect.DeepEqual(got.evolutions, want.evolutions) {
		t.Errorf("%s: evolution sweeps differ from a fresh engine's", step)
	}
	if !reflect.DeepEqual(got.pairs, want.pairs) {
		t.Errorf("%s: complementary pairs differ from a fresh engine's", step)
	}
}

// countingProvider resolves snapshots one at a time through an engine
// and records which request licensee sets rebuilt: with no concurrency,
// a request rebuilt iff the engine's rebuild counter moved across it.
type countingProvider struct {
	eng     *Engine
	rebuilt map[string]int // joined licensee names -> rebuilding requests
}

func (p *countingProvider) DB() *uls.Database { return p.eng.DB() }

func (p *countingProvider) Snapshot(req core.SnapshotRequest) (*core.Network, error) {
	before := p.eng.Stats().Rebuilds
	n, err := p.eng.Snapshot(req)
	if p.eng.Stats().Rebuilds != before {
		p.rebuilt[strings.Join(req.Licensees, "+")]++
	}
	return n, err
}

func (p *countingProvider) Snapshots(reqs []core.SnapshotRequest) ([]*core.Network, error) {
	out := make([]*core.Network, len(reqs))
	for i, r := range reqs {
		n, err := p.Snapshot(r)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// reachesACorridorPath reports whether the licensee filed locations
// within the default fiber reach of both ends of some corridor path, by
// a scan over its filings: the licensees whose families the paper-date
// tables request.
func reachesACorridorPath(db *uls.Database, licensee string) bool {
	near := func(dc sites.DataCenter) bool {
		for _, l := range db.ByLicensee(licensee) {
			for _, loc := range l.Locations {
				if geo.Distance(dc.Location, loc.Point) <= core.DefaultOptions().MaxFiberMeters {
					return true
				}
			}
		}
		return false
	}
	for _, path := range sites.CorridorPaths() {
		if near(path.From) && near(path.To) {
			return true
		}
	}
	return false
}

// TestInheritEquivalence is the carry-over's correctness property. It
// walks a chain of corpus variants — drop a licensee, re-add it, move
// one coordinate by one ULP, change one frequency, change one
// cancellation date, file one license under another licensee — and at
// each step builds an engine over the new variant that inherits the
// previous step's engine. Then:
//
//   - re-reading the paper-date Table 1 of every corridor path, which
//     the previous step already read, rebuilds exactly the families of
//     the changed licensees that filed within fiber reach of both ends
//     of some corridor path, the only ones the tables request (a
//     counting provider records every rebuilding request), and
//   - every Snapshot, BestRoute, APA, EvolutionSweep and
//     ComplementaryPairsVia answer of the inheriting engine deep-equals
//     a fresh engine's over the same variant, on a grid of four dates.
//
// Readers keep querying the outgoing generation's engine throughout,
// as in-flight requests do across a publish; run under -race.
func TestInheritEquivalence(t *testing.T) {
	base := corpus(t)
	steps := inheritChain(t, base)
	var probes []string
	for _, st := range steps {
		probes = append(probes, st.changed...)
	}
	probes = append(slices.Compact(slices.Sorted(slices.Values(probes))), "SW Networks")

	db := base
	prev := New(db)
	collect(t, prev, prev, probes)
	for _, st := range steps {
		next := st.next(db)

		// A reader of the outgoing generation, running across the
		// inheritance and the comparisons below.
		want, err := core.RankNetworksVia(prev, snapshot, sites.CorridorPaths(), 0, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var reader sync.WaitGroup
		reader.Add(1)
		go func() {
			defer reader.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := core.RankNetworksVia(prev, snapshot, sites.CorridorPaths(), 0, core.DefaultOptions())
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("%s: the outgoing generation's tables changed during the carry-over (err %v)", st.name, err)
					return
				}
			}
		}()

		eng := New(next)
		adopted := eng.Inherit(prev)
		if adopted == 0 || eng.Stats().Inherited != int64(adopted) {
			t.Errorf("%s: adopted %d entries, Stats.Inherited = %d", st.name, adopted, eng.Stats().Inherited)
		}

		// The paper-date tables the previous step read, counted: only
		// the changed licensees' families rebuild.
		counter := &countingProvider{eng: eng, rebuilt: make(map[string]int)}
		for _, path := range sites.CorridorPaths() {
			if _, err := core.ConnectedNetworksVia(counter, snapshot, path, core.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
		}
		var rebuilt []string
		for name := range counter.rebuilt {
			rebuilt = append(rebuilt, name)
		}
		sort.Strings(rebuilt)
		var changed []string
		for _, name := range st.changed {
			if reachesACorridorPath(next, name) {
				changed = append(changed, name)
			}
		}
		sort.Strings(changed)
		if !slices.Equal(rebuilt, changed) {
			t.Errorf("%s: rebuilt families of %v, want exactly those of the changed licensees that can reach a corridor path, %v",
				st.name, rebuilt, changed)
		}

		got := collect(t, eng, eng, probes)
		fresh := New(next)
		assertSameAnswers(t, st.name, got, collect(t, fresh, fresh, probes))

		close(stop)
		reader.Wait()
		db, prev = next, eng
	}
}

// TestInheritSkips: Inherit adopts nothing from an engine with an empty
// memo, from one whose database moved since its memo was built (an
// in-place Add), or an entry still in flight; and never from itself.
func TestInheritSkips(t *testing.T) {
	base := corpus(t)
	r := req("Webline Holdings", snapshot, core.DefaultOptions())

	if n := New(base).Inherit(New(base)); n != 0 {
		t.Errorf("empty memo: adopted %d", n)
	}
	warm := New(base)
	if _, err := warm.Snapshot(r); err != nil {
		t.Fatal(err)
	}
	if n := warm.Inherit(warm); n != 0 {
		t.Errorf("self: adopted %d", n)
	}
	if n := New(base).Inherit(warm); n != 1 {
		t.Errorf("same database: adopted %d, want 1", n)
	}

	// An in-place Add moves the database: the old memo is stale.
	moved := variantOf(t, base, func(l *uls.License) *uls.License { return l })
	stale := New(moved)
	if _, err := stale.Snapshot(r); err != nil {
		t.Fatal(err)
	}
	extra := cloneLicense(moved.ByLicensee("Webline Holdings")[0])
	extra.CallSign = "WZZZ001"
	if err := moved.Add(extra); err != nil {
		t.Fatal(err)
	}
	if n := New(moved).Inherit(stale); n != 0 {
		t.Errorf("moved database: adopted %d", n)
	}

	// An in-flight entry: hold every rebuild slot so the request's
	// reconstruction cannot finish until the inheritance is over.
	busy := New(base, WithWorkers(1))
	busy.sem <- struct{}{}
	errc := make(chan error, 1)
	go func() {
		_, err := busy.Snapshot(r)
		errc <- err
	}()
	for busy.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	if n := New(base).Inherit(busy); n != 0 {
		t.Errorf("in-flight entry: adopted %d", n)
	}
	<-busy.sem
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

// TestNetworksOwnTheirStrings: a store-loaded database's strings alias
// the generation's segment buffers, so a memoized network that kept a
// license's string would pin the whole generation after the engine
// carried it into the next one. No string in a snapshot — label, call
// signs, tower keys, data centers — may point into a license's bytes.
func TestNetworksOwnTheirStrings(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Save(corpus(t), "ownership"); err != nil {
		t.Fatal(err)
	}
	db, _, _, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}

	// The byte ranges of every license string, sorted by start.
	type span struct{ lo, hi uintptr }
	var spans []span
	add := func(s string) {
		if s != "" {
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			spans = append(spans, span{p, p + uintptr(len(s))})
		}
	}
	for _, l := range db.All() {
		for _, s := range []string{l.CallSign, l.Licensee, l.FRN, l.ContactEmail, l.RadioService, string(l.Status)} {
			add(s)
		}
		for _, p := range l.Paths {
			add(p.StationClass)
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	aliases := func(s string) bool {
		if s == "" {
			return false
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		i := sort.Search(len(spans), func(i int) bool { return spans[i].lo > p }) - 1
		return i >= 0 && p < spans[i].hi
	}
	// The check itself must see aliasing where it exists.
	if l := db.All()[0]; !aliases(l.CallSign) {
		t.Fatal("a license's own call sign does not register as aliasing")
	}

	eng := New(db)
	names := db.Licensees()
	reqs := []core.SnapshotRequest{{Licensees: names[:2], Date: snapshot, DCs: sites.All, Opts: core.DefaultOptions()}}
	for _, name := range names {
		reqs = append(reqs, core.SnapshotRequest{Licensees: []string{name}, Date: snapshot, DCs: sites.All, Opts: core.DefaultOptions()})
	}
	checked := 0
	for _, r := range reqs {
		n, err := eng.SnapshotContext(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		strs := []string{n.Licensee}
		for _, tw := range n.Towers {
			strs = append(strs, tw.Key)
		}
		for _, l := range n.Links {
			strs = append(strs, l.CallSign)
		}
		for _, f := range n.Fiber {
			strs = append(strs, f.DataCenter.Code, f.DataCenter.Name)
		}
		for _, s := range strs {
			if aliases(s) {
				t.Fatalf("%s: network string %q aliases a license's bytes", n.Licensee, s)
			}
			checked++
		}
	}
	if checked < 1000 {
		t.Errorf("checked only %d strings", checked)
	}
}
