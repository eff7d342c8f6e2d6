package entity

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"hftnetview/internal/core"
	"hftnetview/internal/engine"
	"hftnetview/internal/geo"
	"hftnetview/internal/sites"
	"hftnetview/internal/synth"
	"hftnetview/internal/uls"
)

var (
	corpus   *uls.Database
	snapshot = uls.NewDate(2020, time.April, 1)
	pathNY4  = sites.Path{From: sites.CME, To: sites.NY4}
)

func db(t *testing.T) *uls.Database {
	t.Helper()
	if corpus == nil {
		d, err := synth.Generate()
		if err != nil {
			t.Fatal(err)
		}
		corpus = d
	}
	return corpus
}

func TestClustersByFRN(t *testing.T) {
	clusters := ClustersByFRN(db(t))
	var joint []string
	for _, c := range clusters {
		for _, name := range c {
			if name == synth.JointA {
				joint = c
			}
		}
	}
	if joint == nil {
		t.Fatalf("joint pair not clustered; clusters = %v", clusters)
	}
	if len(joint) != 2 || joint[0] != synth.JointA || joint[1] != synth.JointB {
		t.Errorf("joint cluster = %v, want [%s %s]", joint, synth.JointA, synth.JointB)
	}
	// The ten single-entity HFT networks must NOT share FRNs.
	for _, c := range clusters {
		for _, name := range c {
			for _, spec := range synth.HFTNetworks() {
				if spec.JointPartner == "" && name == spec.Name {
					t.Errorf("%s unexpectedly clustered: %v", name, c)
				}
			}
		}
	}
}

func TestClustersByContact(t *testing.T) {
	clusters := ClustersByContact(db(t))
	if len(clusters) != 1 {
		t.Fatalf("contact clusters = %v, want only the joint pair", clusters)
	}
	got := clusters[0]
	if len(got) != 2 || got[0] != synth.JointA || got[1] != synth.JointB {
		t.Errorf("contact cluster = %v", got)
	}
	// Every corpus license carries a contact address.
	for _, l := range db(t).All() {
		if l.ContactEmail == "" {
			t.Fatalf("%s has no contact email", l.CallSign)
		}
	}
}

func TestJointEntitiesDisconnectedAlone(t *testing.T) {
	opts := core.DefaultOptions()
	for _, name := range []string{synth.JointA, synth.JointB} {
		n, err := core.Reconstruct(db(t), name, snapshot, sites.All, opts)
		if err != nil {
			t.Fatal(err)
		}
		if n.Connected(pathNY4) {
			t.Errorf("%s should not be connected alone", name)
		}
		if len(n.Links) == 0 {
			t.Errorf("%s has no links at all", name)
		}
	}
}

func TestReconstructUnionConnects(t *testing.T) {
	u, err := core.ReconstructUnion(db(t), []string{synth.JointA, synth.JointB},
		snapshot, sites.All, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, ok := u.BestRoute(pathNY4)
	if !ok {
		t.Fatal("union should be connected")
	}
	// Calibrated to 4.055 ms.
	if ms := r.Latency.Milliseconds(); ms < 4.0549 || ms > 4.0551 {
		t.Errorf("union latency = %.5f ms, want 4.05500", ms)
	}
	if r.TowerCount != 26 {
		t.Errorf("union towers = %d, want 26", r.TowerCount)
	}
	if u.Licensee != synth.JointA+" + "+synth.JointB {
		t.Errorf("union label = %q", u.Licensee)
	}
}

func TestComplementaryPairs(t *testing.T) {
	pairs, err := ComplementaryPairsVia(core.DirectProvider(db(t)), snapshot, pathNY4, nil, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Fatalf("pairs = %+v, want exactly the joint pair", pairs)
	}
	p := pairs[0]
	if p.A != synth.JointA || p.B != synth.JointB {
		t.Errorf("pair = %s + %s", p.A, p.B)
	}
	if ms := p.Latency.Milliseconds(); ms < 4.05 || ms > 4.06 {
		t.Errorf("pair latency = %.5f", ms)
	}
}

func TestComplementaryPairsSubset(t *testing.T) {
	// Restricting candidates to names without the partner finds nothing.
	pairs, err := ComplementaryPairsVia(core.DirectProvider(db(t)), snapshot, pathNY4,
		[]string{synth.JointA, "Great Lakes Relay"}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Errorf("pairs = %+v, want none", pairs)
	}
}

func TestReconstructUnionValidation(t *testing.T) {
	if _, err := core.ReconstructUnion(db(t), nil, snapshot, sites.All,
		core.DefaultOptions()); err == nil {
		t.Error("empty licensee list accepted")
	}
}

// TestComplementaryPairsRepeatedCandidate: a name listed twice is one
// candidate, so the joint pair comes back once, and neither the
// caller's slice nor the database's shared name list is reordered.
func TestComplementaryPairsRepeatedCandidate(t *testing.T) {
	cands := []string{synth.JointA, synth.JointB, synth.JointA}
	pairs, err := ComplementaryPairsVia(core.DirectProvider(db(t)), snapshot, pathNY4, cands, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].A != synth.JointA || pairs[0].B != synth.JointB {
		t.Errorf("pairs = %+v, want exactly %s + %s once", pairs, synth.JointA, synth.JointB)
	}
	if want := []string{synth.JointA, synth.JointB, synth.JointA}; !slices.Equal(cands, want) {
		t.Errorf("candidates modified: %v", cands)
	}
	names := db(t).Licensees()
	before := slices.Clone(names)
	if _, err := ComplementaryPairsVia(core.DirectProvider(db(t)), snapshot, pathNY4, nil, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(names, before) {
		t.Error("the database's shared licensee list was modified")
	}
}

// bruteForcePairs is the reference implementation: the per-licensee
// screen followed by a union reconstruction for every loner pair,
// without the shared-site screen. ComplementaryPairsVia must return
// exactly its answer.
func bruteForcePairs(p core.SnapshotProvider, date uls.Date, path sites.Path,
	candidates []string, opts core.Options) ([]Pair, error) {
	if candidates == nil {
		candidates = p.DB().Licensees()
	}
	dcs := []sites.DataCenter{path.From, path.To}
	reqs := make([]core.SnapshotRequest, len(candidates))
	for i, name := range candidates {
		reqs[i] = core.SnapshotRequest{
			Licensees: []string{name}, Date: date, DCs: dcs, Opts: opts,
		}
	}
	nets, err := p.Snapshots(reqs)
	if err != nil {
		return nil, err
	}
	var loners []string
	for i, n := range nets {
		if !n.Connected(path) && len(n.Links) > 0 {
			loners = append(loners, candidates[i])
		}
	}
	sort.Strings(loners)
	loners = slices.Compact(loners)

	type pairIdx struct{ a, b string }
	var pairs []pairIdx
	var unionReqs []core.SnapshotRequest
	for i := 0; i < len(loners); i++ {
		for j := i + 1; j < len(loners); j++ {
			pairs = append(pairs, pairIdx{loners[i], loners[j]})
			unionReqs = append(unionReqs, core.SnapshotRequest{
				Licensees: []string{loners[i], loners[j]},
				Date:      date, DCs: dcs, Opts: opts,
			})
		}
	}
	unions, err := p.Snapshots(unionReqs)
	if err != nil {
		return nil, err
	}
	var out []Pair
	for i, u := range unions {
		r, ok := u.BestRoute(path)
		if !ok {
			continue
		}
		out = append(out, Pair{
			A: pairs[i].a, B: pairs[i].b,
			Latency:    r.Latency,
			TowerCount: r.TowerCount,
		})
	}
	return out, nil
}

// countingProvider records every request that reaches the wrapped
// provider: single-licensee requests by name, unions (multi-licensee
// requests) by member list.
type countingProvider struct {
	core.SnapshotProvider
	mu      sync.Mutex
	singles []string
	unions  [][]string
}

func (c *countingProvider) record(reqs ...core.SnapshotRequest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range reqs {
		if len(r.Licensees) > 1 {
			c.unions = append(c.unions, r.Licensees)
		} else {
			c.singles = append(c.singles, r.Licensees...)
		}
	}
}

func (c *countingProvider) Snapshot(req core.SnapshotRequest) (*core.Network, error) {
	c.record(req)
	return c.SnapshotProvider.Snapshot(req)
}

func (c *countingProvider) Snapshots(reqs []core.SnapshotRequest) ([]*core.Network, error) {
	c.record(reqs...)
	return c.SnapshotProvider.Snapshots(reqs)
}

// sharesSite reports whether a and b's single-licensee networks on the
// path's data centers have a tower site in common.
func sharesSite(t *testing.T, p core.SnapshotProvider, a, b string, date uls.Date,
	path sites.Path, opts core.Options) bool {
	t.Helper()
	dcs := []sites.DataCenter{path.From, path.To}
	nets, err := p.Snapshots([]core.SnapshotRequest{
		{Licensees: []string{a}, Date: date, DCs: dcs, Opts: opts},
		{Licensees: []string{b}, Date: date, DCs: dcs, Opts: opts},
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool)
	for _, tw := range nets[0].Towers {
		keys[tw.Key] = true
	}
	for _, tw := range nets[1].Towers {
		if keys[tw.Key] {
			return true
		}
	}
	return false
}

// checkScreen runs ComplementaryPairsVia and bruteForcePairs over p
// and fails unless they agree exactly and every union the screen asked
// for is a site-sharing pair. It returns the screen's pairs and its
// number of union requests.
func checkScreen(t *testing.T, p core.SnapshotProvider, date uls.Date, path sites.Path,
	candidates []string, opts core.Options) ([]Pair, int) {
	t.Helper()
	cp := &countingProvider{SnapshotProvider: p}
	got, err := ComplementaryPairsVia(cp, date, path, candidates, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := bruteForcePairs(p, date, path, candidates, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s %s %+v: screened pairs %+v, brute force %+v",
			date, path.Name(), opts, got, want)
	}
	for _, u := range cp.unions {
		if !sharesSite(t, p, u[0], u[1], date, path, opts) {
			t.Errorf("%s %s: union requested for site-disjoint pair %v", date, path.Name(), u)
		}
	}
	return got, len(cp.unions)
}

// screenGrid compares the screen with brute force on every corridor
// path at dates every step days from 2013-01-01 to 2020-04-01. Each
// date gets a fresh engine, so the memo stays one date's worth.
func screenGrid(t *testing.T, step int, opts core.Options) (combos, found int) {
	end := uls.NewDate(2020, time.April, 1)
	for d := uls.NewDate(2013, time.January, 1); !d.After(end); d = d.AddDays(step) {
		eng := engine.New(db(t))
		for _, path := range sites.CorridorPaths() {
			pairs, _ := checkScreen(t, eng, d, path, nil, opts)
			found += len(pairs)
			combos++
		}
		if t.Failed() {
			t.FailNow()
		}
	}
	return combos, found
}

// TestComplementaryPairsMatchesBruteForce: over 2013–2020 and the three
// corridor paths, the site screen returns exactly the brute-force pairs
// and never asks for a site-disjoint union.
func TestComplementaryPairsMatchesBruteForce(t *testing.T) {
	combos, found := screenGrid(t, 17, core.DefaultOptions())
	t.Logf("%d date×path combinations, %d complementary pairs, all equal to brute force", combos, found)
	if combos != 468 {
		t.Errorf("grid covered %d combinations, want 468", combos)
	}
	if found == 0 {
		t.Error("the grid found no complementary pair; the comparison is vacuous")
	}
}

// TestComplementaryPairsMatchesBruteForceTails repeats the comparison
// with unlimited and with two fiber tails per data center, where the
// union's tails can land on either member.
func TestComplementaryPairsMatchesBruteForceTails(t *testing.T) {
	for _, tails := range []int{0, 2} {
		t.Run(fmt.Sprintf("tails=%d", tails), func(t *testing.T) {
			opts := core.DefaultOptions()
			opts.FiberTailsPerDC = tails
			combos, found := screenGrid(t, 97, opts)
			t.Logf("%d combinations, %d pairs", combos, found)
		})
	}
}

// TestComplementaryPairsSubsetsMatchBruteForce: explicit candidate
// lists, with and without the joint pair, agree with brute force.
func TestComplementaryPairsSubsetsMatchBruteForce(t *testing.T) {
	names := db(t).Licensees()
	eng := engine.New(db(t))
	for _, cands := range [][]string{
		{synth.JointA, synth.JointB},
		{synth.JointB, synth.JointA, "Great Lakes Relay"},
		{synth.JointA, "Great Lakes Relay"},
		names[:len(names)/2],
		names[len(names)/2:],
		{},
	} {
		for _, path := range sites.CorridorPaths() {
			checkScreen(t, eng, snapshot, path, cands, core.DefaultOptions())
		}
	}
}

// A hand-built corridor: data centers W and E on the 40th parallel,
// two degrees (~171 km) apart, so no tower is within the 50 km fiber
// reach of both. Coordinates are multiples of 1/16°, exact in binary,
// so mirror-image towers tie exactly.
var (
	dcW    = sites.DataCenter{Code: "W", Name: "West", Location: geo.Point{Lat: 40, Lon: -88}}
	dcE    = sites.DataCenter{Code: "E", Name: "East", Location: geo.Point{Lat: 40, Lon: -86}}
	pathWE = sites.Path{From: dcW, To: dcE}
)

// chain is one licensee's towers, joined in order by one license per
// hop.
type chain struct {
	name   string
	towers []geo.Point
}

// chainDB builds a database of chains. Call signs start with W plus a
// letter per chain, so the chains stitch in the given order.
func chainDB(t *testing.T, chains ...chain) *uls.Database {
	t.Helper()
	db := uls.NewDatabase()
	for ci, c := range chains {
		for h := 1; h < len(c.towers); h++ {
			err := db.Add(&uls.License{
				CallSign: fmt.Sprintf("W%c%04d", 'A'+ci, h), LicenseID: ci*100 + h,
				Licensee: c.name, RadioService: uls.ServiceMG, Status: uls.StatusActive,
				Grant: uls.NewDate(2015, time.June, 1),
				Locations: []uls.Location{
					{Number: 1, Point: c.towers[h-1], SupportHeight: 100},
					{Number: 2, Point: c.towers[h], SupportHeight: 100},
				},
				Paths: []uls.Path{{Number: 1, TXLocation: 1, RXLocation: 2,
					StationClass: uls.ClassFXO, FrequenciesMHz: []float64{11000}}},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// checkHandBuilt compares the screen with brute force on db over W–E
// with one, two and unlimited fiber tails per data center, expecting
// exactly want and exactly wantUnions union requests each time.
func checkHandBuilt(t *testing.T, db *uls.Database, want [][2]string, wantUnions int) {
	t.Helper()
	for _, tails := range []int{1, 2, 0} {
		opts := core.DefaultOptions()
		opts.FiberTailsPerDC = tails
		got, unions := checkScreen(t, core.DirectProvider(db), snapshot, pathWE, nil, opts)
		var names [][2]string
		for _, pr := range got {
			names = append(names, [2]string{pr.A, pr.B})
		}
		if !reflect.DeepEqual(names, want) {
			t.Errorf("tails=%d: pairs %v, want %v", tails, names, want)
		}
		if unions != wantUnions {
			t.Errorf("tails=%d: %d union requests, want %d", tails, unions, wantUnions)
		}
	}
}

// fiberTowers returns the towers the network's fiber tails to dc land
// on.
func fiberTowers(n *core.Network, dc sites.DataCenter) []geo.Point {
	var out []geo.Point
	for _, ft := range n.Fiber {
		if ft.DataCenter.Code == dc.Code {
			out = append(out, n.Towers[ft.Tower].Point)
		}
	}
	return out
}

// TestComplementaryPairsMirrorTie: Alpha and Bravo mirror each other
// across W's meridian, Charlie and Delta across E's, so each union of a
// site-disjoint pair has a data center whose two candidate towers tie
// exactly. Alpha+Charlie and Bravo+Delta share a site and connect;
// the four site-disjoint pairs are never built and never connect.
func TestComplementaryPairsMirrorTie(t *testing.T) {
	a1, b1 := geo.Point{Lat: 40, Lon: -88.125}, geo.Point{Lat: 40, Lon: -87.875}
	c2, d2 := geo.Point{Lat: 40, Lon: -86.125}, geo.Point{Lat: 40, Lon: -85.875}
	if geo.Distance(dcW.Location, a1) != geo.Distance(dcW.Location, b1) ||
		geo.Distance(dcE.Location, c2) != geo.Distance(dcE.Location, d2) {
		t.Fatal("mirror towers are not equidistant from their data center")
	}
	north := geo.Point{Lat: 40.25, Lon: -86.75}
	south := geo.Point{Lat: 39.75, Lon: -86.75}
	db := chainDB(t,
		chain{"Alpha", []geo.Point{a1, {Lat: 40.25, Lon: -87.5}, north}},
		chain{"Bravo", []geo.Point{b1, {Lat: 39.75, Lon: -87.5}, south}},
		chain{"Charlie", []geo.Point{north, c2}},
		chain{"Delta", []geo.Point{south, d2}},
	)
	checkHandBuilt(t, db, [][2]string{{"Alpha", "Charlie"}, {"Bravo", "Delta"}}, 2)

	// The tie goes to the lower tower index: Alpha's, stitched first.
	u, err := core.ReconstructUnion(db, []string{"Alpha", "Bravo"}, snapshot,
		[]sites.DataCenter{dcW, dcE}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := fiberTowers(u, dcW); len(got) != 1 || got[0] != a1 {
		t.Errorf("Alpha+Bravo tail to W lands on %v, want Alpha's %v", got, a1)
	}
}

// TestComplementaryPairsTailMoves: Bravo's tower is nearer W than
// Alpha's, so in the Alpha+Bravo union W's only fiber tail moves to
// Bravo and Alpha's part loses its W tail. Bravo+Charlie's union has a
// tail at each data center, but in different parts, so no route. Only
// Alpha+Charlie, which share a site, connect.
func TestComplementaryPairsTailMoves(t *testing.T) {
	a1 := geo.Point{Lat: 40, Lon: -88.25}
	b1 := geo.Point{Lat: 40, Lon: -88.0625}
	shared := geo.Point{Lat: 40, Lon: -86.75}
	db := chainDB(t,
		chain{"Alpha", []geo.Point{a1, {Lat: 40, Lon: -87.5}, shared}},
		chain{"Bravo", []geo.Point{b1, {Lat: 40.25, Lon: -87.375}}},
		chain{"Charlie", []geo.Point{shared, {Lat: 40, Lon: -86.0625}}},
	)
	checkHandBuilt(t, db, [][2]string{{"Alpha", "Charlie"}}, 1)

	dcs := []sites.DataCenter{dcW, dcE}
	u, err := core.ReconstructUnion(db, []string{"Alpha", "Bravo"}, snapshot, dcs, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := fiberTowers(u, dcW); len(got) != 1 || got[0] != b1 {
		t.Errorf("Alpha+Bravo tail to W lands on %v, want Bravo's %v", got, b1)
	}
	u, err = core.ReconstructUnion(db, []string{"Bravo", "Charlie"}, snapshot, dcs, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fiberTowers(u, dcW)) != 1 || len(fiberTowers(u, dcE)) != 1 || u.Connected(pathWE) {
		t.Errorf("Bravo+Charlie: want one tail per data center and no route; tails %v / %v, connected %v",
			fiberTowers(u, dcW), fiberTowers(u, dcE), u.Connected(pathWE))
	}
}

// TestComplementaryPairsNeitherEndBridge: Loner files near both W and
// E but has a gap in the middle, and Bridge, which files near neither,
// spans the gap. Their union connects, so the candidate screen must ask
// for Bridge's own snapshot although Bridge reaches no end. Two decoys
// share no site with anyone: one files near neither end, one only near
// W. Only Loner and Bridge may be asked for alone.
func TestComplementaryPairsNeitherEndBridge(t *testing.T) {
	w1, m1 := geo.Point{Lat: 40, Lon: -87.875}, geo.Point{Lat: 40, Lon: -87.25}
	m2, e1 := geo.Point{Lat: 40, Lon: -86.75}, geo.Point{Lat: 40, Lon: -86.125}
	db := chainDB(t,
		chain{"Loner", []geo.Point{w1, m1}},
		chain{"Loner", []geo.Point{m2, e1}},
		chain{"Bridge", []geo.Point{m1, {Lat: 40.25, Lon: -87}, m2}},
		chain{"Decoy Neither", []geo.Point{{Lat: 39.5, Lon: -87.25}, {Lat: 39.5, Lon: -86.75}}},
		chain{"Decoy West", []geo.Point{{Lat: 39.75, Lon: -87.9375}, {Lat: 39.75, Lon: -87.25}}},
	)
	// The reach classes the fixture means, checked by distance.
	near := func(name string, dc sites.DataCenter) bool {
		for _, l := range db.ByLicensee(name) {
			for _, loc := range l.Locations {
				if geo.Distance(dc.Location, loc.Point) <= core.DefaultOptions().MaxFiberMeters {
					return true
				}
			}
		}
		return false
	}
	for name, want := range map[string][2]bool{
		"Loner": {true, true}, "Bridge": {false, false},
		"Decoy Neither": {false, false}, "Decoy West": {true, false},
	} {
		if got := [2]bool{near(name, dcW), near(name, dcE)}; got != want {
			t.Fatalf("%s files near (W, E) = %v, want %v", name, got, want)
		}
	}

	checkHandBuilt(t, db, [][2]string{{"Bridge", "Loner"}}, 1)
	for _, tails := range []int{1, 2, 0} {
		opts := core.DefaultOptions()
		opts.FiberTailsPerDC = tails
		cp := &countingProvider{SnapshotProvider: core.DirectProvider(db)}
		if _, err := ComplementaryPairsVia(cp, snapshot, pathWE, nil, opts); err != nil {
			t.Fatal(err)
		}
		if got := slices.Sorted(slices.Values(cp.singles)); !slices.Equal(got, []string{"Bridge", "Loner"}) {
			t.Errorf("tails=%d: single-licensee requests %v, want only [Bridge Loner]", tails, got)
		}
	}
}

// TestComplementaryPairsInvalidOptions: the candidate screen must not
// turn invalid options, a NaN fiber reach among them, into an empty
// answer.
func TestComplementaryPairsInvalidOptions(t *testing.T) {
	nan := core.DefaultOptions()
	nan.MaxFiberMeters = math.NaN()
	for _, opts := range []core.Options{{}, nan} {
		if pairs, err := ComplementaryPairsVia(core.DirectProvider(db(t)), snapshot, pathNY4, nil, opts); err == nil {
			t.Errorf("options %+v accepted, pairs %+v", opts, pairs)
		}
	}
}

// filedNear reports whether any of the licensees filed a location
// within the default fiber reach of dc, by a scan over their filings.
func filedNear(t *testing.T, names []string, dc sites.DataCenter) bool {
	t.Helper()
	for _, name := range names {
		for _, l := range db(t).ByLicensee(name) {
			for _, loc := range l.Locations {
				if geo.Distance(dc.Location, loc.Point) <= core.DefaultOptions().MaxFiberMeters {
					return true
				}
			}
		}
	}
	return false
}

// TestComplementaryPairsUnionBudget gates the screens' cost on the
// synthetic corpus at the paper's snapshot date: on every corridor
// path, ComplementaryPairsVia asks the engine for exactly one union per
// loner pair that shares a tower site and whose filings together reach
// both ends, at most one per twenty loner pairs, and finds only the
// joint pair.
func TestComplementaryPairsUnionBudget(t *testing.T) {
	eng := engine.New(db(t))
	opts := core.DefaultOptions()
	for _, path := range sites.CorridorPaths() {
		cp := &countingProvider{SnapshotProvider: eng}
		pairs, err := ComplementaryPairsVia(cp, snapshot, path, nil, opts)
		if err != nil {
			t.Fatal(err)
		}

		// Loners and their site-sharing pairs, found independently.
		var loners []string
		for _, name := range db(t).Licensees() {
			n, err := eng.Snapshot(core.SnapshotRequest{Licensees: []string{name},
				Date: snapshot, DCs: []sites.DataCenter{path.From, path.To}, Opts: opts})
			if err != nil {
				t.Fatal(err)
			}
			if !n.Connected(path) && len(n.Links) > 0 {
				loners = append(loners, name)
			}
		}
		all := len(loners) * (len(loners) - 1) / 2
		sharing, reaching := 0, 0
		for i := range loners {
			for j := i + 1; j < len(loners); j++ {
				if !sharesSite(t, eng, loners[i], loners[j], snapshot, path, opts) {
					continue
				}
				sharing++
				pair := []string{loners[i], loners[j]}
				if filedNear(t, pair, path.From) && filedNear(t, pair, path.To) {
					reaching++
				}
			}
		}
		t.Logf("%s: %d union requests, %d site-sharing of %d loner pairs, %d of them reaching both ends",
			path.Name(), len(cp.unions), sharing, all, reaching)
		if len(cp.unions) != reaching {
			t.Errorf("%s: %d union requests, want %d (the site-sharing loner pairs that reach both ends)",
				path.Name(), len(cp.unions), reaching)
		}
		if len(cp.unions)*20 > all {
			t.Errorf("%s: %d union requests exceed 1/20 of the %d loner pairs",
				path.Name(), len(cp.unions), all)
		}
		if len(pairs) != 1 || pairs[0].A != synth.JointA || pairs[0].B != synth.JointB {
			t.Errorf("%s: pairs = %+v, want only %s + %s", path.Name(), pairs, synth.JointA, synth.JointB)
		}
	}
}
