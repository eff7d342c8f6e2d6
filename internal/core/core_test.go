package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"hftnetview/internal/geo"
	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
	"hftnetview/internal/units"
)

var (
	pathNY4 = sites.Path{From: sites.CME, To: sites.NY4}
	grant15 = uls.NewDate(2015, time.June, 1)
	date20  = uls.NewDate(2020, time.April, 1)
)

// addLinkLicense files one single-hop license between two points.
func addLinkLicense(t testing.TB, db *uls.Database, licensee string, seq int,
	a, b geo.Point, grant, cancel uls.Date, freqsMHz []float64) {
	t.Helper()
	l := &uls.License{
		CallSign:     fmt.Sprintf("WQ%s%04d", initials(licensee), seq),
		LicenseID:    seq,
		Licensee:     licensee,
		FRN:          "0000000000",
		RadioService: uls.ServiceMG,
		Status:       uls.StatusActive,
		Grant:        grant,
		Cancellation: cancel,
		Locations: []uls.Location{
			{Number: 1, Point: a, GroundElevation: 200, SupportHeight: 100},
			{Number: 2, Point: b, GroundElevation: 200, SupportHeight: 100},
		},
		Paths: []uls.Path{{
			Number: 1, TXLocation: 1, RXLocation: 2,
			StationClass: uls.ClassFXO, FrequenciesMHz: freqsMHz,
		}},
	}
	if err := db.Add(l); err != nil {
		t.Fatalf("add license: %v", err)
	}
}

func initials(s string) string {
	out := make([]byte, 0, 2)
	for i := 0; i < len(s) && len(out) < 2; i++ {
		if s[i] >= 'A' && s[i] <= 'Z' {
			out = append(out, s[i])
		}
	}
	for len(out) < 2 {
		out = append(out, 'X')
	}
	return string(out)
}

// chainTowers returns nTowers points along the CME→NY4 geodesic, the
// first ~2 km from CME and the last ~2 km from NY4.
func chainTowers(nTowers int) []geo.Point {
	pts := make([]geo.Point, nTowers)
	for i := range pts {
		frac := 0.002 + (0.996 * float64(i) / float64(nTowers-1))
		pts[i] = geo.Interpolate(sites.CME.Location, sites.NY4.Location, frac)
	}
	return pts
}

// buildChainNetwork files a pure chain for licensee; returns the tower
// points.
func buildChainNetwork(t testing.TB, db *uls.Database, licensee string,
	nTowers int, grant, cancel uls.Date, freqMHz float64) []geo.Point {
	pts := chainTowers(nTowers)
	for i := 0; i < nTowers-1; i++ {
		addLinkLicense(t, db, licensee, i+1, pts[i], pts[i+1], grant, cancel,
			[]float64{freqMHz})
	}
	return pts
}

// buildLadderNetwork files a two-rail ladder: rail A on the geodesic,
// rail B offset laterally, rungs at every tower pair. Rail A carries
// freqA, rail B and rungs carry freqB.
func buildLadderNetwork(t testing.TB, db *uls.Database, licensee string,
	nTowers int, lateralM float64, grant uls.Date, freqA, freqB float64) {
	a := chainTowers(nTowers)
	brg := geo.InitialBearing(sites.CME.Location, sites.NY4.Location)
	b := make([]geo.Point, nTowers)
	for i := range b {
		b[i] = geo.Offset(a[i], brg, 0, lateralM)
	}
	seq := 1
	for i := 0; i < nTowers-1; i++ {
		addLinkLicense(t, db, licensee, seq, a[i], a[i+1], grant, uls.Date{}, []float64{freqA})
		seq++
		addLinkLicense(t, db, licensee, seq, b[i], b[i+1], grant, uls.Date{}, []float64{freqB})
		seq++
	}
	for i := 0; i < nTowers; i++ {
		addLinkLicense(t, db, licensee, seq, a[i], b[i], grant, uls.Date{}, []float64{freqB})
		seq++
	}
}

func reconstructOrDie(t testing.TB, db *uls.Database, licensee string, d uls.Date) *Network {
	t.Helper()
	n, err := Reconstruct(db, licensee, d, sites.All, DefaultOptions())
	if err != nil {
		t.Fatalf("Reconstruct(%s): %v", licensee, err)
	}
	return n
}

func TestReconstructChain(t *testing.T) {
	db := uls.NewDatabase()
	pts := buildChainNetwork(t, db, "Chain Net", 25, grant15, uls.Date{}, 11000)
	n := reconstructOrDie(t, db, "Chain Net", date20)

	if len(n.Towers) != 25 {
		t.Errorf("towers = %d, want 25 (shared endpoints deduped)", len(n.Towers))
	}
	if len(n.Links) != 24 {
		t.Errorf("links = %d, want 24", len(n.Links))
	}
	// Fiber tails: first tower within 50 km of CME, last within 50 km of
	// NY4; NYSE/NASDAQ may also be within 50 km of trailing towers.
	if len(n.Fiber) < 2 {
		t.Errorf("fiber tails = %d, want >= 2", len(n.Fiber))
	}
	r, ok := n.BestRoute(pathNY4)
	if !ok {
		t.Fatal("chain should be connected")
	}
	if r.TowerCount != 25 {
		t.Errorf("route towers = %d, want 25", r.TowerCount)
	}
	if r.HopCount() != 24 {
		t.Errorf("route hops = %d, want 24", r.HopCount())
	}
	// Latency must equal MW polyline latency plus the two fiber tails.
	mw := units.MicrowaveLatency(geo.PathLength(pts))
	fiber := units.FiberLatency(geo.Distance(sites.CME.Location, pts[0])) +
		units.FiberLatency(geo.Distance(pts[len(pts)-1], sites.NY4.Location))
	want := mw + fiber
	if math.Abs(r.Latency.Seconds()-want.Seconds()) > 1e-9 {
		t.Errorf("route latency = %v, want %v", r.Latency, want)
	}
	// On-geodesic chain ≈ c-latency of the geodesic, inflated only by
	// the slower fiber tails (~0.2%) and air refraction (~0.03%).
	c := units.CLatency(pathNY4.GeodesicMeters())
	if r.Latency.Stretch(c) > 1.003 {
		t.Errorf("stretch = %v, want < 1.003", r.Latency.Stretch(c))
	}
}

func TestReconstructBeforeGrant(t *testing.T) {
	db := uls.NewDatabase()
	buildChainNetwork(t, db, "Chain Net", 10, grant15, uls.Date{}, 11000)
	n := reconstructOrDie(t, db, "Chain Net", uls.NewDate(2014, time.January, 1))
	if len(n.Links) != 0 {
		t.Errorf("links before grant = %d, want 0", len(n.Links))
	}
	if n.Connected(pathNY4) {
		t.Error("network should not be connected before grant")
	}
}

func TestReconstructAfterCancellation(t *testing.T) {
	db := uls.NewDatabase()
	cancel := uls.NewDate(2018, time.March, 1)
	buildChainNetwork(t, db, "Dead Net", 10, grant15, cancel, 11000)
	n := reconstructOrDie(t, db, "Dead Net", date20)
	if n.Connected(pathNY4) {
		t.Error("cancelled network should be disconnected")
	}
	nLive := reconstructOrDie(t, db, "Dead Net", uls.NewDate(2017, time.June, 1))
	if !nLive.Connected(pathNY4) {
		t.Error("network should be connected before cancellation")
	}
}

func TestReconstructMissingOneLink(t *testing.T) {
	// A chain with a hole has no end-to-end route.
	db := uls.NewDatabase()
	pts := chainTowers(12)
	for i := 0; i < len(pts)-1; i++ {
		if i == 5 {
			continue // hole
		}
		addLinkLicense(t, db, "Holey Net", i+1, pts[i], pts[i+1], grant15,
			uls.Date{}, []float64{11000})
	}
	n := reconstructOrDie(t, db, "Holey Net", date20)
	if n.Connected(pathNY4) {
		t.Error("chain with a missing link should be disconnected")
	}
}

func TestFiberCutoff(t *testing.T) {
	// A chain whose last tower is > 50 km from NY4 is not connected.
	db := uls.NewDatabase()
	pts := chainTowers(20)
	short := pts[:15] // ends mid-corridor
	for i := 0; i < len(short)-1; i++ {
		addLinkLicense(t, db, "Short Net", i+1, short[i], short[i+1], grant15,
			uls.Date{}, []float64{11000})
	}
	n := reconstructOrDie(t, db, "Short Net", date20)
	if n.Connected(pathNY4) {
		t.Error("chain ending mid-corridor should not reach NY4")
	}
}

func TestAPAChainIsZero(t *testing.T) {
	db := uls.NewDatabase()
	buildChainNetwork(t, db, "Chain Net", 25, grant15, uls.Date{}, 11000)
	n := reconstructOrDie(t, db, "Chain Net", date20)
	apa, ok := n.APA(pathNY4)
	if !ok {
		t.Fatal("APA not computable")
	}
	if apa != 0 {
		t.Errorf("chain APA = %v, want 0", apa)
	}
}

func TestAPALadderIsHigh(t *testing.T) {
	db := uls.NewDatabase()
	buildLadderNetwork(t, db, "Ladder Net", 15, 3000, grant15, 11000, 6000)
	n := reconstructOrDie(t, db, "Ladder Net", date20)
	apa, ok := n.APA(pathNY4)
	if !ok {
		t.Fatal("APA not computable")
	}
	if apa < 0.9 {
		t.Errorf("ladder APA = %v, want >= 0.9", apa)
	}
}

func TestAPADisconnectedNetwork(t *testing.T) {
	db := uls.NewDatabase()
	buildChainNetwork(t, db, "Dead Net", 10, grant15, uls.NewDate(2016, time.January, 1), 11000)
	n := reconstructOrDie(t, db, "Dead Net", date20)
	if _, ok := n.APA(pathNY4); ok {
		t.Error("APA should not be computable for a disconnected network")
	}
}

func TestLinkLengthsOnBoundedPaths(t *testing.T) {
	db := uls.NewDatabase()
	buildChainNetwork(t, db, "Chain Net", 25, grant15, uls.Date{}, 11000)
	n := reconstructOrDie(t, db, "Chain Net", date20)
	lengths, ok := n.LinkLengthsOnBoundedPaths(pathNY4)
	if !ok {
		t.Fatal("no bounded paths")
	}
	if len(lengths) != 24 {
		t.Errorf("lengths = %d, want 24", len(lengths))
	}
	// 1186 km over 24 links ≈ 49.4 km per link.
	cdf := NewCDF(lengths)
	if med := cdf.Median() / 1000; math.Abs(med-49.4) > 2 {
		t.Errorf("median link length = %.1f km, want ≈49.4", med)
	}
	// Ascending.
	for i := 1; i < len(lengths); i++ {
		if lengths[i-1] > lengths[i] {
			t.Fatal("lengths not sorted")
		}
	}
}

func TestFrequenciesOnShortestAndAlternatePaths(t *testing.T) {
	db := uls.NewDatabase()
	buildLadderNetwork(t, db, "Ladder Net", 10, 3000, grant15, 11000, 6000)
	n := reconstructOrDie(t, db, "Ladder Net", date20)

	sp, ok := n.FrequenciesOnShortestPath(pathNY4)
	if !ok || len(sp) == 0 {
		t.Fatal("no shortest-path frequencies")
	}
	// Rail A (on the geodesic) carries 11 GHz.
	for _, f := range sp {
		if math.Abs(f-11.0) > 0.01 {
			t.Errorf("shortest-path frequency %v GHz, want 11", f)
		}
	}
	alt, ok := n.FrequenciesOnAlternatePaths(pathNY4)
	if !ok || len(alt) == 0 {
		t.Fatal("no alternate-path frequencies")
	}
	// Alternates are rail B and rungs at 6 GHz.
	has6 := false
	for _, f := range alt {
		if math.Abs(f-6.0) < 0.01 {
			has6 = true
		}
	}
	if !has6 {
		t.Error("alternate paths should carry 6 GHz links")
	}
}

func TestCDF(t *testing.T) {
	c := NewCDF([]float64{4, 1, 3, 2})
	if c.Median() != 2 {
		t.Errorf("median = %v, want 2", c.Median())
	}
	if got := c.At(2); got != 0.5 {
		t.Errorf("At(2) = %v, want 0.5", got)
	}
	if got := c.At(0.5); got != 0 {
		t.Errorf("At(0.5) = %v, want 0", got)
	}
	if got := c.At(4); got != 1 {
		t.Errorf("At(4) = %v, want 1", got)
	}
	if got := c.FractionBelow(3); got != 0.5 {
		t.Errorf("FractionBelow(3) = %v, want 0.5", got)
	}
	if got := c.Quantile(0.25); got != 1 {
		t.Errorf("Quantile(0.25) = %v, want 1", got)
	}
	if got := c.Quantile(1); got != 4 {
		t.Errorf("Quantile(1) = %v, want 4", got)
	}
	empty := NewCDF(nil)
	if !math.IsNaN(empty.Median()) {
		t.Error("empty median should be NaN")
	}
	if empty.At(1) != 0 || empty.FractionBelow(1) != 0 {
		t.Error("empty CDF should be 0 everywhere")
	}
}

func TestConnectedNetworksOrdering(t *testing.T) {
	db := uls.NewDatabase()
	// Fast: straight chain. Slow: chain with lateral detours.
	buildChainNetwork(t, db, "Fast Net", 25, grant15, uls.Date{}, 11000)
	pts := chainTowers(25)
	brg := geo.InitialBearing(sites.CME.Location, sites.NY4.Location)
	for i := 0; i < len(pts)-1; i++ {
		a, b := pts[i], pts[i+1]
		if i%2 == 0 {
			a = geo.Offset(a, brg, 0, 8000)
		} else {
			b = geo.Offset(b, brg, 0, 8000)
		}
		addLinkLicense(t, db, "Slow Net", i+1, a, b, grant15, uls.Date{}, []float64{6000})
	}
	// And one never-connected licensee.
	buildChainNetwork(t, db, "Partial Net", 6, grant15, uls.Date{}, 11000)

	rows, err := ConnectedNetworksVia(DirectProvider(db), date20, pathNY4, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		// Partial Net is only the first 6 towers of the corridor chain;
		// it cannot reach NY4... unless its towers all sit within CME
		// fiber range. It should be excluded.
		t.Fatalf("connected networks = %d, want 3? rows=%+v", len(rows), rows)
	}
	_ = rows
}

func TestEvolution(t *testing.T) {
	db := uls.NewDatabase()
	buildChainNetwork(t, db, "Evolving Net", 20, uls.NewDate(2016, time.January, 1),
		uls.Date{}, 11000)
	dates := PaperSampleDates(2013, 2020)
	if len(dates) != 8 {
		t.Fatalf("sample dates = %d, want 8", len(dates))
	}
	if dates[7] != uls.NewDate(2020, time.April, 1) {
		t.Errorf("2020 sample = %v, want April 1", dates[7])
	}
	pointsList, err := EvolutionVia(DirectProvider(db), "Evolving Net", pathNY4, dates, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(pointsList) != 8 {
		t.Fatalf("evolution points = %d", len(pointsList))
	}
	for i, pt := range pointsList {
		wantConnected := dates[i].Year >= 2016
		if pt.Connected != wantConnected {
			t.Errorf("connected at %v = %v, want %v", pt.Date, pt.Connected, wantConnected)
		}
		wantLicenses := 0
		if dates[i].Year >= 2016 {
			wantLicenses = 19
		}
		if pt.ActiveLicenses != wantLicenses {
			t.Errorf("licenses at %v = %d, want %d", pt.Date, pt.ActiveLicenses, wantLicenses)
		}
	}
}

func TestYAMLRoundTrip(t *testing.T) {
	db := uls.NewDatabase()
	buildChainNetwork(t, db, "Chain Net", 8, grant15, uls.Date{}, 11245)
	n := reconstructOrDie(t, db, "Chain Net", date20)
	data, err := n.ToYAML()
	if err != nil {
		t.Fatal(err)
	}
	nf, err := ParseNetworkYAML(data)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, data)
	}
	if nf.Licensee != "Chain Net" {
		t.Errorf("licensee = %q", nf.Licensee)
	}
	if nf.Date != n.Date.String() {
		t.Errorf("date = %q, want %q", nf.Date, n.Date.String())
	}
	if len(nf.Towers) != len(n.Towers) {
		t.Fatalf("towers = %d, want %d", len(nf.Towers), len(n.Towers))
	}
	for i := range nf.Towers {
		if geo.Distance(nf.Towers[i].Point, n.Towers[i].Point) > 1 {
			t.Errorf("tower %d moved in YAML round trip", i)
		}
	}
	if len(nf.Links) != len(n.Links) {
		t.Fatalf("links = %d, want %d", len(nf.Links), len(n.Links))
	}
	for i := range nf.Links {
		if nf.Links[i].From != n.Links[i].From || nf.Links[i].To != n.Links[i].To {
			t.Errorf("link %d endpoints changed", i)
		}
		if len(nf.Links[i].FrequenciesMHz) != 1 || nf.Links[i].FrequenciesMHz[0] != 11245 {
			t.Errorf("link %d frequencies = %v", i, nf.Links[i].FrequenciesMHz)
		}
		wantKM := n.Links[i].LengthMeters / 1000
		if math.Abs(nf.Links[i].LengthKM-wantKM) > 0.01 {
			t.Errorf("link %d length = %v, want %v", i, nf.Links[i].LengthKM, wantKM)
		}
	}
}

func TestNetworkFromFileRoundTrip(t *testing.T) {
	// Reconstruct → YAML → parse → NetworkFromFile must reproduce the
	// network's routes exactly (coordinates carry full precision).
	db := uls.NewDatabase()
	buildLadderNetwork(t, db, "Round Net", 12, 3000, grant15, 11000, 6000)
	orig := reconstructOrDie(t, db, "Round Net", date20)
	data, err := orig.ToYAML()
	if err != nil {
		t.Fatal(err)
	}
	nf, err := ParseNetworkYAML(data)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := NetworkFromFile(nf, sites.All, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rebuilt.Towers) != len(orig.Towers) || len(rebuilt.Links) != len(orig.Links) {
		t.Fatalf("rebuilt %d towers / %d links, want %d / %d",
			len(rebuilt.Towers), len(rebuilt.Links), len(orig.Towers), len(orig.Links))
	}
	r1, ok1 := orig.BestRoute(pathNY4)
	r2, ok2 := rebuilt.BestRoute(pathNY4)
	if !ok1 || !ok2 {
		t.Fatal("routes missing")
	}
	if math.Abs(r1.Latency.Seconds()-r2.Latency.Seconds()) > 1e-12 {
		t.Errorf("latency changed through YAML: %v vs %v", r1.Latency, r2.Latency)
	}
	a1, _ := orig.APA(pathNY4)
	a2, _ := rebuilt.APA(pathNY4)
	if a1 != a2 {
		t.Errorf("APA changed through YAML: %v vs %v", a1, a2)
	}
}

func TestNetworkFromFileErrors(t *testing.T) {
	nf := &NetworkFile{Licensee: "X", Date: "garbage"}
	if _, err := NetworkFromFile(nf, sites.All, DefaultOptions()); err == nil {
		t.Error("bad date accepted")
	}
	nf = &NetworkFile{Licensee: "X", Date: "04/01/2020",
		Towers: []TowerRecord{{ID: 0, Point: geo.Point{Lat: 41, Lon: -80}}},
		Links:  []LinkRecord{{From: 0, To: 7}},
	}
	if _, err := NetworkFromFile(nf, sites.All, DefaultOptions()); err == nil {
		t.Error("dangling link accepted")
	}
	for _, pt := range []geo.Point{{Lat: 1e300, Lon: -80}, {Lat: 41, Lon: math.Inf(-1)}, {Lat: math.NaN(), Lon: -80}} {
		nf = &NetworkFile{Licensee: "X", Date: "04/01/2020",
			Towers: []TowerRecord{{ID: 0, Point: geo.Point{Lat: 41, Lon: -80}}, {ID: 1, Point: pt}},
			Links:  []LinkRecord{{From: 0, To: 1}},
		}
		if _, err := NetworkFromFile(nf, sites.All, DefaultOptions()); err == nil {
			t.Errorf("tower at %v accepted", pt)
		}
	}
}

func TestParseNetworkYAMLErrors(t *testing.T) {
	bad := []string{
		"- a\n- b\n",                        // not a mapping
		"date: 04/01/2020\n",                // missing licensee
		"licensee: X\ntowers:\n  - 1\n",     // tower not a mapping
		"licensee: X\ntowers:\n  - id: 0\n", // tower missing coords
		"licensee: X\ntowers:\n  - id: 0\n    lat: 41.0\n    lon: -80.0\nlinks:\n  - from: 0\n    to: 5\n", // bad link ref
	}
	for _, in := range bad {
		if _, err := ParseNetworkYAML([]byte(in)); err == nil {
			t.Errorf("ParseNetworkYAML(%q) succeeded, want error", in)
		}
	}
}

func TestReconstructInvalidOptions(t *testing.T) {
	db := uls.NewDatabase()
	two := DirectProvider(providerDB(t))
	for _, opts := range []Options{
		{},
		{TowerMergeDecimals: 4, MaxFiberMeters: 50e3, StretchBound: 1.0},
		{TowerMergeDecimals: 0, MaxFiberMeters: 50e3, StretchBound: 1.05},
		// Past 9 decimals a site cell may not fit an int64.
		{TowerMergeDecimals: 10, MaxFiberMeters: 50e3, StretchBound: 1.05},
		// NaN fails every comparison, so it must fail the check too.
		{TowerMergeDecimals: 4, MaxFiberMeters: math.NaN(), StretchBound: 1.05},
		{TowerMergeDecimals: 4, MaxFiberMeters: 50e3, StretchBound: math.NaN()},
	} {
		if _, err := Reconstruct(db, "X", date20, sites.All, opts); err == nil {
			t.Errorf("Reconstruct accepted invalid options %+v", opts)
		}
		nf := &NetworkFile{Licensee: "X", Date: "04/01/2020"}
		if _, err := NetworkFromFile(nf, sites.All, opts); err == nil {
			t.Errorf("NetworkFromFile accepted invalid options %+v", opts)
		}
		// The fiber-reach screen must not turn an invalid fiber reach
		// into an empty answer.
		if _, err := ConnectedNetworksVia(two, date20, pathNY4, opts); err == nil {
			t.Errorf("ConnectedNetworksVia accepted invalid options %+v", opts)
		}
		if _, err := EvolutionVia(two, "Chain Net", pathNY4, []uls.Date{date20}, opts); err == nil {
			t.Errorf("EvolutionVia accepted invalid options %+v", opts)
		}
	}
	opts := DefaultOptions()
	opts.TowerMergeDecimals = 9
	if _, err := Reconstruct(db, "X", date20, sites.All, opts); err != nil {
		t.Errorf("Reconstruct rejected 9 tower-merge decimals: %v", err)
	}
}

func TestLatencyBound(t *testing.T) {
	db := uls.NewDatabase()
	buildChainNetwork(t, db, "Chain Net", 10, grant15, uls.Date{}, 11000)
	n := reconstructOrDie(t, db, "Chain Net", date20)
	bound := n.LatencyBound(pathNY4)
	c := units.CLatency(pathNY4.GeodesicMeters())
	if math.Abs(bound.Stretch(c)-1.05) > 1e-9 {
		t.Errorf("bound stretch = %v, want 1.05", bound.Stretch(c))
	}
}
