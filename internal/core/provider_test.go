package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"hftnetview/internal/geo"
	"hftnetview/internal/graph"
	"hftnetview/internal/radio"
	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
)

// providerDB builds a small two-network database: a laddered licensee
// (connected, alternates) and a chain licensee.
func providerDB(t testing.TB) *uls.Database {
	t.Helper()
	db := uls.NewDatabase()
	buildLadderNetwork(t, db, "Ladder Net", 12, 2000, grant15, 11000, 6000)
	buildChainNetwork(t, db, "Chain Net", 10, grant15, uls.Date{}, 11000)
	return db
}

// TestTowerKeyBoundarySignConsistency is the regression test for the
// quantization fix: a tower exactly on a cell boundary and one just
// east of it (well within co-location tolerance) must merge into the
// same cell in both hemispheres. With round-half-away-from-zero they
// merged at +87.125° but split at -87.125° — the corridor's hemisphere.
func TestTowerKeyBoundarySignConsistency(t *testing.T) {
	// 87.125 is exactly representable in binary and ×100 lands exactly
	// on the .5 quantization boundary at two decimals.
	for _, lon := range []float64{87.125, -87.125} {
		onBoundary := towerKey(geo.Point{Lat: 40, Lon: lon}, 2)
		justEast := towerKey(geo.Point{Lat: 40, Lon: lon + 0.0001}, 2)
		if onBoundary != justEast {
			t.Errorf("lon %v: boundary key %q != just-east key %q (sign-dependent split)",
				lon, onBoundary, justEast)
		}
	}
}

// TestTowerKeyNoNegativeZero: coordinates rounding to zero must not
// produce a distinct "-0" key.
func TestTowerKeyNoNegativeZero(t *testing.T) {
	neg := towerKey(geo.Point{Lat: -0.00001, Lon: -0.00001}, 4)
	pos := towerKey(geo.Point{Lat: 0.00001, Lon: 0.00001}, 4)
	if neg != pos {
		t.Errorf("negative-zero key %q != positive key %q", neg, pos)
	}
	if neg != "0.0000,0.0000" {
		t.Errorf("zero-cell key = %q, want 0.0000,0.0000", neg)
	}
}

// towerKey is the Tower.Key that stitching gives a tower at p.
func towerKey(p geo.Point, decimals int) string {
	return string(uls.SiteCellOf(p, decimals).AppendKey(nil, decimals))
}

// sprintfTowerKey is the fmt-based tower key that integer site cells
// replaced, kept as the reference towerKey must match byte for byte.
func sprintfTowerKey(p geo.Point, decimals int) string {
	scale := math.Pow(10, float64(decimals))
	lat := math.Floor(p.Lat*scale+0.5) / scale
	lon := math.Floor(p.Lon*scale+0.5) / scale
	if lat == 0 {
		lat = 0 // normalize -0
	}
	if lon == 0 {
		lon = 0
	}
	return fmt.Sprintf("%.*f,%.*f", decimals, lat, decimals, lon)
}

// TestTowerKeyMatchesSprintf: over 1M+ random points at every legal
// decimals setting, towerKey renders exactly the reference key. The
// points cover both hemispheres, ±0.001° around zero (where a cell's
// sign and a zero-padded fraction matter), exact half-cell boundaries,
// and the range limits.
func TestTowerKeyMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	check := func(p geo.Point, d int) {
		t.Helper()
		if got, want := towerKey(p, d), sprintfTowerKey(p, d); got != want {
			t.Fatalf("towerKey(%v, %d) = %q, want %q", p, d, got, want)
		}
	}
	for d := 1; d <= uls.MaxSiteDecimals; d++ {
		for _, lat := range []float64{-90, 0, 90} {
			for _, lon := range []float64{-180, 0, 180} {
				check(geo.Point{Lat: lat, Lon: lon}, d)
			}
		}
	}
	const n = 1 << 20
	for i := 0; i < n; i++ {
		d := 1 + (i/3)%uls.MaxSiteDecimals // every case at every d
		var p geo.Point
		switch i % 3 {
		case 0:
			p = geo.Point{Lat: uniform(-90, 90), Lon: uniform(-180, 180)}
		case 1:
			p = geo.Point{Lat: uniform(-0.001, 0.001), Lon: uniform(-0.001, 0.001)}
		case 2:
			// Half-cell boundaries, where floor(x·scale + 0.5) steps.
			half := func(limit float64) float64 {
				scale := math.Pow(10, float64(d))
				return (math.Floor(uniform(-limit, limit)*scale) + 0.5) / scale
			}
			p = geo.Point{Lat: half(90), Lon: half(180)}
		}
		check(p, d)
	}
}

func TestOptionsFingerprint(t *testing.T) {
	base := DefaultOptions()
	if string(base.AppendFingerprint(nil)) != string(DefaultOptions().AppendFingerprint(nil)) {
		t.Fatal("equal options produced different fingerprints")
	}
	variants := []Options{
		{TowerMergeDecimals: 5, MaxFiberMeters: 50e3, FiberTailsPerDC: 1, StretchBound: 1.05},
		{TowerMergeDecimals: 4, MaxFiberMeters: 40e3, FiberTailsPerDC: 1, StretchBound: 1.05},
		{TowerMergeDecimals: 4, MaxFiberMeters: 50e3, FiberTailsPerDC: 0, StretchBound: 1.05},
		{TowerMergeDecimals: 4, MaxFiberMeters: 50e3, FiberTailsPerDC: 1, StretchBound: 1.10},
	}
	seen := map[string]bool{string(base.AppendFingerprint(nil)): true}
	for _, v := range variants {
		fp := string(v.AppendFingerprint(nil))
		if seen[fp] {
			t.Errorf("options %+v collide with a previous fingerprint %q", v, fp)
		}
		seen[fp] = true
	}
}

// TestNetworkCloneIndependence: the only copy of a network left is the
// header copy the snapshot engine hands each reader. The copy must be
// independent where its holder may write — its own header fields — and
// knocking edges out of routes through the copy (a private mask, as
// APA, storm routing and diverse routes do) must leave the original's
// graph and routes untouched. The per-path route/APA memo stays shared.
func TestNetworkCloneIndependence(t *testing.T) {
	db := providerDB(t)
	orig, err := Reconstruct(db, "Ladder Net", date20, sites.All, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r0, ok := orig.route(pathNY4, nil)
	if !ok {
		t.Fatal("ladder network should be connected")
	}

	c := *orig
	// Exclude every edge through the copy.
	all := make(graph.Mask, c.g.NumEdges())
	for i := range all {
		all[i] = true
	}
	if _, ok := c.route(pathNY4, all); ok {
		t.Error("copy should be disconnected with every edge excluded")
	}
	// Run the edge-excluding analyses through the copy.
	if _, ok := c.APA(pathNY4); !ok {
		t.Error("ladder network should have an APA")
	}
	c.DiverseRoutes(pathNY4, 4)
	storm := radio.GenerateStorm(3, sites.CME.Location, sites.NY4.Location, radio.DefaultStormConfig())
	if _, err := c.RouteUnderStorm(pathNY4, storm, radio.DefaultFadeMarginDB); err != nil {
		t.Fatal(err)
	}
	// Reassign every exported field of the copy.
	c.Licensee = "vandal"
	c.Date = uls.NewDate(1999, time.January, 1)
	c.Towers, c.Links, c.Fiber = nil, nil, nil

	if orig.Licensee != "Ladder Net" || orig.Date != date20 {
		t.Errorf("copy header reached the original: licensee %q, date %v", orig.Licensee, orig.Date)
	}
	if len(orig.Towers) == 0 || len(orig.Links) == 0 {
		t.Error("copy slice reassignment reached the original")
	}
	r1, ok := orig.route(pathNY4, nil)
	if !ok {
		t.Fatal("original lost connectivity after analyses through the copy")
	}
	if r1.Latency != r0.Latency {
		t.Errorf("original route latency changed: %v -> %v", r0.Latency, r1.Latency)
	}
	if best, ok := orig.BestRoute(pathNY4); !ok || best.Latency != r0.Latency {
		t.Errorf("original memoized route latency = %v (ok=%v), want %v", best.Latency, ok, r0.Latency)
	}
	if c.memo != orig.memo {
		t.Error("header copy should share the per-path memo with the original")
	}
}

// TestProviderVariantsAgree: ConnectedNetworksVia over a DirectProvider
// must reproduce, row for row, the table built by hand from one
// Reconstruct per licensee.
func TestProviderVariantsAgree(t *testing.T) {
	db := providerDB(t)
	var direct []NetworkSummary
	for _, name := range db.Licensees() {
		n, err := Reconstruct(db, name, date20, []sites.DataCenter{pathNY4.From, pathNY4.To}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if s := summarize(name, n, pathNY4); s != nil {
			direct = append(direct, *s)
		}
	}
	sort.Slice(direct, func(i, j int) bool { return direct[i].Latency < direct[j].Latency })
	via, err := ConnectedNetworksVia(DirectProvider(db), date20, pathNY4, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(via) {
		t.Fatalf("Via rows = %d, direct rows = %d", len(via), len(direct))
	}
	for i := range direct {
		if direct[i].Licensee != via[i].Licensee || direct[i].Latency != via[i].Latency ||
			direct[i].APA != via[i].APA {
			t.Errorf("row %d differs: %+v vs %+v", i, direct[i], via[i])
		}
	}
}
