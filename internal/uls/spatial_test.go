package uls

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"
	"time"

	"hftnetview/internal/geo"
)

// scatterDB builds a database of licenses scattered over the corridor
// bounding box.
func scatterDB(t testing.TB, n int) *Database {
	t.Helper()
	db := NewDatabase()
	scatter(t, db, rand.New(rand.NewPCG(3, 9)), "WQSP", n, 39, 4, -89, 15)
	return db
}

// scatter adds n two-location licenses with call signs prefix0000… to
// db, each first location uniform over the box [lat, lat+dLat] ×
// [lon, lon+dLon].
func scatter(t testing.TB, db *Database, rng *rand.Rand, prefix string, n int, lat, dLat, lon, dLon float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		a := geo.Point{
			Lat: lat + rng.Float64()*dLat,
			Lon: lon + rng.Float64()*dLon,
		}
		b := geo.Point{Lat: a.Lat + 0.1 + 0.3*rng.Float64(), Lon: a.Lon + 0.2}
		addSites(t, db, fmt.Sprintf("%s%04d", prefix, i), "Scatter Net", a, b)
	}
}

// addSites adds a one-path license between two sites.
func addSites(t testing.TB, db *Database, callSign, licensee string, a, b geo.Point) {
	t.Helper()
	l := &License{
		CallSign: callSign, LicenseID: db.Len() + 1,
		Licensee: licensee, FRN: "0000000077",
		RadioService: ServiceMG, Status: StatusActive,
		Grant: NewDate(2015, time.June, 1),
		Locations: []Location{
			{Number: 1, Point: a, GroundElevation: 100, SupportHeight: 80},
			{Number: 2, Point: b, GroundElevation: 100, SupportHeight: 80},
		},
		Paths: []Path{{Number: 1, TXLocation: 1, RXLocation: 2,
			StationClass: ClassFXO, FrequenciesMHz: []float64{6004.5}}},
	}
	if err := db.Add(l); err != nil {
		t.Fatal(err)
	}
}

// sameSearch fails unless the indexed search returns exactly the scan's
// licenses, and returns the scan.
func sameSearch(t *testing.T, db *Database, center geo.Point, radius float64) []*License {
	t.Helper()
	scan := db.WithinRadius(center, radius)
	indexed := db.WithinRadiusIndexed(center, radius)
	if len(scan) != len(indexed) {
		t.Fatalf("%v: scan %d vs indexed %d (radius %.0f km)",
			center, len(scan), len(indexed), radius/1000)
	}
	for i := range scan {
		if scan[i].CallSign != indexed[i].CallSign {
			t.Fatalf("%v radius %.0f km: result %d differs: %s vs %s",
				center, radius/1000, i, scan[i].CallSign, indexed[i].CallSign)
		}
	}
	return scan
}

// TestWithinRadiusIndexedMatchesScan: the grid search returns exactly
// the scan's licenses over the corridor, at low latitudes (where a
// degree of latitude is shorter than 111 km, so a window sized by 111
// km per degree misses cells), on sites just inside the radius due
// north of two such centers, and for a radius longer than any distance
// on Earth.
func TestWithinRadiusIndexedMatchesScan(t *testing.T) {
	db := scatterDB(t, 600)
	rng := rand.New(rand.NewPCG(11, 2))
	for trial := 0; trial < 40; trial++ {
		center := geo.Point{
			Lat: 39 + rng.Float64()*4,
			Lon: -89 + rng.Float64()*15,
		}
		sameSearch(t, db, center, 1e3+rng.Float64()*80e3)
	}

	low := NewDatabase()
	scatter(t, low, rand.New(rand.NewPCG(5, 7)), "WQLO", 600, 0, 38, -120, 60)
	edges := []struct {
		center geo.Point
		north  float64 // meters due north of center
	}{
		{geo.Point{Lat: 18.049, Lon: -66.2}, 49.97e3},
		{geo.Point{Lat: 29.549, Lon: -95.2}, 49.99e3},
	}
	for i, e := range edges {
		site := geo.Destination(e.center, 0, e.north)
		addSites(t, low, fmt.Sprintf("WQED%04d", i), "Scatter Net", site, geo.Point{Lat: site.Lat + 1, Lon: site.Lon})
	}
	for i, e := range edges {
		found := false
		for _, l := range sameSearch(t, low, e.center, 50e3) {
			found = found || l.CallSign == fmt.Sprintf("WQED%04d", i)
		}
		if !found {
			t.Errorf("%v: the site %.2f km north is not within 50 km; the check is vacuous", e.center, e.north/1e3)
		}
	}
	for trial := 0; trial < 40; trial++ {
		center := geo.Point{
			Lat: rng.Float64() * 38,
			Lon: -120 + rng.Float64()*60,
		}
		sameSearch(t, low, center, 1e3+rng.Float64()*80e3)
	}

	// Longer than any distance on Earth: every license matches.
	for _, c := range []struct {
		db     *Database
		center geo.Point
	}{{db, geo.Point{Lat: 41, Lon: -80}}, {low, geo.Point{Lat: 0, Lon: 0}}} {
		for _, radius := range []float64{1e8, math.Inf(1)} {
			if got := sameSearch(t, c.db, c.center, radius); len(got) != c.db.Len() {
				t.Errorf("%v: a %g m search found %d of %d licenses", c.center, radius, len(got), c.db.Len())
			}
		}
	}
}

func TestWithinRadiusIndexedInvalidation(t *testing.T) {
	db := scatterDB(t, 50)
	center := geo.Point{Lat: 41, Lon: -80}
	before := len(db.WithinRadiusIndexed(center, 50e3))
	// Add a license right at the center; the index must pick it up.
	l := testLicense("WQSPNEW", "Scatter Net", NewDate(2016, time.March, 1), Date{})
	l.Locations[0].Point = center
	l.Locations[1].Point = geo.Point{Lat: 41.1, Lon: -80.1}
	if err := db.Add(l); err != nil {
		t.Fatal(err)
	}
	after := len(db.WithinRadiusIndexed(center, 50e3))
	if after != before+1 {
		t.Errorf("after Add: %d results, want %d", after, before+1)
	}
}

func TestWithinRadiusIndexedConcurrent(t *testing.T) {
	db := scatterDB(t, 300)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, 0))
			for i := 0; i < 50; i++ {
				center := geo.Point{Lat: 39 + rng.Float64()*4, Lon: -89 + rng.Float64()*15}
				db.WithinRadiusIndexed(center, 30e3)
			}
		}(uint64(w))
	}
	wg.Wait()
}

// TestLicenseesWithin: the cached reach list names exactly the
// licensees of WithinRadius's licenses, once each and sorted, to
// concurrent readers (run under -race), and an Add drops it.
func TestLicenseesWithin(t *testing.T) {
	db := NewDatabase()
	rng := rand.New(rand.NewPCG(2, 4))
	for i := 0; i < 200; i++ {
		a := geo.Point{Lat: 39 + rng.Float64()*4, Lon: -89 + rng.Float64()*15}
		addSites(t, db, fmt.Sprintf("WQLW%04d", i), fmt.Sprintf("Net %02d", i%25),
			a, geo.Point{Lat: a.Lat + 0.2, Lon: a.Lon})
	}
	center, radius := geo.Point{Lat: 41, Lon: -80}, 150e3
	scan := func() []string {
		var names []string
		for _, l := range db.WithinRadius(center, radius) {
			names = append(names, l.Licensee)
		}
		slices.Sort(names)
		return slices.Compact(names)
	}
	want := scan()
	if len(want) == 0 || len(want) == 25 {
		t.Fatalf("%d of 25 licensees within reach; the check is vacuous", len(want))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := db.LicenseesWithin(center, radius); !slices.Equal(got, want) {
					t.Errorf("LicenseesWithin = %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()

	addSites(t, db, "WQLWNEW", "Newcomer", center, geo.Point{Lat: 41.2, Lon: -80})
	if got := db.LicenseesWithin(center, radius); !slices.Contains(got, "Newcomer") || !slices.Equal(got, scan()) {
		t.Errorf("after Add: LicenseesWithin = %v, want %v", got, scan())
	}
}

func TestWithinRadiusIndexedEdgeCases(t *testing.T) {
	db := NewDatabase()
	if got := db.WithinRadiusIndexed(geo.Point{Lat: 41, Lon: -80}, 10e3); len(got) != 0 {
		t.Errorf("empty db: %d results", len(got))
	}
	// Tiny radius finds only the exact site.
	full := scatterDB(t, 100)
	l, _ := full.ByCallSign("WQSP0000")
	pt := l.Locations[0].Point
	got := full.WithinRadiusIndexed(pt, 1)
	found := false
	for _, g := range got {
		if g.CallSign == "WQSP0000" {
			found = true
		}
	}
	if !found {
		t.Error("1 m search at a site missed its license")
	}
}
