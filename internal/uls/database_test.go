package uls

import (
	"testing"
	"time"

	"hftnetview/internal/geo"
)

func buildTestDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	add := func(l *License) {
		t.Helper()
		if err := db.Add(l); err != nil {
			t.Fatalf("Add(%s): %v", l.CallSign, err)
		}
	}
	// Alpha Networks: two licenses, one cancelled in 2018.
	a1 := testLicense("WQAL001", "Alpha Networks", NewDate(2014, time.March, 1), Date{})
	a2 := testLicense("WQAL002", "Alpha Networks", NewDate(2015, time.July, 1),
		NewDate(2018, time.February, 1))
	// Beta Wireless: one license near a different point, non-MG service.
	b1 := testLicense("WQBE001", "Beta Wireless", NewDate(2016, time.January, 5), Date{})
	b1.RadioService = "CF"
	b1.Locations = []Location{
		{Number: 1, Point: geo.Point{Lat: 40.78, Lon: -74.09}, SupportHeight: 50},
		{Number: 2, Point: geo.Point{Lat: 40.90, Lon: -74.30}, SupportHeight: 60},
	}
	// Gamma Comm: MG but station class FB (not FXO).
	c1 := testLicense("WQGA001", "Gamma Comm", NewDate(2017, time.May, 1), Date{})
	c1.Paths[0].StationClass = "FB"
	add(a1)
	add(a2)
	add(b1)
	add(c1)
	return db
}

func TestAddRejectsDuplicates(t *testing.T) {
	db := NewDatabase()
	l := testLicense("WQDU001", "Dup Net", NewDate(2015, time.June, 1), Date{})
	if err := db.Add(l); err != nil {
		t.Fatal(err)
	}
	l2 := testLicense("WQDU001", "Dup Net", NewDate(2016, time.June, 1), Date{})
	if err := db.Add(l2); err == nil {
		t.Error("Add accepted duplicate call sign")
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	db := NewDatabase()
	l := testLicense("WQIN001", "", NewDate(2015, time.June, 1), Date{})
	if err := db.Add(l); err == nil {
		t.Error("Add accepted invalid license")
	}
}

func TestByCallSignAndAll(t *testing.T) {
	db := buildTestDB(t)
	if db.Len() != 4 {
		t.Fatalf("Len = %d, want 4", db.Len())
	}
	l, ok := db.ByCallSign("WQAL002")
	if !ok || l.Licensee != "Alpha Networks" {
		t.Errorf("ByCallSign = %+v, %v", l, ok)
	}
	if _, ok := db.ByCallSign("NOPE"); ok {
		t.Error("ByCallSign(NOPE) should fail")
	}
	all := db.All()
	for i := 1; i < len(all); i++ {
		if all[i-1].CallSign >= all[i].CallSign {
			t.Errorf("All not sorted: %s >= %s", all[i-1].CallSign, all[i].CallSign)
		}
	}
}

func TestLicensees(t *testing.T) {
	db := buildTestDB(t)
	got := db.Licensees()
	want := []string{"Alpha Networks", "Beta Wireless", "Gamma Comm"}
	if len(got) != len(want) {
		t.Fatalf("Licensees = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Licensees[%d] = %q, want %q", i, got[i], want[i])
		}
	}

	// The list is cached until the next mutation, which must invalidate it.
	if err := db.Add(testLicense("WQAA001", "Aardvark Link", NewDate(2019, time.May, 1), Date{})); err != nil {
		t.Fatal(err)
	}
	got = db.Licensees()
	if len(got) != 4 || got[0] != "Aardvark Link" {
		t.Errorf("Licensees after Add = %v, want Aardvark Link first of 4", got)
	}
}

func TestByLicensee(t *testing.T) {
	db := buildTestDB(t)
	if got := db.ByLicensee("Alpha Networks"); len(got) != 2 {
		t.Errorf("ByLicensee(Alpha) = %d licenses, want 2", len(got))
	}
	if got := db.ByLicensee("Nobody"); len(got) != 0 {
		t.Errorf("ByLicensee(Nobody) = %d, want 0", len(got))
	}
}

func TestWithinRadius(t *testing.T) {
	db := buildTestDB(t)
	// Near the Alpha/Gamma test towers at (41.76, -88.20).
	chicago := geo.Point{Lat: 41.7625, Lon: -88.2030}
	got := db.WithinRadius(chicago, 10e3)
	// Alpha x2 and Gamma share that tower; Beta is in NJ.
	if len(got) != 3 {
		t.Fatalf("WithinRadius = %d licenses, want 3", len(got))
	}
	for _, l := range got {
		if l.Licensee == "Beta Wireless" {
			t.Error("Beta Wireless should be outside the Chicago radius")
		}
	}
	if got := db.WithinRadius(chicago, 10); len(got) != 0 {
		t.Errorf("WithinRadius(10 m) = %d, want 0", len(got))
	}
}

func TestFilterService(t *testing.T) {
	db := buildTestDB(t)
	all := db.All()
	mgFxo := FilterService(all, ServiceMG, ClassFXO)
	if len(mgFxo) != 2 { // Alpha's two; Beta is CF, Gamma is FB class
		t.Fatalf("FilterService(MG, FXO) = %d, want 2", len(mgFxo))
	}
	mg := FilterService(all, ServiceMG, "")
	if len(mg) != 3 {
		t.Errorf("FilterService(MG) = %d, want 3", len(mg))
	}
	any := FilterService(all, "", "")
	if len(any) != 4 {
		t.Errorf("FilterService(all) = %d, want 4", len(any))
	}
}

func TestActiveAtDatabase(t *testing.T) {
	db := buildTestDB(t)
	cases := []struct {
		date string
		want int
	}{
		{"01/01/2013", 0},
		{"01/01/2015", 1}, // only WQAL001
		{"01/01/2016", 2}, // + WQAL002
		{"01/01/2017", 3}, // + WQBE001
		{"01/01/2018", 4}, // + WQGA001 (WQAL002 cancels 02/2018)
		{"01/01/2019", 3},
	}
	for _, c := range cases {
		if got := len(db.ActiveAt(MustParseDate(c.date))); got != c.want {
			t.Errorf("ActiveAt(%s) = %d, want %d", c.date, got, c.want)
		}
	}
}

func TestActiveCountByLicensee(t *testing.T) {
	db := buildTestDB(t)
	counts := db.ActiveCountByLicensee(MustParseDate("06/01/2017"))
	if counts["Alpha Networks"] != 2 || counts["Beta Wireless"] != 1 || counts["Gamma Comm"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	counts = db.ActiveCountByLicensee(MustParseDate("06/01/2019"))
	if counts["Alpha Networks"] != 1 {
		t.Errorf("Alpha after cancel = %d, want 1", counts["Alpha Networks"])
	}
}

func TestActiveLinks(t *testing.T) {
	db := buildTestDB(t)
	links := db.ActiveLinks("Alpha Networks", MustParseDate("01/01/2016"))
	if len(links) != 2 {
		t.Fatalf("ActiveLinks = %d, want 2", len(links))
	}
	links = db.ActiveLinks("", MustParseDate("06/01/2017"))
	if len(links) != 4 {
		t.Fatalf("ActiveLinks(all) = %d, want 4", len(links))
	}
	links = db.ActiveLinks("Alpha Networks", MustParseDate("01/01/2019"))
	if len(links) != 1 {
		t.Errorf("ActiveLinks after cancel = %d, want 1", len(links))
	}
}

func TestGrantsCancellationsInYear(t *testing.T) {
	db := buildTestDB(t)
	g, c := db.GrantsCancellationsInYear("Alpha Networks", 2015)
	if g != 1 || c != 0 {
		t.Errorf("2015: grants=%d cancels=%d, want 1, 0", g, c)
	}
	g, c = db.GrantsCancellationsInYear("Alpha Networks", 2018)
	if g != 0 || c != 1 {
		t.Errorf("2018: grants=%d cancels=%d, want 0, 1", g, c)
	}
}

func TestMerge(t *testing.T) {
	db := buildTestDB(t)
	other := NewDatabase()
	l := testLicense("WQME001", "Merge Net", NewDate(2019, time.April, 2), Date{})
	if err := other.Add(l); err != nil {
		t.Fatal(err)
	}
	if err := db.Merge(other); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 5 {
		t.Errorf("Len after merge = %d, want 5", db.Len())
	}
	// Merging again must fail on the duplicate.
	if err := db.Merge(other); err == nil {
		t.Error("Merge accepted duplicate call sign")
	}
}
