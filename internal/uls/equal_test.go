package uls

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"hftnetview/internal/geo"
)

// equalTestLicense returns a license with every field set to a distinct
// non-zero value, two locations and a two-frequency path, so each
// field's perturbation is visible.
func equalTestLicense() *License {
	return &License{
		CallSign:     "WQYM237",
		LicenseID:    4242,
		Licensee:     "Equal Net",
		FRN:          "0012345678",
		ContactEmail: "ops@example.net",
		RadioService: ServiceMG,
		Status:       StatusActive,
		Grant:        MustParseDate("03/01/2015"),
		Expiration:   MustParseDate("03/01/2025"),
		Cancellation: MustParseDate("06/15/2019"),
		Locations: []Location{
			{Number: 1, Point: geo.Point{Lat: 41.76, Lon: -88.2}, GroundElevation: 210, SupportHeight: 90},
			{Number: 2, Point: geo.Point{Lat: 41.7, Lon: -87.9}, GroundElevation: 190, SupportHeight: 80},
		},
		Paths: []Path{{
			Number: 1, TXLocation: 1, RXLocation: 2, StationClass: ClassFXO,
			FrequenciesMHz: []float64{6004.5, 6256.54},
			TXAzimuthDeg:   74.5, RXAzimuthDeg: 254.7, AntennaGainDBi: 38.2,
		}},
	}
}

// licenseLeaf is one scalar (or slice length) inside a License, found
// by reflection: name for messages, at to reach it from a License value.
type licenseLeaf struct {
	name string
	at   func(root reflect.Value) reflect.Value
}

// licenseLeaves enumerates v's scalar leaves — recursing through
// structs and slice elements — plus every slice's length.
func licenseLeaves(v reflect.Value, name string, at func(reflect.Value) reflect.Value, out *[]licenseLeaf) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			licenseLeaves(v.Field(i), name+"."+v.Type().Field(i).Name,
				func(r reflect.Value) reflect.Value { return at(r).Field(i) }, out)
		}
	case reflect.Slice:
		*out = append(*out, licenseLeaf{name: name + "[len]", at: at})
		for i := 0; i < v.Len(); i++ {
			licenseLeaves(v.Index(i), fmt.Sprintf("%s[%d]", name, i),
				func(r reflect.Value) reflect.Value { return at(r).Index(i) }, out)
		}
	default:
		*out = append(*out, licenseLeaf{name: name, at: at})
	}
}

// TestLicenseEqualNoticesEveryField sets each License, Location and
// Path field in turn — reached by reflection, so a field added to any
// of the three later is covered without editing this test — and checks
// that License.Equal notices the change. A field Equal does not compare
// fails here, and so does a field of a kind this test cannot perturb.
func TestLicenseEqualNoticesEveryField(t *testing.T) {
	a := equalTestLicense()
	if !a.Equal(equalTestLicense()) {
		t.Fatal("two identical licenses compare unequal")
	}
	var leaves []licenseLeaf
	licenseLeaves(reflect.ValueOf(a).Elem(), "License",
		func(r reflect.Value) reflect.Value { return r }, &leaves)
	for _, lf := range leaves {
		b := equalTestLicense()
		v := lf.at(reflect.ValueOf(b).Elem())
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(math.Nextafter(v.Float(), math.Inf(1))) // one ULP
		case reflect.Slice:
			v.Set(v.Slice(0, v.Len()-1))
		default:
			t.Fatalf("%s: cannot perturb a %s; extend License.Equal and this test", lf.name, v.Kind())
		}
		if a.Equal(b) || b.Equal(a) {
			t.Errorf("License.Equal misses a change to %s", lf.name)
		}
	}
	if len(leaves) < 25 {
		t.Errorf("reflection walk found %d leaves; the test license lost fields", len(leaves))
	}
}

// TestLicenseEqualFloatBits: floats compare by their bits, so 0 and -0
// differ while a NaN equals itself.
func TestLicenseEqualFloatBits(t *testing.T) {
	a, b := equalTestLicense(), equalTestLicense()
	a.Paths[0].AntennaGainDBi, b.Paths[0].AntennaGainDBi = 0, math.Copysign(0, -1)
	if a.Equal(b) {
		t.Error("0 and -0 compare equal")
	}
	a.Paths[0].AntennaGainDBi, b.Paths[0].AntennaGainDBi = math.NaN(), math.NaN()
	if !a.Equal(b) {
		t.Error("NaN differs from itself")
	}
}

// TestChangedLicensees: databases built from equal licenses differ in
// no licensee; an edited license changes its licensee, a refiled one
// both licensees, and an added or removed one its licensee. Every
// licensee reported unchanged keeps an identical event stream.
func TestChangedLicensees(t *testing.T) {
	base := elTestDB(t)
	if c := ChangedLicensees(base, elTestDB(t)); len(c) != 0 {
		t.Errorf("equal corpora: changed %v", c)
	}
	edit := func(cs string, f func(*License)) *Database {
		db := elTestDB(t)
		l, ok := db.ByCallSign(cs)
		if !ok {
			t.Fatalf("no %s", cs)
		}
		f(l)
		db.invalidate()
		return db
	}
	extra := elTestDB(t)
	if err := extra.Add(&License{CallSign: "WDDD400", Licensee: "Delta", RadioService: "MG",
		Grant: MustParseDate("01/01/2016")}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		next *Database
		want []string
	}{
		{"edited", edit("WBBB201", func(l *License) { l.FRN = "changed" }), []string{"Beta"}},
		{"refiled", edit("WAAA101", func(l *License) { l.Licensee = "Gamma" }), []string{"Alpha", "Gamma"}},
		{"added", extra, []string{"Delta"}},
	} {
		for _, pair := range [][2]*Database{{base, tc.next}, {tc.next, base}} {
			changed := ChangedLicensees(pair[0], pair[1])
			var got []string
			for name := range changed {
				got = append(got, name)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("%s: changed %v, want %v", tc.name, got, tc.want)
			}
			before, after := pair[0].EventLog(), pair[1].EventLog()
			for _, name := range []string{"Alpha", "Beta", "Gamma", "Delta"} {
				if !changed[name] && !reflect.DeepEqual(eventContents(before.Events(name)), eventContents(after.Events(name))) {
					t.Errorf("%s: %s reported unchanged but its event stream differs", tc.name, name)
				}
			}
		}
	}
}

// eventContents flattens a stream into comparable values: the
// licenses as values rather than pointers.
func eventContents(events []Event) []any {
	var out []any
	for _, ev := range events {
		out = append(out, ev.Date, ev.Kind, *ev.License)
	}
	return out
}
