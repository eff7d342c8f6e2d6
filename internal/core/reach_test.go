package core

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"hftnetview/internal/sites"
	"hftnetview/internal/synth"
	"hftnetview/internal/uls"
)

// TestReachScreenExact: the fiber-reach screen changes no answer.
// ConnectedNetworksVia and EvolutionVia over DirectProvider deep-equal
// (routes included) an unscreened loop that reconstructs every
// db.Licensees() name and reads BestRoute, APA and ActiveCount itself —
// on all six data-center pairs every 60th day of 2012–2020, and at the
// paper date on a corpus where every licensee's filings are copied
// ~750 km out of reach.
func TestReachScreenExact(t *testing.T) {
	db := corpusForCore(t)
	var dates []uls.Date
	for d := uls.NewDate(2012, time.January, 1); d.Year <= 2020; d = d.AddDays(60) {
		dates = append(dates, d)
	}
	far, err := synth.DistantCopies(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	for i, from := range sites.All {
		for _, to := range sites.All[i+1:] {
			path := sites.Path{From: from, To: to}
			rows += checkScreenExact(t, db, path, dates)
			rows += checkScreenExact(t, far, path, []uls.Date{date20})
		}
	}
	t.Logf("%d connected rows, all equal to the unscreened loop's", rows)
	if rows == 0 {
		t.Error("no network connected anywhere; the comparison is vacuous")
	}
}

// checkScreenExact compares the screened analyses with the unscreened
// loop on one path over the dates and returns the number of connected
// rows.
func checkScreenExact(t *testing.T, db *uls.Database, path sites.Path, dates []uls.Date) (rows int) {
	t.Helper()
	opts := DefaultOptions()
	dcs := []sites.DataCenter{path.From, path.To}
	log := db.EventLog()
	names := db.Licensees()
	evolution := make(map[string][]EvolutionPoint, len(names))
	for _, d := range dates {
		var table []NetworkSummary
		for _, name := range names {
			n, err := Reconstruct(db, name, d, dcs, opts)
			if err != nil {
				t.Fatal(err)
			}
			pt := EvolutionPoint{Date: d, ActiveLicenses: log.ActiveCount(name, d)}
			if r, ok := n.BestRoute(path); ok {
				apa, _ := n.APA(path)
				table = append(table, NetworkSummary{
					Licensee: name, Latency: r.Latency, APA: apa,
					TowerCount: r.TowerCount, HopCount: r.HopCount(), Route: r,
				})
				pt.Connected, pt.Latency = true, r.Latency
			}
			evolution[name] = append(evolution[name], pt)
		}
		sort.Slice(table, func(i, j int) bool {
			if table[i].Latency != table[j].Latency {
				return table[i].Latency < table[j].Latency
			}
			return table[i].Licensee < table[j].Licensee
		})
		got, err := ConnectedNetworksVia(DirectProvider(db), d, path, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, table) {
			t.Fatalf("%s %s: screened table %+v, unscreened %+v", path.Name(), d, got, table)
		}
		rows += len(table)
	}
	for _, name := range names {
		got, err := EvolutionVia(DirectProvider(db), name, path, dates, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, evolution[name]) {
			t.Fatalf("%s %s: screened evolution %+v, unscreened %+v", path.Name(), name, got, evolution[name])
		}
	}
	return rows
}
