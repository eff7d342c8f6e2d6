package uls

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"hftnetview/internal/geo"
)

// TestSiteSharers: the site-sharing index maps each licensee to
// exactly the other licensees with a filed location in one of its site
// cells (a pairwise scan), sorted and once each, at each precision, to
// concurrent readers (run under -race), and an Add drops it.
func TestSiteSharers(t *testing.T) {
	db := NewDatabase()
	rng := rand.New(rand.NewPCG(3, 5))
	// Sites on a 0.001° lattice: some coincide at 3 decimals, and many
	// more share a cell at 2.
	site := func() geo.Point {
		return geo.Point{Lat: 40 + float64(rng.IntN(60))/1000, Lon: -80 + float64(rng.IntN(60))/1000}
	}
	for i := 0; i < 150; i++ {
		addSites(t, db, fmt.Sprintf("WQSS%04d", i), fmt.Sprintf("Net %02d", i%30), site(), site())
	}
	scan := func(decimals int) map[string][]string {
		cells := make(map[string]map[SiteCell]bool)
		for _, l := range db.All() {
			if cells[l.Licensee] == nil {
				cells[l.Licensee] = make(map[SiteCell]bool)
			}
			for _, loc := range l.Locations {
				cells[l.Licensee][SiteCellOf(loc.Point, decimals)] = true
			}
		}
		want := make(map[string][]string)
		for _, a := range db.Licensees() {
			for _, b := range db.Licensees() {
				if a == b {
					continue
				}
				for c := range cells[a] {
					if cells[b][c] {
						want[a] = append(want[a], b)
						break
					}
				}
			}
		}
		return want
	}
	want := map[int]map[string][]string{2: scan(2), 3: scan(3)}
	if n := len(want[3]); n == 0 || n == len(db.Licensees()) {
		t.Fatalf("%d of %d licensees share a 3-decimal cell; the check is vacuous", n, len(db.Licensees()))
	}
	if reflect.DeepEqual(want[2], want[3]) {
		t.Fatal("both precisions give the same index; the per-precision check is vacuous")
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				d := 2 + (w+i)%2
				if got := db.SiteSharers(d); !reflect.DeepEqual(got, want[d]) {
					t.Errorf("SiteSharers(%d) = %v, want %v", d, got, want[d])
					return
				}
			}
		}()
	}
	wg.Wait()

	l, _ := db.ByCallSign("WQSS0000")
	addSites(t, db, "WQSSNEW", "Newcomer", l.Locations[0].Point, geo.Point{Lat: 41, Lon: -81})
	got := db.SiteSharers(3)
	if !reflect.DeepEqual(got, scan(3)) || len(got["Newcomer"]) == 0 {
		t.Errorf("after Add: SiteSharers(3)[Newcomer] = %v, want %v", got["Newcomer"], scan(3)["Newcomer"])
	}
}
