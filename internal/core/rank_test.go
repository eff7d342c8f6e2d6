package core

import (
	"testing"

	"hftnetview/internal/sites"
	"hftnetview/internal/synth"
	"hftnetview/internal/uls"
)

// corpusForCore lazily generates the shared synthetic corpus for
// corpus-level core tests.
var sharedCorpus *uls.Database

func corpusForCore(t *testing.T) *uls.Database {
	t.Helper()
	if sharedCorpus == nil {
		db, err := synth.Generate()
		if err != nil {
			t.Fatal(err)
		}
		sharedCorpus = db
	}
	return sharedCorpus
}

func reconstructCorpus(t *testing.T, db *uls.Database, name string, date uls.Date) *Network {
	t.Helper()
	n, err := Reconstruct(db, name, date, sites.All, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestConnectedNetworksParallelDeterministic drives the concurrent
// Table-1 computation over the full corpus repeatedly (run with -race
// to exercise the read-only sharing of the database) and checks results
// are identical across runs and consistent with per-licensee
// reconstruction.
func TestConnectedNetworksParallelDeterministic(t *testing.T) {
	db, err := synth.Generate()
	if err != nil {
		t.Fatal(err)
	}
	date := uls.MustParseDate("04/01/2020")
	path := sites.Path{From: sites.CME, To: sites.NY4}
	opts := DefaultOptions()

	first, err := ConnectedNetworksVia(DirectProvider(db), date, path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 9 {
		t.Fatalf("connected = %d, want 9", len(first))
	}
	for run := 0; run < 3; run++ {
		again, err := ConnectedNetworksVia(DirectProvider(db), date, path, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(again) != len(first) {
			t.Fatalf("run %d: %d rows vs %d", run, len(again), len(first))
		}
		for i := range first {
			if again[i].Licensee != first[i].Licensee ||
				again[i].Latency != first[i].Latency ||
				again[i].APA != first[i].APA ||
				again[i].TowerCount != first[i].TowerCount {
				t.Fatalf("run %d row %d differs: %+v vs %+v",
					run, i, again[i], first[i])
			}
		}
	}

	// Spot-check one row against a direct reconstruction.
	n, err := Reconstruct(db, first[0].Licensee, date,
		[]sites.DataCenter{path.From, path.To}, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := n.BestRoute(path)
	if !ok || r.Latency != first[0].Latency {
		t.Errorf("direct reconstruction disagrees: %v vs %v", r.Latency, first[0].Latency)
	}
}
