package engine

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"hftnetview/internal/core"
	"hftnetview/internal/sites"
	"hftnetview/internal/synth"
	"hftnetview/internal/uls"
)

// TestDeltaEquivalence pins the property anchor re-keying relies on:
// the snapshot at a date's anchor equals the snapshot at that date.
// For seeded corpora (seed 1 = the clean synth corpus; seeds 2–20 =
// the corpus corrupted with the mixed profile and salvaged by the
// lenient reader, so the license population varies per seed), an
// engine snapshot is deep-equal to a DirectProvider rebuild at the
// literal date — at every event boundary of the probed licensee's
// stream, at seeded random dates between events, and just outside the
// stream's date range, for the licensee alone and for a union pair
// (asked for permuted and with a repeat, so its label must come out
// canonical). Probes run in shuffled order, so hits on an anchor
// already built are checked as well as misses. Run under -race.
func TestDeltaEquivalence(t *testing.T) {
	clean := corpus(t)
	maxSeed := uint64(20)
	if testing.Short() {
		maxSeed = 3
	}
	mixed := synth.Profiles()[len(synth.Profiles())-1]
	if mixed.Name != "mixed" {
		t.Fatalf("expected last profile to be mixed, got %q", mixed.Name)
	}

	for seed := uint64(1); seed <= maxSeed; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			db := clean
			if seed > 1 {
				c := synth.Corrupt(clean, mixed, seed)
				salvaged, _, err := uls.ReadBulkWithOptions(
					bytes.NewReader(c.Dirty), uls.ReadBulkOptions{Mode: uls.Lenient})
				if err != nil {
					t.Fatalf("salvage: %v", err)
				}
				if salvaged.Len() == 0 {
					t.Fatal("salvage kept nothing")
				}
				db = salvaged
			}
			names := db.Licensees()
			if len(names) == 0 {
				t.Fatal("corpus has no licensees")
			}
			lic := names[int(seed)%len(names)]
			probes := equivalenceProbes(t, db, lic, seed)

			direct := core.DirectProvider(db)
			eng := New(db)
			for _, d := range probes {
				assertSnapshotsEqual(t, eng, direct, []string{lic}, []string{lic}, d,
					fmt.Sprintf("licensee=%q date=%s", lic, d))
			}
			// A union over two licensees must match the rebuild of the
			// sorted pair, whatever order the engine was asked in.
			if len(names) > 1 {
				pair := []string{names[0], names[len(names)/2]}
				if pair[0] != pair[1] {
					asked := []string{pair[1], pair[0], pair[1]}
					for _, d := range probes[:min(len(probes), 8)] {
						assertSnapshotsEqual(t, eng, direct, asked, pair, d,
							fmt.Sprintf("union=%v date=%s", pair, d))
					}
				}
			}
		})
	}
}

// equivalenceProbes returns the licensee's event-boundary dates, a
// seeded random date inside each between-event gap, and one date on
// each side of the stream — shuffled deterministically.
func equivalenceProbes(t *testing.T, db *uls.Database, licensee string, seed uint64) []uls.Date {
	t.Helper()
	events := db.EventLog().Events(licensee)
	if len(events) == 0 {
		t.Skipf("licensee %q has no events", licensee)
	}
	rng := rand.New(rand.NewPCG(seed, 0xe4e17))
	var probes []uls.Date
	probes = append(probes, events[0].Date.AddDays(-1))
	for i, ev := range events {
		probes = append(probes, ev.Date)
		if i+1 < len(events) {
			gap := daysBetween(ev.Date, events[i+1].Date)
			if gap > 1 {
				probes = append(probes, ev.Date.AddDays(1+rng.IntN(gap-1)))
			}
		}
	}
	probes = append(probes, events[len(events)-1].Date.AddDays(1))
	rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
	return probes
}

func daysBetween(a, b uls.Date) int {
	n := 0
	for d := a; d.Before(b) && n < 4000; d = d.AddDays(1) {
		n++
	}
	return n
}

// assertSnapshotsEqual asks the engine for the asked licensee list and
// the direct provider for the sorted, deduplicated one, at date d.
func assertSnapshotsEqual(t *testing.T, eng *Engine, direct core.SnapshotProvider, asked, sorted []string, d uls.Date, label string) {
	t.Helper()
	req := core.SnapshotRequest{Licensees: asked, Date: d, DCs: sites.All, Opts: core.DefaultOptions()}
	got, err := eng.Snapshot(req)
	if err != nil {
		t.Fatalf("%s: engine snapshot: %v", label, err)
	}
	req.Licensees = sorted
	want, err := direct.Snapshot(req)
	if err != nil {
		t.Fatalf("%s: direct snapshot: %v", label, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: engine snapshot diverges from a rebuild at the literal date:\nengine: %d towers %d links %d fiber, licensee %q\ndirect: %d towers %d links %d fiber, licensee %q",
			label,
			len(got.Towers), len(got.Links), len(got.Fiber), got.Licensee,
			len(want.Towers), len(want.Links), len(want.Fiber), want.Licensee)
	}
}
