package hftnetview

import (
	"reflect"
	"testing"
	"time"

	"hftnetview/internal/core"
	"hftnetview/internal/report"
)

// TestDeltaSweepBudget is the anchor dedup's performance gate (E22): a
// daily-grid evolution sweep through the engine, which rebuilds once
// per distinct anchor, must beat a rebuild per date by at least 10x,
// and produce identical points. The gate is a same-process ratio, so it
// holds on any machine; the absolute numbers live in BENCH_*.json. A
// dense grid is exactly where the dedup pays — thousands of dates
// collapse onto the few dozen anchors where the licensee's license set
// actually changed — so a failure here means anchor re-keying or the
// anchor-grouped sweep regressed structurally, not that the runner was
// slow.
func TestDeltaSweepBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("perf gate skipped in -short mode")
	}
	db, err := GenerateCorpus()
	if err != nil {
		t.Fatal(err)
	}
	dates, err := core.GridDates(2016, 2020, "daily")
	if err != nil {
		t.Fatal(err)
	}
	licensee := report.Fig1Networks[0]
	path := PathNY4()
	opts := DefaultOptions()

	// Oracle: one full reconstruction per date.
	direct := core.DirectProvider(db)
	startFull := time.Now()
	want, err := core.EvolutionVia(direct, licensee, path, dates, opts)
	if err != nil {
		t.Fatal(err)
	}
	full := time.Since(startFull)

	// Engine: a cold memo, one rebuild per distinct anchor.
	eng := NewEngine(db)
	startDelta := time.Now()
	got, err := eng.Evolution(licensee, path, dates, opts)
	if err != nil {
		t.Fatal(err)
	}
	delta := time.Since(startDelta)

	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engine sweep diverges from the rebuild-per-date oracle over %d dates", len(dates))
	}
	st := eng.Stats()
	if st.Rebuilds >= int64(len(dates)) {
		t.Fatalf("sweep did %d rebuilds over %d dates: anchor grouping is not collapsing the grid", st.Rebuilds, len(dates))
	}
	if delta*10 > full {
		t.Fatalf("engine sweep %v is not 10x faster than the rebuild-per-date path %v (%d dates, %d rebuilds)",
			delta, full, len(dates), st.Rebuilds)
	}
	t.Logf("daily sweep %d dates: rebuild per date %v, engine %v (%.0fx, %d rebuilds)",
		len(dates), full, delta, float64(full)/float64(delta), st.Rebuilds)
}
