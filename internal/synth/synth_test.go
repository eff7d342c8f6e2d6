package synth

import (
	"math"
	"testing"
	"time"

	"hftnetview/internal/core"
	"hftnetview/internal/geo"
	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
)

// The generated corpus is deterministic, so tests share one instance.
var (
	testDB   *uls.Database
	snapshot = uls.NewDate(2020, time.April, 1)
)

func db(t *testing.T) *uls.Database {
	t.Helper()
	if testDB == nil {
		d, err := Generate()
		if err != nil {
			t.Fatalf("Generate: %v", err)
		}
		testDB = d
	}
	return testDB
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate()
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for _, la := range a.All() {
		lb, ok := b.ByCallSign(la.CallSign)
		if !ok {
			t.Fatalf("call sign %s missing in second run", la.CallSign)
		}
		if la.Grant != lb.Grant || la.Cancellation != lb.Cancellation ||
			la.Licensee != lb.Licensee {
			t.Fatalf("%s differs across runs", la.CallSign)
		}
		if len(la.Locations) != len(lb.Locations) {
			t.Fatalf("%s location count differs", la.CallSign)
		}
		for i := range la.Locations {
			if la.Locations[i].Point != lb.Locations[i].Point {
				t.Fatalf("%s location %d moved across runs", la.CallSign, i)
			}
		}
	}
}

func TestCandidateFunnel(t *testing.T) {
	d := db(t)
	// §2.2: geographic search 10 km around CME, MG service, FXO class →
	// 57 candidate licensees; ≥11 filings → 29 shortlisted.
	within := d.WithinRadius(sites.CME.Location, 10e3)
	mgfxo := uls.FilterService(within, uls.ServiceMG, uls.ClassFXO)
	candidates := make(map[string]bool)
	for _, l := range mgfxo {
		candidates[l.Licensee] = true
	}
	if len(candidates) != 57 {
		t.Errorf("candidates = %d, want 57", len(candidates))
	}
	shortlisted := 0
	for name := range candidates {
		if len(d.ByLicensee(name)) >= 11 {
			shortlisted++
		}
	}
	if shortlisted != 29 {
		t.Errorf("shortlisted = %d, want 29", shortlisted)
	}
}

func TestTable1ConnectedNetworks(t *testing.T) {
	d := db(t)
	path := sites.Path{From: sites.CME, To: sites.NY4}
	rows, err := core.ConnectedNetworksVia(core.DirectProvider(d), snapshot, path, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("connected networks = %d, want 9", len(rows))
	}
	// Paper Table 1 in order, with the reproduction's measured APA
	// tolerances (latency and tower count are calibrated exactly).
	want := []struct {
		name      string
		latencyMs float64
		apa       float64 // paper's value; tolerance below
		towers    int
	}{
		{NLN, 3.96171, 0.54, 25},
		{PB, 3.96209, 0.07, 29},
		{JM, 3.96597, 0.73, 22},
		{BC, 3.96940, 0.00, 29},
		{WH, 3.97157, 0.85, 27},
		{AQ2AT, 4.01101, 0.00, 29},
		{WI, 4.12246, 0.00, 33},
		{GTT, 4.24241, 0.00, 28},
		{SW, 4.44530, 0.00, 74},
	}
	for i, w := range want {
		r := rows[i]
		if r.Licensee != w.name {
			t.Fatalf("rank %d = %s, want %s", i+1, r.Licensee, w.name)
		}
		if math.Abs(r.Latency.Milliseconds()-w.latencyMs) > 0.00005 {
			t.Errorf("%s latency = %.5f ms, want %.5f", w.name,
				r.Latency.Milliseconds(), w.latencyMs)
		}
		if r.TowerCount != w.towers {
			t.Errorf("%s towers = %d, want %d", w.name, r.TowerCount, w.towers)
		}
		if math.Abs(r.APA-w.apa) > 0.10 {
			t.Errorf("%s APA = %.2f, want %.2f ± 0.10", w.name, r.APA, w.apa)
		}
	}
}

func TestTable2Rankings(t *testing.T) {
	d := db(t)
	ranks, err := core.RankNetworksVia(core.DirectProvider(d), snapshot, sites.CorridorPaths(), 3, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]struct {
		name      string
		latencyMs float64
	}{
		"CME-NY4":    {{NLN, 3.96171}, {PB, 3.96209}, {JM, 3.96597}},
		"CME-NYSE":   {{NLN, 3.93209}, {JM, 3.94021}, {BC, 3.95866}},
		"CME-NASDAQ": {{NLN, 3.92728}, {WH, 3.92805}, {JM, 3.92828}},
	}
	for _, pr := range ranks {
		w := want[pr.Path.Name()]
		if len(pr.Ranked) != 3 {
			t.Fatalf("%s: got %d ranked", pr.Path.Name(), len(pr.Ranked))
		}
		for i := range w {
			if pr.Ranked[i].Licensee != w[i].name {
				t.Errorf("%s rank %d = %s, want %s", pr.Path.Name(), i+1,
					pr.Ranked[i].Licensee, w[i].name)
			}
			if math.Abs(pr.Ranked[i].Latency.Milliseconds()-w[i].latencyMs) > 0.00005 {
				t.Errorf("%s rank %d latency = %.5f, want %.5f", pr.Path.Name(), i+1,
					pr.Ranked[i].Latency.Milliseconds(), w[i].latencyMs)
			}
		}
	}
}

func TestTable2PaperGaps(t *testing.T) {
	d := db(t)
	opts := core.DefaultOptions()
	path := sites.Path{From: sites.CME, To: sites.NY4}
	get := func(name string) float64 {
		n, err := core.Reconstruct(d, name, snapshot, sites.All, opts)
		if err != nil {
			t.Fatal(err)
		}
		r, ok := n.BestRoute(path)
		if !ok {
			t.Fatalf("%s not connected", name)
		}
		return r.Latency.Microseconds()
	}
	// §3: NLN leads PB by ~0.4 µs on CME–NY4.
	gap := get(PB) - get(NLN)
	if math.Abs(gap-0.38) > 0.05 {
		t.Errorf("NLN→PB gap = %.2f µs, want ≈0.38", gap)
	}
}

func TestTable3APA(t *testing.T) {
	d := db(t)
	opts := core.DefaultOptions()
	want := []struct {
		path    sites.Path
		nln, wh float64 // paper values
	}{
		{sites.Path{From: sites.CME, To: sites.NY4}, 0.54, 0.85},
		{sites.Path{From: sites.CME, To: sites.NYSE}, 0.58, 0.92},
		{sites.Path{From: sites.CME, To: sites.NASDAQ}, 0.30, 0.80},
	}
	for _, w := range want {
		nlnNet, err := core.Reconstruct(d, NLN, snapshot, sites.All, opts)
		if err != nil {
			t.Fatal(err)
		}
		whNet, err := core.Reconstruct(d, WH, snapshot, sites.All, opts)
		if err != nil {
			t.Fatal(err)
		}
		nlnAPA, ok1 := nlnNet.APA(w.path)
		whAPA, ok2 := whNet.APA(w.path)
		if !ok1 || !ok2 {
			t.Fatalf("%s: APA not computable", w.path.Name())
		}
		if math.Abs(nlnAPA-w.nln) > 0.10 {
			t.Errorf("%s NLN APA = %.2f, want %.2f ± 0.10", w.path.Name(), nlnAPA, w.nln)
		}
		if math.Abs(whAPA-w.wh) > 0.10 {
			t.Errorf("%s WH APA = %.2f, want %.2f ± 0.10", w.path.Name(), whAPA, w.wh)
		}
		// The paper's headline: WH's APA is significantly higher than
		// NLN's on every path.
		if whAPA <= nlnAPA+0.15 {
			t.Errorf("%s: WH APA %.2f not significantly above NLN %.2f",
				w.path.Name(), whAPA, nlnAPA)
		}
	}
}

func TestFig1LatencyEvolution(t *testing.T) {
	d := db(t)
	opts := core.DefaultOptions()
	path := sites.Path{From: sites.CME, To: sites.NY4}
	dates := core.PaperSampleDates(2013, 2020)

	evo := func(name string) []core.EvolutionPoint {
		pts, err := core.EvolutionVia(core.DirectProvider(d), name, path, dates, opts)
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}

	// NTC: connected 2013–2017, gone from 2018 on (§4).
	ntc := evo(NTC)
	for i, pt := range ntc {
		wantConn := dates[i].Year <= 2017
		if pt.Connected != wantConn {
			t.Errorf("NTC connected in %d = %v, want %v", dates[i].Year, pt.Connected, wantConn)
		}
	}
	if !(ntc[0].Latency.Milliseconds() > 4.0) {
		t.Errorf("NTC 2013 latency %.4f, want > 4.0", ntc[0].Latency.Milliseconds())
	}

	// PB: connected only in 2020.
	pb := evo(PB)
	for i, pt := range pb {
		wantConn := dates[i].Year == 2020
		if pt.Connected != wantConn {
			t.Errorf("PB connected in %d = %v, want %v", dates[i].Year, pt.Connected, wantConn)
		}
	}

	// NLN: end-to-end from 2016-01-01, monotone non-increasing latency.
	nln := evo(NLN)
	for i, pt := range nln {
		wantConn := dates[i].Year >= 2016
		if pt.Connected != wantConn {
			t.Errorf("NLN connected in %d = %v, want %v", dates[i].Year, pt.Connected, wantConn)
		}
	}
	for i := 5; i < len(nln); i++ { // 2017 onward vs previous year
		if nln[i].Latency > nln[i-1].Latency {
			t.Errorf("NLN latency increased %d→%d: %v → %v",
				dates[i-1].Year, dates[i].Year, nln[i-1].Latency, nln[i].Latency)
		}
	}

	// WH: connected throughout, declining from ~4.01 to its 2020 value.
	wh := evo(WH)
	for i, pt := range wh {
		if !pt.Connected {
			t.Errorf("WH disconnected in %d", dates[i].Year)
		}
	}
	if wh[0].Latency.Milliseconds() < 4.005 {
		t.Errorf("WH 2013 latency %.4f, want > 4.005", wh[0].Latency.Milliseconds())
	}
	if math.Abs(wh[7].Latency.Milliseconds()-3.97157) > 0.0001 {
		t.Errorf("WH 2020 latency %.5f, want 3.97157", wh[7].Latency.Milliseconds())
	}

	// §4: the corridor's fastest network went from ~4.00 ms (2013) to
	// 3.962 ms (2020), never reaching the 3.955-3.956 ms bound.
	best2013 := math.Inf(1)
	for _, name := range []string{NTC, WH} {
		if p := evo(name)[0]; p.Connected {
			best2013 = math.Min(best2013, p.Latency.Milliseconds())
		}
	}
	if math.Abs(best2013-4.005) > 0.01 {
		t.Errorf("fastest 2013 = %.4f ms, want ≈4.005", best2013)
	}
	best2020 := evo(NLN)[7].Latency.Milliseconds()
	if math.Abs(best2020-3.96171) > 0.0001 {
		t.Errorf("fastest 2020 = %.5f, want 3.96171", best2020)
	}
	cBound := 3.9561
	if best2020 <= cBound {
		t.Errorf("2020 best %.5f ms at or below the c bound %.4f", best2020, cBound)
	}
}

func TestFig2ActiveLicenses(t *testing.T) {
	d := db(t)
	count := func(name string, date uls.Date) int {
		return d.ActiveCountByLicensee(date)[name]
	}
	jan := func(y int) uls.Date { return uls.NewDate(y, time.January, 1) }

	// NLN: 95 active on 2016-01-01 after ~55 grants in 2015 (§4).
	nln2016 := count(NLN, jan(2016))
	if math.Abs(float64(nln2016)-95) > 15 {
		t.Errorf("NLN active on 2016-01-01 = %d, want ≈95", nln2016)
	}
	g2015, _ := d.GrantsCancellationsInYear(NLN, 2015)
	if math.Abs(float64(g2015)-55) > 15 {
		t.Errorf("NLN grants in 2015 = %d, want ≈55", g2015)
	}
	// NLN keeps growing through 2017-2018.
	if !(count(NLN, jan(2018)) > nln2016) {
		t.Error("NLN license count should grow after 2016")
	}

	// NTC: active fleet through 2016, 0 by 2019; all cancellations in
	// 2017-18 (§4: "cancelled 71 licenses in 2017 and 2018").
	if c := count(NTC, jan(2019)); c != 0 {
		t.Errorf("NTC active in 2019 = %d, want 0", c)
	}
	_, c17 := d.GrantsCancellationsInYear(NTC, 2017)
	_, c18 := d.GrantsCancellationsInYear(NTC, 2018)
	ntcPeak := count(NTC, jan(2017))
	if c17+c18 < ntcPeak {
		t.Errorf("NTC 2017-18 cancellations = %d, want >= %d (full exit)", c17+c18, ntcPeak)
	}
	if math.Abs(float64(c17+c18)-71) > 25 {
		t.Errorf("NTC 2017-18 cancellations = %d, want ≈71", c17+c18)
	}
	// NTC's 2014 shows both grants and cancellations (§4 narrative).
	g14, c14 := d.GrantsCancellationsInYear(NTC, 2014)
	if g14 == 0 || c14 == 0 {
		t.Errorf("NTC 2014 grants=%d cancels=%d, want both nonzero", g14, c14)
	}

	// PB: by far the fewest active licenses among the 2020-active four
	// (Fig 2 discussion).
	apr20 := snapshot
	pbC := count(PB, apr20)
	for _, other := range []string{NLN, WH, JM} {
		if oc := count(other, apr20); pbC >= oc {
			t.Errorf("PB count %d not below %s count %d", pbC, other, oc)
		}
	}
	if pbC == 0 {
		t.Error("PB should have active licenses in 2020")
	}
}

func TestFig4aLinkLengths(t *testing.T) {
	d := db(t)
	opts := core.DefaultOptions()
	path := sites.Path{From: sites.CME, To: sites.NY4}
	median := func(name string) float64 {
		n, err := core.Reconstruct(d, name, snapshot, sites.All, opts)
		if err != nil {
			t.Fatal(err)
		}
		lengths, ok := n.LinkLengthsOnBoundedPaths(path)
		if !ok || len(lengths) == 0 {
			t.Fatalf("%s: no bounded links", name)
		}
		return core.NewCDF(lengths).Median() / 1000
	}
	whMed := median(WH)
	nlnMed := median(NLN)
	// Paper: WH 36 km vs NLN 48.5 km (26% lower). Shape: WH well below
	// NLN; magnitudes within a few km.
	if whMed >= nlnMed {
		t.Errorf("WH median %.1f km not below NLN %.1f km", whMed, nlnMed)
	}
	if math.Abs(whMed-36) > 6 {
		t.Errorf("WH median = %.1f km, want ≈36", whMed)
	}
	if math.Abs(nlnMed-48.5) > 8 {
		t.Errorf("NLN median = %.1f km, want ≈48.5", nlnMed)
	}
}

func TestFig4bFrequencies(t *testing.T) {
	d := db(t)
	opts := core.DefaultOptions()
	path := sites.Path{From: sites.CME, To: sites.NY4}
	load := func(name string) *core.Network {
		n, err := core.Reconstruct(d, name, snapshot, sites.All, opts)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	wh := load(WH)
	nln := load(NLN)

	whSP, ok := wh.FrequenciesOnShortestPath(path)
	if !ok || len(whSP) == 0 {
		t.Fatal("WH: no shortest-path frequencies")
	}
	// Paper: >94% of WH's frequencies under 7 GHz.
	if frac := core.NewCDF(whSP).FractionBelow(7); frac < 0.94 {
		t.Errorf("WH frequencies under 7 GHz = %.2f, want > 0.94", frac)
	}

	nlnSP, ok := nln.FrequenciesOnShortestPath(path)
	if !ok || len(nlnSP) == 0 {
		t.Fatal("NLN: no shortest-path frequencies")
	}
	// Paper: NLN primarily uses the 11 GHz band.
	in11 := 0
	for _, f := range nlnSP {
		if f >= 10 && f < 12 {
			in11++
		}
	}
	if frac := float64(in11) / float64(len(nlnSP)); frac < 0.7 {
		t.Errorf("NLN 11 GHz share = %.2f, want > 0.7", frac)
	}

	// Paper: ≥18% of NLN's alternate-path frequencies in the 6 GHz band.
	nlnAlt, ok := nln.FrequenciesOnAlternatePaths(path)
	if !ok || len(nlnAlt) == 0 {
		t.Fatal("NLN: no alternate-path frequencies")
	}
	if frac := core.NewCDF(nlnAlt).FractionBelow(7); frac < 0.18 {
		t.Errorf("NLN alternate 6 GHz share = %.2f, want >= 0.18", frac)
	}
}

func TestGeneratedLicensesValidate(t *testing.T) {
	d := db(t)
	for _, l := range d.All() {
		if err := l.Validate(); err != nil {
			t.Fatalf("generated license invalid: %v", err)
		}
		if l.RadioService != uls.ServiceMG {
			t.Errorf("%s service = %s, want MG", l.CallSign, l.RadioService)
		}
		for _, p := range l.Paths {
			if p.StationClass != uls.ClassFXO {
				t.Errorf("%s class = %s, want FXO", l.CallSign, p.StationClass)
			}
		}
	}
}

func TestGeneratedLinkLengthsArePlausible(t *testing.T) {
	d := db(t)
	for _, l := range d.All() {
		for _, lk := range l.Links() {
			km := lk.LengthMeters() / 1000
			// §2.2: >100 km tower-to-tower microwave links are too
			// inefficient to exist.
			if km > 100 {
				t.Errorf("%s: %.1f km link exceeds 100 km", l.CallSign, km)
			}
			if km < 0.3 {
				t.Errorf("%s: %.2f km link implausibly short", l.CallSign, km)
			}
		}
	}
}

func TestAntennaRecordsMatchGeometry(t *testing.T) {
	d := db(t)
	for _, l := range d.All() {
		for _, p := range l.Paths {
			txLoc, _ := l.LocationByNumber(p.TXLocation)
			rxLoc, _ := l.LocationByNumber(p.RXLocation)
			wantTX := geo.InitialBearing(txLoc.Point, rxLoc.Point)
			if diff := angleDiff(p.TXAzimuthDeg, wantTX); diff > 0.5 {
				t.Fatalf("%s path %d: TX azimuth %.1f, geometry says %.1f",
					l.CallSign, p.Number, p.TXAzimuthDeg, wantTX)
			}
			// The RX dish faces back along the path (± the geodesic's
			// bearing change over the hop, under a degree at ≤60 km).
			back := math.Mod(p.TXAzimuthDeg+180, 360)
			if diff := angleDiff(p.RXAzimuthDeg, back); diff > 1.0 {
				t.Fatalf("%s path %d: RX azimuth %.1f not the back bearing of %.1f",
					l.CallSign, p.Number, p.RXAzimuthDeg, p.TXAzimuthDeg)
			}
			if p.AntennaGainDBi < 35 || p.AntennaGainDBi > 50 {
				t.Fatalf("%s path %d: gain %.1f dBi implausible", l.CallSign,
					p.Number, p.AntennaGainDBi)
			}
		}
	}
}

func angleDiff(a, b float64) float64 {
	d := math.Abs(math.Mod(a-b+540, 360) - 180)
	return d
}

func TestHFTNetworksHaveTowerNearCME(t *testing.T) {
	d := db(t)
	for _, spec := range HFTNetworks() {
		found := false
		for _, l := range d.ByLicensee(spec.Name) {
			for _, loc := range l.Locations {
				if distKM := distanceKM(loc, sites.CME); distKM <= 10 {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("%s has no tower within 10 km of CME", spec.Name)
		}
	}
}

func distanceKM(loc uls.Location, dc sites.DataCenter) float64 {
	return geo.Distance(loc.Point, dc.Location) / 1000
}
