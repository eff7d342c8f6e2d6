package report

import (
	"fmt"
	"math"
	"sort"

	"hftnetview/internal/core"
	"hftnetview/internal/geo"
	"hftnetview/internal/leo"
	"hftnetview/internal/radio"
	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
	"hftnetview/internal/viz"
)

// Fig1Networks are the five networks the paper's longitudinal figures
// track.
var Fig1Networks = []string{
	"National Tower Company",
	"Webline Holdings",
	"Jefferson Microwave",
	"Pierce Broadband",
	"New Line Networks",
}

// Every table takes a core.SnapshotProvider rather than a raw database:
// cmd/hftreport passes one shared snapshot engine, so reconstructions
// repeated across experiments (the same licensee at the same date shows
// up in Table 3, Fig 4, the weather runs, ...) are built once and
// served from the memo store thereafter.

// snap fetches a single-licensee snapshot over the full site set — the
// shape most tables want.
func snap(p core.SnapshotProvider, licensee string, date uls.Date, opts core.Options) (*core.Network, error) {
	return p.Snapshot(core.SnapshotRequest{
		Licensees: []string{licensee},
		Date:      date,
		DCs:       sites.All,
		Opts:      opts,
	})
}

// Table1 reproduces Table 1: connected CME–NY4 networks at the date, in
// latency order, with APA and shortest-path tower counts.
func Table1(p core.SnapshotProvider, date uls.Date) (*Table, error) {
	path := sites.Path{From: sites.CME, To: sites.NY4}
	rows, err := core.ConnectedNetworksVia(p, date, path, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Table 1: connected CME-NY4 networks as of %s", date),
		Headers: []string{"Licensee", "Latency (ms)", "APA (%)", "#Towers"},
	}
	for _, r := range rows {
		t.AddRow(r.Licensee, ms(r.Latency.Milliseconds()), pct(r.APA),
			fmt.Sprintf("%d", r.TowerCount))
	}
	return t, nil
}

// Table2 reproduces Table 2: per corridor path, the geodesic distance
// and the three fastest networks.
func Table2(p core.SnapshotProvider, date uls.Date) (*Table, error) {
	ranks, err := core.RankNetworksVia(p, date, sites.CorridorPaths(), 3, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Table 2: fastest networks per path as of %s", date),
		Headers: []string{"HFT Path", "Geodesic (km)", "Rank 1", "Rank 2", "Rank 3"},
	}
	for _, pr := range ranks {
		row := []string{pr.Path.Name(), fmt.Sprintf("%.0f", pr.GeodesicMeters/1000)}
		for i := 0; i < 3; i++ {
			if i < len(pr.Ranked) {
				r := pr.Ranked[i]
				row = append(row, fmt.Sprintf("%s %s", abbreviate(r.Licensee),
					ms(r.Latency.Milliseconds())))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// abbreviate shortens a licensee name to the initial-letters form the
// paper uses (NLN, PB, JM, ...).
func abbreviate(name string) string {
	var out []byte
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return name
	}
	return string(out)
}

// Table3 reproduces Table 3: APA for New Line Networks vs Webline
// Holdings on all three paths.
func Table3(p core.SnapshotProvider, date uls.Date) (*Table, error) {
	t := &Table{
		Title:   fmt.Sprintf("Table 3: alternate path availability as of %s", date),
		Headers: []string{"Path", "NLN", "WH"},
	}
	opts := core.DefaultOptions()
	nln, err := snap(p, "New Line Networks", date, opts)
	if err != nil {
		return nil, err
	}
	wh, err := snap(p, "Webline Holdings", date, opts)
	if err != nil {
		return nil, err
	}
	for _, pth := range sites.CorridorPaths() {
		a, _ := nln.APA(pth)
		b, _ := wh.APA(pth)
		t.AddRow(pth.Name(), pct(a), pct(b))
	}
	return t, nil
}

// Fig1 reproduces Fig 1's series: end-to-end CME–NY4 latency per year
// for the five tracked networks ("-" where not connected).
func Fig1(p core.SnapshotProvider, firstYear, lastYear int) (*Table, error) {
	return Fig1Grid(p, firstYear, lastYear, "yearly")
}

// Fig1Grid is Fig1 on an arbitrary sampling grid ("yearly", "monthly",
// "daily"). Dense grids are where the engine's anchor dedup pays off:
// every date between two license events resolves to the same anchor
// snapshot, so a daily sweep costs one rebuild per license event date,
// not one per day.
func Fig1Grid(p core.SnapshotProvider, firstYear, lastYear int, grid string) (*Table, error) {
	dates, err := core.GridDates(firstYear, lastYear, grid)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig 1: CME-NY4 latency evolution (ms)",
		Headers: append([]string{"Date"}, abbreviateAll(Fig1Networks)...),
	}
	path := sites.Path{From: sites.CME, To: sites.NY4}
	series := make(map[string][]core.EvolutionPoint, len(Fig1Networks))
	for _, name := range Fig1Networks {
		pts, err := core.EvolutionVia(p, name, path, dates, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		series[name] = pts
	}
	for i, d := range dates {
		row := []string{d.String()}
		for _, name := range Fig1Networks {
			pt := series[name][i]
			if pt.Connected {
				row = append(row, ms(pt.Latency.Milliseconds()))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig2 reproduces Fig 2's series: active license counts per year for the
// five tracked networks.
func Fig2(p core.SnapshotProvider, firstYear, lastYear int) (*Table, error) {
	return Fig2Grid(p, firstYear, lastYear, "yearly")
}

// Fig2Grid is Fig2 on an arbitrary sampling grid. Counts come from the
// event log's prefix sums — O(log events) per cell — so a daily grid
// over the full corpus range stays instant.
func Fig2Grid(p core.SnapshotProvider, firstYear, lastYear int, grid string) (*Table, error) {
	dates, err := core.GridDates(firstYear, lastYear, grid)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig 2: active licenses over time",
		Headers: append([]string{"Date"}, abbreviateAll(Fig1Networks)...),
	}
	log := p.DB().EventLog()
	for _, d := range dates {
		row := []string{d.String()}
		for _, name := range Fig1Networks {
			row = append(row, fmt.Sprintf("%d", log.ActiveCount(name, d)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func abbreviateAll(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = abbreviate(n)
	}
	return out
}

// Fig3 renders the Fig 3 map artifacts: the named network at each date,
// as SVG and GeoJSON, keyed by file name.
func Fig3(p core.SnapshotProvider, licensee string, dates []uls.Date) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for _, d := range dates {
		n, err := snap(p, licensee, d, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		base := fmt.Sprintf("%s-%04d%02d%02d", abbreviate(licensee), d.Year, d.Month, d.Day)
		out[base+".svg"] = viz.NetworkSVG(n, viz.SVGOptions{})
		gj, err := viz.NetworkGeoJSON(n)
		if err != nil {
			return nil, err
		}
		out[base+".geojson"] = gj
	}
	return out, nil
}

// Fig4a reproduces Fig 4(a): deciles of the link-length CDFs (km) for
// Webline Holdings and New Line Networks over CME–NY4 bounded paths.
func Fig4a(p core.SnapshotProvider, date uls.Date) (*Table, error) {
	path := sites.Path{From: sites.CME, To: sites.NY4}
	opts := core.DefaultOptions()
	t := &Table{
		Title:   "Fig 4a: link-length CDF deciles (km), CME-NY4 bounded paths",
		Headers: []string{"Percentile", "WH", "NLN"},
	}
	cdfs := make(map[string]core.CDF)
	for _, name := range []string{"Webline Holdings", "New Line Networks"} {
		n, err := snap(p, name, date, opts)
		if err != nil {
			return nil, err
		}
		lengths, ok := n.LinkLengthsOnBoundedPaths(path)
		if !ok {
			return nil, fmt.Errorf("report: %s has no bounded paths", name)
		}
		cdfs[abbreviate(name)] = core.NewCDF(lengths)
	}
	for pc := 10; pc <= 100; pc += 10 {
		q := float64(pc) / 100
		t.AddRow(fmt.Sprintf("p%d", pc),
			fmt.Sprintf("%.1f", cdfs["WH"].Quantile(q)/1000),
			fmt.Sprintf("%.1f", cdfs["NLN"].Quantile(q)/1000))
	}
	t.AddRow("median", fmt.Sprintf("%.1f", cdfs["WH"].Median()/1000),
		fmt.Sprintf("%.1f", cdfs["NLN"].Median()/1000))
	return t, nil
}

// Fig4b reproduces Fig 4(b): the operating-frequency distributions for
// WH and NLN shortest paths and NLN's alternate paths on CME–NY4.
func Fig4b(p core.SnapshotProvider, date uls.Date) (*Table, error) {
	path := sites.Path{From: sites.CME, To: sites.NY4}
	opts := core.DefaultOptions()
	wh, err := snap(p, "Webline Holdings", date, opts)
	if err != nil {
		return nil, err
	}
	nln, err := snap(p, "New Line Networks", date, opts)
	if err != nil {
		return nil, err
	}
	whSP, _ := wh.FrequenciesOnShortestPath(path)
	nlnSP, _ := nln.FrequenciesOnShortestPath(path)
	nlnAlt, _ := nln.FrequenciesOnAlternatePaths(path)

	t := &Table{
		Title:   "Fig 4b: operating frequencies, CME-NY4 (fractions per band)",
		Headers: []string{"Series", "n", "<7 GHz", "10-12 GHz", ">=17 GHz"},
	}
	addSeries := func(label string, freqs []float64) {
		var b6, b11, b18 int
		for _, f := range freqs {
			switch {
			case f < 7:
				b6++
			case f >= 10 && f < 12:
				b11++
			case f >= 17:
				b18++
			}
		}
		n := len(freqs)
		if n == 0 {
			t.AddRow(label, "0", "-", "-", "-")
			return
		}
		t.AddRow(label, fmt.Sprintf("%d", n),
			pct(float64(b6)/float64(n)),
			pct(float64(b11)/float64(n)),
			pct(float64(b18)/float64(n)))
	}
	addSeries("WH", whSP)
	addSeries("NLN-alternate", nlnAlt)
	addSeries("NLN", nlnSP)
	return t, nil
}

// Fig5 reproduces the Fig 5 / §6 comparison: LEO vs terrestrial MW vs
// fiber over a short land corridor and transoceanic segments, across
// shell altitudes.
func Fig5() (*Table, error) {
	frankfurt := geo.Point{Lat: 50.1109, Lon: 8.6821}
	washington := geo.Point{Lat: 38.9072, Lon: -77.0369}
	tokyo := geo.Point{Lat: 35.6762, Lon: 139.6503}
	newYork := geo.Point{Lat: 40.7128, Lon: -74.0060}

	t := &Table{
		Title: "Fig 5: LEO vs terrestrial microwave vs fiber (one-way ms)",
		Headers: []string{"Segment", "Shell (km)", "Ground (km)",
			"MW", "Fiber", "LEO"},
	}
	type seg struct {
		label                   string
		a, b                    geo.Point
		mwViable                bool
		mwStretch, fiberStretch float64
	}
	segs := []seg{
		{"CME-NY4", sites.CME.Location, sites.NY4.Location, true, 1.0014, 1.60},
		{"FRA-IAD", frankfurt, washington, false, 0, 1.40},
		{"TYO-NYC", tokyo, newYork, false, 0, 1.55},
	}
	for _, s := range segs {
		for _, alt := range []float64{300, 550, 1100} {
			c := leo.Constellation{AltitudeM: alt * 1000, SpacingM: 2000e3}
			cmp, err := leo.Compare(s.label, s.a, s.b, c, s.mwViable,
				s.mwStretch, s.fiberStretch)
			if err != nil {
				return nil, err
			}
			mwCell := "-"
			if s.mwViable && !math.IsNaN(cmp.MicrowaveMS) {
				mwCell = fmt.Sprintf("%.3f", cmp.MicrowaveMS)
			}
			t.AddRow(s.label, fmt.Sprintf("%.0f", alt),
				fmt.Sprintf("%.0f", cmp.GroundKM), mwCell,
				fmt.Sprintf("%.3f", cmp.FiberMS),
				fmt.Sprintf("%.3f", cmp.LEOMS))
		}
	}
	return t, nil
}

// Weather runs the §5 reliability extension: N seeded storms over the
// corridor, measuring survival and conditional latency for NLN vs WH on
// CME–NY4. The snapshots come from the provider; RouteUnderStorm reads
// them without modifying them, so shared engine snapshots are fine.
func Weather(p core.SnapshotProvider, date uls.Date, storms int, marginDB float64) (*Table, error) {
	path := sites.Path{From: sites.CME, To: sites.NY4}
	opts := core.DefaultOptions()
	t := &Table{
		Title: fmt.Sprintf("Weather extension: %d storms, %.0f dB fade margin, CME-NY4",
			storms, marginDB),
		Headers: []string{"Network", "Fair (ms)", "Available", "Mean storm (ms)",
			"Worst (ms)", "Mean links down", "Clear-air avail"},
	}
	for _, name := range []string{"New Line Networks", "Webline Holdings"} {
		n, err := snap(p, name, date, opts)
		if err != nil {
			return nil, err
		}
		fair, ok := n.BestRoute(path)
		if !ok {
			return nil, fmt.Errorf("report: %s not connected", name)
		}
		survived := 0
		var latencies []float64
		var downTotal int
		worst := fair.Latency.Milliseconds()
		for seed := 0; seed < storms; seed++ {
			storm := radio.GenerateStorm(uint64(seed+1), sites.CME.Location,
				sites.NY4.Location, radio.DefaultStormConfig())
			impact, err := n.RouteUnderStorm(path, storm, marginDB)
			if err != nil {
				return nil, err
			}
			downTotal += impact.LinksDown
			if impact.Connected {
				survived++
				lat := impact.Route.Latency.Milliseconds()
				latencies = append(latencies, lat)
				if lat > worst {
					worst = lat
				}
			}
		}
		mean := math.NaN()
		if len(latencies) > 0 {
			sum := 0.0
			for _, l := range latencies {
				sum += l
			}
			mean = sum / float64(len(latencies))
		}
		clearAir, _ := n.ClearAirAvailability(path, marginDB)
		t.AddRow(abbreviate(name), ms(fair.Latency.Milliseconds()),
			pct(float64(survived)/float64(storms)),
			ms(mean), ms(worst),
			fmt.Sprintf("%.1f", float64(downTotal)/float64(storms)),
			fmt.Sprintf("%.5f", clearAir))
	}
	return t, nil
}

// Fig3Diff quantifies the Fig 3 visual comparison: the infrastructure
// delta between a licensee's reconstructions at two dates.
func Fig3Diff(p core.SnapshotProvider, licensee string, before, after uls.Date) (*Table, error) {
	opts := core.DefaultOptions()
	oldNet, err := snap(p, licensee, before, opts)
	if err != nil {
		return nil, err
	}
	newNet, err := snap(p, licensee, after, opts)
	if err != nil {
		return nil, err
	}
	d := core.DiffNetworks(oldNet, newNet)
	t := &Table{
		Title:   fmt.Sprintf("Fig 3 delta: %s, %s -> %s", licensee, before, after),
		Headers: []string{"Quantity", "Kept", "Added", "Removed"},
	}
	t.AddRow("Towers", fmt.Sprintf("%d", d.TowersKept),
		fmt.Sprintf("%d", d.TowersAdded), fmt.Sprintf("%d", d.TowersRemoved))
	t.AddRow("Links", fmt.Sprintf("%d", d.LinksKept),
		fmt.Sprintf("%d", d.LinksAdded), fmt.Sprintf("%d", d.LinksRemoved))
	if d.TowersRemoved > 0 {
		moved := core.MovedTowers(oldNet, newNet, 30e3)
		t.AddRow("Replaced nearby (<30 km)", "", fmt.Sprintf("%d", moved), "")
	}
	return t, nil
}

// ScrapeFunnelTable formats a §2.2 funnel result.
func ScrapeFunnelTable(geographic, candidates, shortlisted, scraped int, names []string) *Table {
	t := &Table{
		Title:   "Scrape pipeline (§2.2) funnel",
		Headers: []string{"Stage", "Count"},
	}
	t.AddRow("Licenses within 10 km of CME", fmt.Sprintf("%d", geographic))
	t.AddRow("Candidate licensees (MG/FXO)", fmt.Sprintf("%d", candidates))
	t.AddRow("Shortlisted (>= 11 filings)", fmt.Sprintf("%d", shortlisted))
	t.AddRow("Licenses scraped", fmt.Sprintf("%d", scraped))
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for _, n := range sorted {
		t.AddRow("  shortlisted: "+n, "")
	}
	return t
}
