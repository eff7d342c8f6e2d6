// Command hftreport regenerates every table and figure of the paper's
// evaluation from a license database (default: the synthetic corpus).
//
// Usage:
//
//	hftreport [-bulk corpus.uls] [-exp all|table1|table2|table3|fig1|
//	          fig2|fig3|fig4a|fig4b|fig5|weather|overhead|entity|race|design|diverse|availability|
//	          scrape] [-out out/] [-grid yearly|monthly|daily]
//	          [-storms 25] [-margin-db 40]
//	          [-lenient [-max-error-rate 0.5] [-quarantine-out q.tsv]]
//
// -grid densifies the fig1/fig2 longitudinal sweeps from the paper's
// yearly samples to monthly or daily grids; the engine resolves every
// between-event date to a shared anchor snapshot, so even the daily
// grid costs one rebuild per license event date (the closing stats
// line reports the anchor re-key hits).
//
// With -lenient, a dirty -bulk file is salvaged instead of aborting the
// run: malformed records are skipped, the rest of each license is
// recovered, and the ingest report is printed to stderr.
//
// Textual experiments print to stdout; fig3 writes SVG/GeoJSON files to
// -out; scrape spins an in-process portal and runs the §2.2 pipeline
// against real HTTP.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"hftnetview"
	"hftnetview/internal/report"
	"hftnetview/internal/scrape"
	"hftnetview/internal/uls"
	"hftnetview/internal/ulsserver"
)

func main() {
	bulk := flag.String("bulk", "", "ULS bulk file (default: synthetic corpus)")
	exp := flag.String("exp", "all", "experiment to run")
	outDir := flag.String("out", "out", "output directory for figure artifacts")
	grid := flag.String("grid", "yearly", "fig1/fig2 sampling grid: yearly, monthly, or daily")
	dataDir := flag.String("data", "", "also write each table as a .dat plot file here")
	storms := flag.Int("storms", 25, "weather experiment storm count")
	marginDB := flag.Float64("margin-db", 40, "weather experiment fade margin")
	lenient := flag.Bool("lenient", false, "salvage malformed bulk records instead of aborting")
	maxErrorRate := flag.Float64("max-error-rate", 0, "with -lenient, abort if more than this fraction of record lines is bad (0 = no budget)")
	quarantineOut := flag.String("quarantine-out", "", "with -lenient, write quarantined call signs to this file")
	flag.Parse()

	db, err := loadDB(*bulk, *lenient, *maxErrorRate, *quarantineOut)
	if err != nil {
		log.Fatalf("hftreport: %v", err)
	}
	date := hftnetview.Snapshot()

	// One snapshot engine backs every experiment: networks reconstructed
	// for Table 1 are served from cache to the weather, availability,
	// race, and entity runs instead of being rebuilt per table.
	eng := hftnetview.NewEngine(db)

	run := func(name string) error {
		var t *report.Table
		var err error
		switch name {
		case "table1":
			t, err = report.Table1(eng, date)
		case "table2":
			t, err = report.Table2(eng, date)
		case "table3":
			t, err = report.Table3(eng, date)
		case "fig1":
			t, err = report.Fig1Grid(eng, 2013, 2020, *grid)
		case "fig2":
			t, err = report.Fig2Grid(eng, 2013, 2020, *grid)
		case "fig3":
			return fig3(eng, *outDir)
		case "fig4a":
			t, err = report.Fig4a(eng, date)
		case "fig4b":
			t, err = report.Fig4b(eng, date)
		case "fig5":
			t, err = report.Fig5()
		case "weather":
			t, err = report.Weather(eng, date, *storms, *marginDB)
		case "overhead":
			t, err = report.OverheadSweep(eng, date)
		case "entity":
			t, err = report.EntityResolution(eng, date)
		case "race":
			t, err = report.RaceStrategies(eng, date, *storms, *marginDB, 2e-6)
		case "design":
			t, err = report.DesignSweep()
		case "diverse":
			t, err = report.DiverseRoutes(eng, date, 3)
		case "availability":
			t, err = report.AvailabilityBudget(eng, date, *marginDB)
		case "scrape":
			return runScrape(db)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		if err != nil {
			return err
		}
		fmt.Println(t.String())
		if *dataDir != "" {
			if err := os.MkdirAll(*dataDir, 0o755); err != nil {
				return err
			}
			f, err := os.Create(filepath.Join(*dataDir, name+".dat"))
			if err != nil {
				return err
			}
			defer f.Close()
			if err := t.WriteData(f); err != nil {
				return err
			}
		}
		return nil
	}

	experiments := []string{*exp}
	if *exp == "all" {
		experiments = []string{"table1", "table2", "table3", "fig1", "fig2",
			"fig3", "fig4a", "fig4b", "fig5", "weather", "overhead",
			"entity", "race", "design", "diverse", "availability", "scrape"}
	}
	for _, name := range experiments {
		if err := run(name); err != nil {
			log.Fatalf("hftreport: %s: %v", name, err)
		}
	}

	st := eng.Stats()
	fmt.Printf("snapshot engine: %d distinct snapshots, %d rebuilds, %d hits, %d coalesced\n",
		st.Entries, st.Rebuilds, st.Hits, st.Coalesced)
	fmt.Printf("anchor re-keying: %d re-key hits\n", st.DeltaHits)
}

func loadDB(bulkPath string, lenient bool, maxErrorRate float64, quarantineOut string) (*hftnetview.Database, error) {
	if bulkPath == "" {
		return hftnetview.GenerateCorpus()
	}
	f, err := os.Open(bulkPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if !lenient {
		return hftnetview.ReadBulk(f)
	}
	db, rep, err := hftnetview.ReadBulkWithOptions(f, hftnetview.ReadBulkOptions{
		Mode:         hftnetview.Lenient,
		MaxErrorRate: maxErrorRate,
	})
	if rep != nil {
		fmt.Fprint(os.Stderr, rep)
	}
	if err != nil {
		return nil, err
	}
	if quarantineOut != "" {
		qf, err := os.Create(quarantineOut)
		if err != nil {
			return nil, err
		}
		defer qf.Close()
		if err := rep.WriteQuarantine(qf); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func fig3(eng *hftnetview.Engine, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dates := []uls.Date{
		uls.NewDate(2016, time.January, 1),
		uls.NewDate(2020, time.April, 1),
	}
	files, err := report.Fig3(eng, "New Line Networks", dates)
	if err != nil {
		return err
	}
	for name, data := range files {
		path := filepath.Join(outDir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("fig3: wrote %s (%d bytes)\n", path, len(data))
	}
	fmt.Println()
	diff, err := report.Fig3Diff(eng, "New Line Networks", dates[0], dates[1])
	if err != nil {
		return err
	}
	fmt.Println(diff.String())
	return nil
}

func runScrape(db *hftnetview.Database) error {
	ts := httptest.NewServer(ulsserver.New(db))
	defer ts.Close()
	c := scrape.NewClient(ts.URL)
	c.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	start := time.Now()
	scraped, funnel, err := scrape.Run(context.Background(), c, scrape.DefaultPipelineOptions())
	if err != nil {
		return err
	}
	t := report.ScrapeFunnelTable(funnel.GeographicMatches, funnel.Candidates,
		funnel.Shortlisted, funnel.LicensesScraped, funnel.ShortlistedNames)
	fmt.Println(t.String())
	fmt.Printf("scraped %d licenses over HTTP in %v\n\n", scraped.Len(),
		time.Since(start).Round(time.Millisecond))
	return nil
}
