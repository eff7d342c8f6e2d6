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
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"time"

	"hftnetview"
	"hftnetview/internal/report"
	"hftnetview/internal/scrape"
	"hftnetview/internal/uls"
	"hftnetview/internal/ulsserver"
)

// experiments is the -exp all run order: every table and figure of the
// evaluation, then the scrape funnel. The golden test runs this list.
var experiments = []string{"table1", "table2", "table3", "fig1", "fig2",
	"fig3", "fig4a", "fig4b", "fig5", "weather", "overhead",
	"entity", "race", "design", "diverse", "availability", "scrape"}

// params are the command-line knobs an experiment reads.
type params struct {
	grid            string
	storms          int
	marginDB        float64
	outDir, dataDir string
}

// defaults are the flags' default values.
var defaults = params{grid: "yearly", storms: 25, marginDB: 40, outDir: "out"}

func main() {
	bulk := flag.String("bulk", "", "ULS bulk file (default: synthetic corpus)")
	exp := flag.String("exp", "all", "experiment to run")
	p := defaults
	flag.StringVar(&p.outDir, "out", defaults.outDir, "output directory for figure artifacts")
	flag.StringVar(&p.grid, "grid", defaults.grid, "fig1/fig2 sampling grid: yearly, monthly, or daily")
	flag.StringVar(&p.dataDir, "data", defaults.dataDir, "also write each table as a .dat plot file here")
	flag.IntVar(&p.storms, "storms", defaults.storms, "weather experiment storm count")
	flag.Float64Var(&p.marginDB, "margin-db", defaults.marginDB, "weather experiment fade margin")
	lenient := flag.Bool("lenient", false, "salvage malformed bulk records instead of aborting")
	maxErrorRate := flag.Float64("max-error-rate", 0, "with -lenient, abort if more than this fraction of record lines is bad (0 = no budget)")
	quarantineOut := flag.String("quarantine-out", "", "with -lenient, write quarantined call signs to this file")
	flag.Parse()

	db, err := loadDB(*bulk, *lenient, *maxErrorRate, *quarantineOut)
	if err != nil {
		log.Fatalf("hftreport: %v", err)
	}

	// One snapshot engine backs every experiment: networks reconstructed
	// for Table 1 are served from cache to the weather, availability,
	// race, and entity runs instead of being rebuilt per table.
	eng := hftnetview.NewEngine(db)

	names := []string{*exp}
	if *exp == "all" {
		names = experiments
	}
	for _, name := range names {
		if err := runExperiment(os.Stdout, eng, db, name, p); err != nil {
			log.Fatalf("hftreport: %s: %v", name, err)
		}
	}

	st := eng.Stats()
	fmt.Printf("snapshot engine: %d distinct snapshots, %d rebuilds, %d hits, %d coalesced\n",
		st.Entries, st.Rebuilds, st.Hits, st.Coalesced)
	fmt.Printf("anchor re-keying: %d re-key hits\n", st.DeltaHits)
}

// runExperiment runs one experiment on eng and prints it to w: fig3
// also writes its figure files to p.outDir, and with p.dataDir set a
// table is also written there as name.dat.
func runExperiment(w io.Writer, eng *hftnetview.Engine, db *hftnetview.Database, name string, p params) error {
	date := hftnetview.Snapshot()
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
		t, err = report.Fig1Grid(eng, 2013, 2020, p.grid)
	case "fig2":
		t, err = report.Fig2Grid(eng, 2013, 2020, p.grid)
	case "fig3":
		return fig3(w, eng, p.outDir)
	case "fig4a":
		t, err = report.Fig4a(eng, date)
	case "fig4b":
		t, err = report.Fig4b(eng, date)
	case "fig5":
		t, err = report.Fig5()
	case "weather":
		t, err = report.Weather(eng, date, p.storms, p.marginDB)
	case "overhead":
		t, err = report.OverheadSweep(eng, date)
	case "entity":
		t, err = report.EntityResolution(eng, date)
	case "race":
		t, err = report.RaceStrategies(eng, date, p.storms, p.marginDB, 2e-6)
	case "design":
		t, err = report.DesignSweep()
	case "diverse":
		t, err = report.DiverseRoutes(eng, date, 3)
	case "availability":
		t, err = report.AvailabilityBudget(eng, date, p.marginDB)
	case "scrape":
		return runScrape(w, db)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(w, t.String())
	if p.dataDir == "" {
		return nil
	}
	if err := os.MkdirAll(p.dataDir, 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	t.WriteData(&b)
	return os.WriteFile(filepath.Join(p.dataDir, name+".dat"), b.Bytes(), 0o644)
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

func fig3(w io.Writer, eng *hftnetview.Engine, outDir string) error {
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
	for _, name := range slices.Sorted(maps.Keys(files)) {
		path := filepath.Join(outDir, name)
		if err := os.WriteFile(path, files[name], 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "fig3: wrote %s (%d bytes)\n", path, len(files[name]))
	}
	fmt.Fprintln(w)
	diff, err := report.Fig3Diff(eng, "New Line Networks", dates[0], dates[1])
	if err != nil {
		return err
	}
	fmt.Fprintln(w, diff.String())
	return nil
}

func runScrape(w io.Writer, db *hftnetview.Database) error {
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
	fmt.Fprintln(w, t.String())
	fmt.Fprintf(w, "scraped %d licenses over HTTP in %v\n\n", scraped.Len(),
		time.Since(start).Round(time.Millisecond))
	return nil
}
