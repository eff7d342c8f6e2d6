package hftnetview

// The benchmark suite regenerates every table and figure of the paper
// (one benchmark per experiment, E1–E17 in DESIGN.md) and measures the
// design-choice ablations DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem

import (
	"bytes"
	"context"
	"math/rand/v2"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hftnetview/internal/core"
	"hftnetview/internal/graph"
	"hftnetview/internal/radio"
	"hftnetview/internal/report"
	"hftnetview/internal/scrape"
	"hftnetview/internal/sites"
	"hftnetview/internal/uls"
	"hftnetview/internal/ulsserver"
	"hftnetview/internal/viz"
)

var (
	benchOnce sync.Once
	benchDB   *Database
)

func corpus(b *testing.B) *Database {
	b.Helper()
	benchOnce.Do(func() {
		db, err := GenerateCorpus()
		if err != nil {
			b.Fatalf("GenerateCorpus: %v", err)
		}
		benchDB = db
	})
	return benchDB
}

// BenchmarkCorpusGeneration measures the synthetic-corridor generator
// (geometry calibration by bisection plus license emission).
func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateCorpus(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1ConnectedNetworks regenerates Table 1 (E1).
func BenchmarkTable1ConnectedNetworks(b *testing.B) {
	db := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.Table1(NewEngine(db), Snapshot()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Rankings regenerates Table 2 (E2).
func BenchmarkTable2Rankings(b *testing.B) {
	db := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.Table2(NewEngine(db), Snapshot()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3APA regenerates Table 3 (E3).
func BenchmarkTable3APA(b *testing.B) {
	db := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.Table3(NewEngine(db), Snapshot()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1Evolution regenerates Fig 1's series (E4).
func BenchmarkFig1Evolution(b *testing.B) {
	db := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.Fig1(NewEngine(db), 2013, 2020); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2ActiveLicenses regenerates Fig 2's series (E5).
func BenchmarkFig2ActiveLicenses(b *testing.B) {
	db := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.Fig2(NewEngine(db), 2013, 2020); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Visualization regenerates the Fig 3 map artifacts (E6).
func BenchmarkFig3Visualization(b *testing.B) {
	db := corpus(b)
	dates := []uls.Date{
		uls.NewDate(2016, time.January, 1),
		uls.NewDate(2020, time.April, 1),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.Fig3(NewEngine(db), "New Line Networks", dates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4aLinkLengths regenerates Fig 4(a) (E7).
func BenchmarkFig4aLinkLengths(b *testing.B) {
	db := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.Fig4a(NewEngine(db), Snapshot()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4bFrequencies regenerates Fig 4(b) (E8).
func BenchmarkFig4bFrequencies(b *testing.B) {
	db := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.Fig4b(NewEngine(db), Snapshot()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5LEO regenerates the Fig 5 comparison (E9).
func BenchmarkFig5LEO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScrapePipeline runs the §2.2 funnel over real HTTP against
// an in-process portal (E10).
func BenchmarkScrapePipeline(b *testing.B) {
	db := corpus(b)
	ts := httptest.NewServer(ulsserver.New(db))
	defer ts.Close()
	c := scrape.NewClient(ts.URL)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := scrape.Run(context.Background(), c,
			scrape.DefaultPipelineOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWeatherReliability runs the §5 weather extension (E11).
func BenchmarkWeatherReliability(b *testing.B) {
	db := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.Weather(NewEngine(db), Snapshot(), 10,
			radio.DefaultFadeMarginDB); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverheadSweep runs the §3 per-tower overhead analysis (E12).
func BenchmarkOverheadSweep(b *testing.B) {
	db := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.OverheadSweep(NewEngine(db), Snapshot()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEntityResolution runs the §2.4/§6 joint-entity analysis
// (E13) on a cold engine: the per-licensee screen plus the union
// reconstructions of the few loner pairs that share a tower site.
func BenchmarkEntityResolution(b *testing.B) {
	db := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.EntityResolution(NewEngine(db), Snapshot()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRaceStrategies runs the §5 subscription-strategy seasons
// (E14).
func BenchmarkRaceStrategies(b *testing.B) {
	db := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.RaceStrategies(NewEngine(db), Snapshot(), 5, 40, 2e-6); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignSweep runs the cISP-style budgeted design experiment
// (E15).
func BenchmarkDesignSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := report.DesignSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAvailabilityBudget runs the rain + multipath availability
// analysis (E17).
func BenchmarkAvailabilityBudget(b *testing.B) {
	db := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.AvailabilityBudget(NewEngine(db), Snapshot(), 40); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiverseRoutes runs the Yen top-k route analysis (E16).
func BenchmarkDiverseRoutes(b *testing.B) {
	db := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := report.DiverseRoutes(NewEngine(db), Snapshot(), 3); err != nil {
			b.Fatal(err)
		}
	}
}

// The report benchmarks above construct a fresh engine per iteration
// on purpose: they measure the uncached cost of regenerating each
// table. The engine benchmarks below measure what the shared memo
// store buys when analyses repeat.

// evolutionSweep regenerates the full Fig 1 workload — every tracked
// network across every sample date — through one engine.
func evolutionSweep(b *testing.B, eng *Engine) {
	path := PathNY4()
	dates := PaperSampleDates(2013, 2020)
	for _, name := range report.Fig1Networks {
		if _, err := eng.Evolution(name, path, dates, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineEvolutionUncached is the Fig 1 workload with a cold
// engine every iteration: every snapshot is reconstructed from
// licenses.
func BenchmarkEngineEvolutionUncached(b *testing.B) {
	db := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evolutionSweep(b, NewEngine(db))
	}
}

// BenchmarkEngineEvolutionCached is the same workload through one
// primed engine: every snapshot is a memo hit on a shared network. The
// reported hits/rebuilds metrics prove the reuse.
func BenchmarkEngineEvolutionCached(b *testing.B) {
	db := corpus(b)
	eng := NewEngine(db)
	evolutionSweep(b, eng) // prime the memo store
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evolutionSweep(b, eng)
	}
	b.StopTimer()
	st := eng.Stats()
	b.ReportMetric(float64(st.Hits), "hits")
	b.ReportMetric(float64(st.Rebuilds), "rebuilds")
}

// BenchmarkEngineSnapshotHit measures a single cache-hit snapshot —
// the memo key lookup plus the header that carries the requested date.
func BenchmarkEngineSnapshotHit(b *testing.B) {
	b.ReportAllocs()
	db := corpus(b)
	eng := NewEngine(db)
	req := SnapshotRequest{
		Licensees: []string{"Webline Holdings"},
		Date:      Snapshot(),
		DCs:       sites.All,
		Opts:      DefaultOptions(),
	}
	if _, err := eng.Snapshot(req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Snapshot(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconstructOne measures a single network reconstruction.
func BenchmarkReconstructOne(b *testing.B) {
	db := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Reconstruct(db, "Webline Holdings", Snapshot(),
			sites.All, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkWrite and BenchmarkBulkRead measure the ULS bulk codec
// over the full corpus.
func BenchmarkBulkWrite(b *testing.B) {
	db := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteBulk(&buf, db); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

func BenchmarkBulkRead(b *testing.B) {
	db := corpus(b)
	var buf bytes.Buffer
	if err := WriteBulk(&buf, db); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadBulk(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVGRender measures corridor-map rendering alone.
func BenchmarkSVGRender(b *testing.B) {
	db := corpus(b)
	n, err := Reconstruct(db, "Webline Holdings", Snapshot(), sites.All, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = viz.NetworkSVG(n, viz.SVGOptions{})
	}
}

// --- Ablation benchmarks (DESIGN.md "design choices to ablate") ---

// randomGraph builds a reproducible weighted graph for the graph-layer
// ablations.
func randomGraph(nodes, edges int, seed uint64) (*graph.Graph, graph.NodeID, graph.NodeID) {
	rng := rand.New(rand.NewPCG(seed, 17))
	g := graph.New()
	ids := make([]graph.NodeID, nodes)
	for i := range ids {
		ids[i] = g.AddNode()
	}
	// A ring guarantees connectivity; extra random edges add structure.
	for i := 0; i < nodes; i++ {
		g.AddEdge(ids[i], ids[(i+1)%nodes], 1+rng.Float64())
	}
	for e := 0; e < edges; e++ {
		a, b := ids[rng.IntN(nodes)], ids[rng.IntN(nodes)]
		if a == b {
			continue
		}
		g.AddEdge(a, b, 1+rng.Float64()*4)
	}
	return g, ids[0], ids[nodes/2]
}

// BenchmarkAblationDijkstraHeap vs Naive: the binary-heap priority queue
// against the O(V²) scan.
func BenchmarkAblationDijkstraHeap(b *testing.B) {
	g, s, t := randomGraph(2000, 6000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.ShortestPath(s, t); !ok {
			b.Fatal("unreachable")
		}
	}
}

func BenchmarkAblationDijkstraNaive(b *testing.B) {
	g, s, t := randomGraph(2000, 6000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.ShortestPathNaive(s, t); !ok {
			b.Fatal("unreachable")
		}
	}
}

// BenchmarkAblationDijkstraBidirectional: meet-in-the-middle search
// against the one-sided heap Dijkstra.
func BenchmarkAblationDijkstraBidirectional(b *testing.B) {
	g, s, t := randomGraph(2000, 6000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.ShortestPathBidirectional(s, t, nil); !ok {
			b.Fatal("unreachable")
		}
	}
}

// BenchmarkAblationAPAFast vs Slow: shortest-path-tree reuse against
// per-edge full recomputation.
func BenchmarkAblationAPAFast(b *testing.B) {
	g, s, t := randomGraph(400, 1200, 2)
	sp, _ := g.ShortestPath(s, t)
	bound := sp.Weight * 1.3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.EdgeRemovalAnalysisFast(s, t, bound, nil)
	}
}

func BenchmarkAblationAPASlow(b *testing.B) {
	g, s, t := randomGraph(400, 1200, 2)
	sp, _ := g.ShortestPath(s, t)
	bound := sp.Weight * 1.3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.EdgeRemovalAnalysis(s, t, bound, nil)
	}
}

// asymmetricBraid is a corridor braid like Webline's: a fast rail, a
// 25% slower rail, rungs at every cell. Under a tight latency bound
// the viable paths are few, but a cost-only DFS keeps exploring
// slow-rail prefixes until their accumulated cost alone breaks the
// bound; the distance-to-target prune rejects each one at its first
// slow segment.
func asymmetricBraid(cells int) (*graph.Graph, graph.NodeID, graph.NodeID) {
	g := graph.New()
	a := make([]graph.NodeID, cells+1)
	bb := make([]graph.NodeID, cells+1)
	for i := range a {
		a[i] = g.AddNode()
		bb[i] = g.AddNode()
		if _, err := g.AddEdge(a[i], bb[i], 0.02); err != nil {
			panic(err)
		}
	}
	for i := 0; i < cells; i++ {
		g.AddEdge(a[i], a[i+1], 1.0)
		g.AddEdge(bb[i], bb[i+1], 1.25)
	}
	return g, a[0], a[cells]
}

// BenchmarkAblationPathEnumPruned vs Unpruned: distance-to-target
// lower-bound pruning in bounded simple-path enumeration under a tight
// bound. (The prune is an admissible bound: it cannot reject dead-end
// stubs whose shortest way back to the target runs through the visited
// mouth — which is exactly why core.BoundedPaths computes the §5 link
// universe with two Dijkstra trees instead of any enumeration.)
func BenchmarkAblationPathEnumPruned(b *testing.B) {
	g, s, t := asymmetricBraid(18)
	sp, _ := g.ShortestPath(s, t)
	bound := sp.Weight * 1.02
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PathsWithin(s, t, graph.EnumerateOptions{Bound: bound})
	}
}

func BenchmarkAblationPathEnumUnpruned(b *testing.B) {
	g, s, t := asymmetricBraid(18)
	sp, _ := g.ShortestPath(s, t)
	bound := sp.Weight * 1.02
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.PathsWithin(s, t, graph.EnumerateOptions{Bound: bound, DisablePruning: true})
	}
}

// BenchmarkAblationGeoSearchIndexed vs Scan: the portal's geographic
// search with and without the grid index.
func BenchmarkAblationGeoSearchIndexed(b *testing.B) {
	db := corpus(b)
	center := sites.CME.Location
	db.WithinRadiusIndexed(center, 10e3) // build the index outside the loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.WithinRadiusIndexed(center, 10e3)
	}
}

func BenchmarkAblationGeoSearchScan(b *testing.B) {
	db := corpus(b)
	center := sites.CME.Location
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.WithinRadius(center, 10e3)
	}
}

// BenchmarkAblationBoundedLinksTreeCriterion measures the two-Dijkstra
// bounded-link criterion that replaced exponential enumeration for the
// braided Webline topology (see core.BoundedPaths).
func BenchmarkAblationBoundedLinksTreeCriterion(b *testing.B) {
	db := corpus(b)
	n, err := core.Reconstruct(db, "Webline Holdings", Snapshot(), sites.All,
		core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	path := sites.Path{From: sites.CME, To: sites.NY4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := n.BoundedPaths(path); !ok {
			b.Fatal("no bounded paths")
		}
	}
}

// benchDailyDates is the E22 workload grid: every calendar day from
// 2013 through the paper snapshot (1 April 2020).
func benchDailyDates(b *testing.B) []uls.Date {
	dates, err := core.GridDates(2013, 2020, "daily")
	if err != nil {
		b.Fatal(err)
	}
	return dates
}

// BenchmarkEvolutionDailyFullRebuild is the E22 baseline: a daily-grid
// 2013–2020 evolution sweep on the legacy path — one full
// reconstruction per date (no engine, no anchor dedup).
func BenchmarkEvolutionDailyFullRebuild(b *testing.B) {
	db := corpus(b)
	dates := benchDailyDates(b)
	licensee := report.Fig1Networks[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.EvolutionVia(core.DirectProvider(db), licensee,
			PathNY4(), dates, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvolutionDailyDelta is the same sweep through a cold engine
// each iteration: the dates collapse onto their event-log anchors, one
// rebuild per distinct anchor (E22). The gate holding this at >=10x
// over the baseline is TestDeltaSweepBudget.
func BenchmarkEvolutionDailyDelta(b *testing.B) {
	db := corpus(b)
	dates := benchDailyDates(b)
	licensee := report.Fig1Networks[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewEngine(db).Evolution(licensee,
			PathNY4(), dates, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
