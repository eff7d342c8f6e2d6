// Package hftnetview reproduces "A Bird's Eye View of the World's
// Fastest Networks" (Bhattacherjee et al., ACM IMC 2020): systematic
// reconstruction of the Chicago–New Jersey high-frequency-trading
// microwave networks from FCC-style license filings, and the paper's
// analyses — end-to-end latency rankings, longitudinal evolution,
// alternate path availability, link-length and operating-frequency
// distributions, weather resilience, and the LEO satellite comparison.
//
// This package is the facade over the implementation packages: it
// exposes the corpus, reconstruction, and analysis workflow that the
// examples, tools, and benchmarks build on.
//
// A typical session runs everything through one snapshot engine, so
// reconstructions repeated across analyses are built once and served
// from its memo store thereafter:
//
//	db, _ := hftnetview.GenerateCorpus()
//	eng := hftnetview.NewEngine(db)
//	rows, _ := eng.ConnectedNetworks(hftnetview.Snapshot(),
//		hftnetview.PathNY4(), hftnetview.DefaultOptions())
//	for _, r := range rows {
//		fmt.Printf("%-24s %s\n", r.Licensee, r.Latency)
//	}
//
// The one-shot functions (ConnectedNetworks, RankNetworks, Evolution)
// remain for single-analysis use; they reconstruct uncached.
package hftnetview

import (
	"io"
	"time"

	"hftnetview/internal/core"
	"hftnetview/internal/engine"
	"hftnetview/internal/serve"
	"hftnetview/internal/sites"
	"hftnetview/internal/store"
	"hftnetview/internal/synth"
	"hftnetview/internal/uls"
	"hftnetview/internal/units"
)

// Re-exported domain types. The aliases make the facade's functions
// interoperate directly with the implementation packages.
type (
	// Database is an in-memory FCC license store.
	Database = uls.Database
	// License is one ULS license filing.
	License = uls.License
	// Date is a calendar date as used in license lifecycles.
	Date = uls.Date
	// Network is one licensee's reconstructed network as of a date.
	Network = core.Network
	// Route is an end-to-end lowest-latency path through a network.
	Route = core.Route
	// NetworkSummary is one row of a connected-networks table.
	NetworkSummary = core.NetworkSummary
	// PathRanking is a corridor path with its fastest networks.
	PathRanking = core.PathRanking
	// EvolutionPoint is one longitudinal sample of a network.
	EvolutionPoint = core.EvolutionPoint
	// Options tunes reconstruction.
	Options = core.Options
	// DataCenter is a corridor anchor facility.
	DataCenter = sites.DataCenter
	// Path is an ordered data-center pair.
	Path = sites.Path
	// Latency is a one-way propagation delay in seconds.
	Latency = units.Latency
	// Engine is the shared, concurrent, memoized snapshot layer: it
	// reconstructs each distinct (licensee set, date, data-center set,
	// options) snapshot at most once per database generation and shares
	// the memoized, read-only networks with every reader. Create one with
	// NewEngine.
	Engine = engine.Engine
	// EngineStats are the engine's hit/miss/coalesce/rebuild counters.
	EngineStats = engine.Stats
	// SnapshotRequest identifies one snapshot an Engine can resolve.
	SnapshotRequest = core.SnapshotRequest
	// SnapshotProvider is the interface between analyses and snapshot
	// sources; both an Engine and the uncached direct provider satisfy it.
	SnapshotProvider = core.SnapshotProvider
	// ParseMode selects how bulk ingestion reacts to malformed records.
	ParseMode = uls.ParseMode
	// ReadBulkOptions configures fault-tolerant bulk ingestion.
	ReadBulkOptions = uls.ReadBulkOptions
	// IngestReport is the deterministic account of a fault-tolerant
	// ingestion run: error counts by class and record type, quarantined
	// call signs, and the first individual record errors.
	IngestReport = uls.IngestReport
	// RecordError is one classified record failure.
	RecordError = uls.RecordError
	// ErrorClass is the coarse taxonomy of record failures.
	ErrorClass = uls.ErrorClass
	// Bounds is a geographic bounding box for coordinate validation.
	Bounds = uls.Bounds
	// ValidateOptions configures the cross-record integrity pass.
	ValidateOptions = uls.ValidateOptions
	// ValidationReport is the outcome of Validate.
	ValidationReport = uls.ValidationReport
	// Server is the resilient always-on query service over the snapshot
	// engine: load shedding, circuit breaking, per-request deadlines,
	// and hot corpus reload. Create one with NewServer and serve its
	// Handler(); cmd/hftserve is the packaged binary.
	Server = serve.Server
	// ServeConfig tunes the query service's resilience envelope.
	ServeConfig = serve.Config
	// ReloadOptions governs hot corpus reload ingestion.
	ReloadOptions = serve.ReloadOptions
	// Store is the crash-safe generation store for parsed corpora:
	// checksummed segment writes published by atomic manifest rename,
	// with recovery that falls back to the last fully verified
	// generation. Create one with OpenStore; cmd/hftstore is the
	// inspection/maintenance binary.
	Store = store.Store
	// GenInfo describes one committed store generation.
	GenInfo = store.GenInfo
	// RecoveryReport accounts for what store recovery scanned, served,
	// and had to discard.
	RecoveryReport = store.RecoveryReport
	// FsckReport is the outcome of a deep store verification.
	FsckReport = store.FsckReport
)

// Bulk ingestion parse modes.
const (
	// Strict aborts on the first malformed record.
	Strict = uls.Strict
	// Lenient skips malformed records and salvages the rest.
	Lenient = uls.Lenient
	// DropLicense quarantines every license with a record error.
	DropLicense = uls.DropLicense
)

// NewEngine returns a snapshot engine over db. Share one engine across
// all analyses of a database: concurrent requests for the same snapshot
// coalesce onto a single reconstruction, and repeats are cache hits.
func NewEngine(db *Database) *Engine { return engine.New(db) }

// NewServer returns the resilient query service serving db under cfg
// (zero value = production defaults). The corpus is installed as the
// first generation; swap in replacements with Server.SetCorpus or
// Server.LoadCorpusFile without dropping in-flight requests.
func NewServer(db *Database, cfg ServeConfig) *Server {
	s := serve.New(cfg)
	s.SetCorpus(db, "facade")
	return s
}

// OpenStore opens (creating if necessary) a crash-safe corpus store in
// dir. Save a parsed corpus as a verified generation, Load the newest
// one back after a restart, and let Server.AttachStore persist every
// published corpus automatically.
func OpenStore(dir string) (*Store, error) { return store.Open(dir) }

// Corridor anchors (§2.2).
var (
	CME    = sites.CME
	NY4    = sites.NY4
	NYSE   = sites.NYSE
	NASDAQ = sites.NASDAQ
)

// PathNY4 returns the paper's headline path, CME–Equinix NY4.
func PathNY4() Path { return Path{From: CME, To: NY4} }

// CorridorPaths returns the three paths of Table 2.
func CorridorPaths() []Path { return sites.CorridorPaths() }

// Snapshot returns the paper's analysis date, 1 April 2020.
func Snapshot() Date { return uls.NewDate(2020, time.April, 1) }

// DefaultOptions returns the paper's reconstruction parameters: towers
// merged at ~11 m, ≤50 km fiber tails with one attachment per data
// center, and the 5% alternate-path stretch bound.
func DefaultOptions() Options { return core.DefaultOptions() }

// GenerateCorpus builds the deterministic synthetic corridor license
// database that substitutes for the live FCC corpus (see DESIGN.md):
// the nine connected 2020 networks, National Tower Company's full arc,
// and the non-HFT licensees of the §2.2 discovery funnel.
func GenerateCorpus() (*Database, error) { return synth.Generate() }

// ReadBulk parses a pipe-delimited ULS bulk stream into a database.
func ReadBulk(r io.Reader) (*Database, error) { return uls.ReadBulk(r) }

// ReadBulkWithOptions parses a bulk stream under a fault-tolerance
// policy: Strict (abort on the first malformed record), Lenient (skip
// malformed records and salvage the rest of each license), or
// DropLicense (quarantine whole offending licenses). The IngestReport
// is never nil and is deterministic for identical input and options.
func ReadBulkWithOptions(r io.Reader, opts ReadBulkOptions) (*Database, *IngestReport, error) {
	return uls.ReadBulkWithOptions(r, opts)
}

// Validate runs the cross-record integrity pass over a database —
// dangling location references, frequency-less paths, out-of-bounds
// coordinates, lifecycle-date inversions — optionally repairing it in
// place by dropping only the inconsistent sub-records.
func Validate(db *Database, opts ValidateOptions) *ValidationReport {
	return uls.Validate(db, opts)
}

// CorridorBounds returns the Chicago–New Jersey corridor bounding box
// (the four data centers padded by 2°), for bounds-checked validation.
func CorridorBounds() Bounds { return synth.CorridorBounds() }

// WriteBulk writes a database in the ULS bulk interchange format.
func WriteBulk(w io.Writer, db *Database) error { return uls.WriteBulk(w, db) }

// ParseDate parses MM/DD/YYYY (FCC style) or YYYY-MM-DD dates.
func ParseDate(s string) (Date, error) { return uls.ParseDate(s) }

// Reconstruct rebuilds one licensee's network as of a date, attaching
// fiber tails to the given data centers (§2.3).
func Reconstruct(db *Database, licensee string, date Date, dcs []DataCenter, opts Options) (*Network, error) {
	return core.Reconstruct(db, licensee, date, dcs, opts)
}

// ConnectedNetworks reproduces a Table 1 row set: every licensee with an
// end-to-end route on the path at the date, ordered by latency.
func ConnectedNetworks(db *Database, date Date, path Path, opts Options) ([]NetworkSummary, error) {
	return core.ConnectedNetworksVia(core.DirectProvider(db), date, path, opts)
}

// RankNetworks reproduces Table 2: the fastest networks per path.
func RankNetworks(db *Database, date Date, paths []Path, topN int, opts Options) ([]PathRanking, error) {
	return core.RankNetworksVia(core.DirectProvider(db), date, paths, topN, opts)
}

// Evolution reproduces the Figs 1–2 trajectories for one licensee.
func Evolution(db *Database, licensee string, path Path, dates []Date, opts Options) ([]EvolutionPoint, error) {
	return core.EvolutionVia(core.DirectProvider(db), licensee, path, dates, opts)
}

// PaperSampleDates returns January-1 samples (April 1 for 2020), as the
// paper's longitudinal figures use.
func PaperSampleDates(firstYear, lastYear int) []Date {
	return core.PaperSampleDates(firstYear, lastYear)
}
