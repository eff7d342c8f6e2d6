// Package store is the crash-safe, generation-oriented persistence
// layer for the parsed corpus: the always-on query service's answer to
// "a restart cold-rebuilds eight years of snapshots from bulk text and
// a crash mid-write tears the only artifact".
//
// Each Save publishes one immutable generation:
//
//	dir/
//	  MANIFEST-000007.json   commit record (JSON line + its SHA-256)
//	  gen-000007/            segment directory
//	    seg-0000.dat         framed record blocks, CRC32C per block
//	  tmp-gen-000008/        in-progress write (never read, swept)
//
// Writes go segment-by-segment into a temp directory and are fsynced;
// the segment directory is renamed into place; then the manifest —
// naming every segment with its size and SHA-256 — is written to a
// temp file, fsynced, and atomically renamed. The manifest rename is
// the commit point: before it the generation does not exist, after it
// the generation is durable. There is no in-place mutation anywhere,
// so no crash can tear a published generation — it can only corrupt
// bytes at rest, which the per-block CRC32C and per-segment SHA-256
// catch on the next load.
//
// Recovery (Load) scans manifests newest-first, fully verifies each
// candidate — manifest self-checksum, segment sizes and digests, block
// CRCs, strict license validation — and serves the first generation
// that passes whole, reporting exactly which newer generations were
// discarded and why. A Store is safe for concurrent use by one
// process; concurrent writers from multiple processes are out of
// scope.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hftnetview/internal/uls"
)

// storeVersion is the on-disk layout version recorded in manifests.
const storeVersion = 1

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// ErrNoGeneration is returned by Load when no generation verifies —
// an empty store, or one whose every generation is corrupt.
var ErrNoGeneration = errors.New("store: no verified generation")

// Defaults for segment sizing; override with WithSegmentTarget /
// WithBlockLicenses (tests shrink them to exercise multi-segment
// generations on small corpora).
const (
	defaultSegmentTarget = 256 << 10 // start a new segment past 256 KiB
	defaultBlockLicenses = 64        // licenses per CRC-framed block
)

// SegmentInfo is one segment as recorded in a manifest.
type SegmentInfo struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	Blocks int    `json:"blocks"`
	SHA256 string `json:"sha256"`
}

// manifest is the commit record of one generation.
type manifest struct {
	Version      int           `json:"version"`
	Codec        int           `json:"codec"`
	Generation   int64         `json:"generation"`
	CreatedAt    time.Time     `json:"created_at"`
	Source       string        `json:"source"`
	Licenses     int           `json:"licenses"`
	CorpusSHA256 string        `json:"corpus_sha256"`
	Segments     []SegmentInfo `json:"segments"`
}

// GenInfo is the public description of one persisted generation.
type GenInfo struct {
	ID           int64
	CreatedAt    time.Time
	Source       string
	Licenses     int
	Bytes        int64 // total segment bytes
	Segments     []SegmentInfo
	CorpusSHA256 string
}

func (m *manifest) info() GenInfo {
	gi := GenInfo{
		ID:           m.Generation,
		CreatedAt:    m.CreatedAt,
		Source:       m.Source,
		Licenses:     m.Licenses,
		Segments:     m.Segments,
		CorpusSHA256: m.CorpusSHA256,
	}
	for _, s := range m.Segments {
		gi.Bytes += s.Bytes
	}
	return gi
}

// DiscardedGeneration records one generation recovery refused to serve.
type DiscardedGeneration struct {
	ID     int64
	Reason string
}

// RecoveryReport is the account of one Load: how many manifests were
// scanned, which generation was served, and exactly what was discarded.
type RecoveryReport struct {
	Scanned   int
	Served    int64 // generation id served; 0 when nothing verified
	Discarded []DiscardedGeneration
}

// String renders the report in one terminal-friendly block.
func (r *RecoveryReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovery: scanned=%d served=%d discarded=%d\n",
		r.Scanned, r.Served, len(r.Discarded))
	for _, d := range r.Discarded {
		fmt.Fprintf(&b, "  discarded gen %d: %s\n", d.ID, d.Reason)
	}
	return b.String()
}

// Store is a generation store rooted at one directory.
type Store struct {
	dir           string
	fp            Failpoints
	stagingFP     StagingFailpoints
	segmentTarget int
	blockLicenses int

	mu     sync.Mutex // serializes Save/GC/Close; Load is read-only
	closed bool
}

// Option configures a Store.
type Option func(*Store)

// WithFailpoints installs crash-injection hooks (tests only).
func WithFailpoints(fp Failpoints) Option {
	return func(s *Store) { s.fp = fp }
}

// WithStagingFailpoints installs crash-injection hooks on the staging
// area's resumable-download protocol (tests only).
func WithStagingFailpoints(fp StagingFailpoints) Option {
	return func(s *Store) { s.stagingFP = fp }
}

// WithSegmentTarget sets the byte size past which Save starts a new
// segment file.
func WithSegmentTarget(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.segmentTarget = n
		}
	}
}

// WithBlockLicenses sets how many licenses share one CRC-framed block.
func WithBlockLicenses(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.blockLicenses = n
		}
	}
}

// Open roots a store at dir, creating it if needed and sweeping temp
// debris (in-progress segment directories and manifest temp files)
// left by a previous crash. Published generations are never touched.
func Open(dir string, opts ...Option) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:           dir,
		segmentTarget: defaultSegmentTarget,
		blockLicenses: defaultBlockLicenses,
	}
	for _, o := range opts {
		o(s)
	}
	s.sweepTemp()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Close flushes the store: it waits for any in-flight Save to finish,
// sweeps temp debris, and marks the store closed. Safe to call more
// than once.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.sweepTemp()
	return nil
}

// sweepTemp removes in-progress artifacts: tmp-gen-* directories and
// MANIFEST-*.json.tmp files. They are never read by recovery, so
// removing them is always safe. KF-* files are replay keyframe
// sidecars earlier releases wrote next to each generation; nothing
// reads them any more, so they go too.
func (s *Store) sweepTemp() {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "tmp-gen-") ||
			(strings.HasPrefix(name, "MANIFEST-") && strings.HasSuffix(name, ".json.tmp")) ||
			strings.HasPrefix(name, "KF-") {
			os.RemoveAll(filepath.Join(s.dir, name))
		}
	}
}

func manifestName(id int64) string { return fmt.Sprintf("MANIFEST-%06d.json", id) }
func genDirName(id int64) string   { return fmt.Sprintf("gen-%06d", id) }

// parseManifestID extracts the generation id from a committed manifest
// file name, or -1.
func parseManifestID(name string) int64 {
	if !strings.HasPrefix(name, "MANIFEST-") || !strings.HasSuffix(name, ".json") {
		return -1
	}
	id, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "MANIFEST-"), ".json"), 10, 64)
	if err != nil || id <= 0 {
		return -1
	}
	return id
}

// parseGenDirID extracts the generation id from a segment directory
// name, or -1.
func parseGenDirID(name string) int64 {
	if !strings.HasPrefix(name, "gen-") {
		return -1
	}
	id, err := strconv.ParseInt(strings.TrimPrefix(name, "gen-"), 10, 64)
	if err != nil || id <= 0 {
		return -1
	}
	return id
}

// manifestIDs returns the committed generation ids, descending.
func (s *Store) manifestIDs() ([]int64, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", s.dir, err)
	}
	var ids []int64
	for _, e := range ents {
		if id := parseManifestID(e.Name()); id > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] > ids[j] })
	return ids, nil
}

// nextID picks the next generation id: one past anything on disk in
// any state (committed manifest, orphan segment directory, temp dir),
// so a crashed write can never collide with a later one.
func (s *Store) nextID() (int64, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("store: reading %s: %w", s.dir, err)
	}
	var max int64
	for _, e := range ents {
		name := e.Name()
		if id := parseManifestID(name); id > max {
			max = id
		}
		if id := parseGenDirID(name); id > max {
			max = id
		}
		if rest, ok := strings.CutPrefix(name, "tmp-"); ok {
			if id := parseGenDirID(rest); id > max {
				max = id
			}
		}
	}
	return max + 1, nil
}

// syncDir fsyncs a directory so renames and creations in it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Save publishes db as a new generation and returns its description.
// On an ordinary error the in-progress temp directory is removed; on an
// injected ErrFailpoint it is left in place, exactly like a crash.
func (s *Store) Save(db *uls.Database, source string) (*GenInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	id, err := s.nextID()
	if err != nil {
		return nil, err
	}
	tmpDir := filepath.Join(s.dir, "tmp-"+genDirName(id))
	if err := os.Mkdir(tmpDir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating temp dir: %w", err)
	}
	gi, err := s.save(db, source, id, tmpDir)
	if err != nil && !errors.Is(err, ErrFailpoint) {
		os.RemoveAll(tmpDir)
		os.Remove(filepath.Join(s.dir, manifestName(id)+".tmp"))
	}
	return gi, err
}

func (s *Store) save(db *uls.Database, source string, id int64, tmpDir string) (*GenInfo, error) {
	licenses := db.All()
	m := &manifest{
		Version:    storeVersion,
		Codec:      codecVersion,
		Generation: id,
		CreatedAt:  time.Now().UTC(),
		Source:     source,
		Licenses:   len(licenses),
	}

	// Encode licenses block by block, rolling to a new segment file
	// whenever the current one passes the target size.
	seg := append([]byte(nil), segMagic...)
	segBlocks := 0
	flushSegment := func() error {
		if segBlocks == 0 {
			return nil
		}
		name := fmt.Sprintf("seg-%04d.dat", len(m.Segments))
		path := filepath.Join(tmpDir, name)
		if err := s.writeFileSync(path, seg); err != nil {
			return err
		}
		m.Segments = append(m.Segments, SegmentInfo{
			Name:   name,
			Bytes:  int64(len(seg)),
			Blocks: segBlocks,
			SHA256: segmentDigest(seg),
		})
		seg = append(seg[:0], segMagic...)
		segBlocks = 0
		return nil
	}
	for i := 0; i < len(licenses); i += s.blockLicenses {
		end := min(i+s.blockLicenses, len(licenses))
		payload := encodeBlock(licenses[i:end])
		seg = appendBlockFrame(seg, payload)
		segBlocks++
		if len(seg) >= s.segmentTarget {
			if err := flushSegment(); err != nil {
				return nil, err
			}
		}
	}
	if err := flushSegment(); err != nil {
		return nil, err
	}
	m.CorpusSHA256 = corpusDigest(m.Segments)

	if err := callFP(s.fp.BeforeManifest); err != nil {
		return nil, err
	}

	// Publish the segment directory, then commit with the manifest
	// rename.
	genDir := filepath.Join(s.dir, genDirName(id))
	if err := os.Rename(tmpDir, genDir); err != nil {
		return nil, fmt.Errorf("store: publishing segment dir: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return nil, fmt.Errorf("store: syncing %s: %w", s.dir, err)
	}

	body, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("store: encoding manifest: %w", err)
	}

	final := filepath.Join(s.dir, manifestName(id))
	tmp := final + ".tmp"
	if err := s.writeFileSync(tmp, sealManifest(body)); err != nil {
		return nil, err
	}
	if s.fp.MidRename != nil {
		if err := s.fp.MidRename(tmp, final); err != nil {
			return nil, err
		}
	}
	if err := os.Rename(tmp, final); err != nil {
		return nil, fmt.Errorf("store: committing manifest: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return nil, fmt.Errorf("store: syncing %s: %w", s.dir, err)
	}
	if s.fp.AfterPublish != nil {
		if err := s.fp.AfterPublish(genDir, final); err != nil {
			return nil, err
		}
	}
	gi := m.info()
	return &gi, nil
}

// writeFileSync writes data to path and fsyncs it, threading the
// BeforeFsync failpoint between the write and the sync — the window in
// which a real crash tears the file.
func (s *Store) writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	if s.fp.BeforeFsync != nil {
		if err := s.fp.BeforeFsync(path); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: closing %s: %w", path, err)
	}
	return nil
}

// loadManifest reads and self-verifies one committed manifest.
func (s *Store) loadManifest(id int64) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, manifestName(id)))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: generation %d manifest", ErrGenGone, id)
		}
		return nil, fmt.Errorf("reading manifest: %w", err)
	}
	m, err := parseManifestBytes(data)
	if err != nil {
		return nil, err
	}
	if m.Generation != id {
		return nil, fmt.Errorf("manifest names generation %d, file says %d", m.Generation, id)
	}
	return m, nil
}

// sealManifest frames a manifest's JSON body as it is written and
// shipped: the body line, then the hex SHA-256 of that line.
func sealManifest(body []byte) []byte {
	sum := sha256.Sum256(body)
	return fmt.Appendf(nil, "%s\n%s\n", body, hex.EncodeToString(sum[:]))
}

// parseManifestBytes self-verifies and decodes one manifest's raw bytes
// (the exact content of a MANIFEST-*.json file — also the generation
// shipping wire format). It is the one place a manifest's shape is
// checked: a positive generation id, and only segment names Save can
// write, so no consumer ever joins an untrusted name onto a path.
func parseManifestBytes(data []byte) (*manifest, error) {
	line, rest, ok := strings.Cut(string(data), "\n")
	if !ok {
		return nil, errors.New("manifest missing checksum line")
	}
	sum := sha256.Sum256([]byte(line))
	if strings.TrimSpace(rest) != hex.EncodeToString(sum[:]) {
		return nil, errors.New("manifest body does not match its checksum")
	}
	var m manifest
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		return nil, fmt.Errorf("decoding manifest: %w", err)
	}
	if m.Version != storeVersion {
		return nil, fmt.Errorf("store layout version %d (this binary reads %d)", m.Version, storeVersion)
	}
	if m.Codec != codecVersion {
		return nil, fmt.Errorf("codec version %d (this binary reads %d)", m.Codec, codecVersion)
	}
	if m.Generation <= 0 {
		return nil, fmt.Errorf("manifest names generation %d", m.Generation)
	}
	for _, si := range m.Segments {
		if !segNameRE.MatchString(si.Name) {
			return nil, fmt.Errorf("manifest names segment %q", si.Name)
		}
	}
	return &m, nil
}

// corpusDigest is the generation-level digest recorded in the
// manifest: the SHA-256 over the ordered per-segment SHA-256 values.
// Verifying it costs nothing beyond the per-segment hashing recovery
// already does (no second pass over the data), yet it still pins the
// exact segment set and order the generation was published with.
func corpusDigest(segs []SegmentInfo) string {
	h := sha256.New()
	for _, si := range segs {
		h.Write([]byte(si.SHA256))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verifyGeneration verifies one generation and rebuilds its database.
// Segments are verified and decoded in parallel — every segment's
// exact size, every block CRC32C, every license decoded — then
// inserted in one duplicate-checked bulk step; finally the license
// count and corpus digest are checked against the manifest. Any
// failure poisons the generation whole — recovery never serves a
// partial corpus.
//
// The boot path (deep=false) trusts that chain: matching checksums
// over bytes Save encoded from an already-validated Database mean the
// licenses decode back semantically valid, so neither the whole-file
// SHA-256 nor per-license re-validation runs — both were the warm
// boot's biggest costs. Fsck passes deep=true to run them anyway,
// catching hash-level corruption a CRC could theoretically be collided
// past and codec bugs that byte integrity cannot see.
func (s *Store) verifyGeneration(m *manifest, deep bool) (*uls.Database, error) {
	return verifyGenerationDir(m, filepath.Join(s.dir, genDirName(m.Generation)), deep)
}

// verifyGenerationDir is verifyGeneration against an explicit segment
// directory — the committed gen-N dir on the boot path, a temp dir full
// of just-downloaded segments on the replica install path.
func verifyGenerationDir(m *manifest, genDir string, deep bool) (*uls.Database, error) {
	type segResult struct {
		ls  []*uls.License
		err error
	}
	results := make([]segResult, len(m.Segments))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, si := range m.Segments {
		wg.Add(1)
		go func(i int, si SegmentInfo) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			blocks, err := readSegment(filepath.Join(genDir, si.Name), si, deep)
			if err != nil {
				results[i].err = err
				return
			}
			if len(blocks) != si.Blocks {
				results[i].err = fmt.Errorf("store: segment %s has %d blocks, manifest says %d",
					si.Name, len(blocks), si.Blocks)
				return
			}
			for _, payload := range blocks {
				ls, err := decodeBlock(payload)
				if err != nil {
					results[i].err = err
					return
				}
				results[i].ls = append(results[i].ls, ls...)
			}
		}(i, si)
	}
	wg.Wait()

	total := 0
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		total += len(r.ls)
	}
	all := make([]*uls.License, 0, total)
	for _, r := range results {
		all = append(all, r.ls...)
	}
	db := uls.NewDatabase()
	if err := db.AddBulk(all, uls.BulkAddOptions{TrustValidated: !deep}); err != nil {
		return nil, fmt.Errorf("store: rejected license: %w", err)
	}
	// Recomputing the corpus digest from the manifest's per-segment
	// entries pins the segment set and order the generation was
	// published with, without a pass over the data (the entries
	// themselves are covered by the manifest self-checksum; deep mode
	// additionally re-derived each from the segment bytes).
	if got := corpusDigest(m.Segments); got != m.CorpusSHA256 {
		return nil, fmt.Errorf("store: corpus SHA-256 mismatch (%s != %s)",
			got[:12], m.CorpusSHA256[:min(12, len(m.CorpusSHA256))])
	}
	if db.Len() != m.Licenses {
		return nil, fmt.Errorf("store: recovered %d licenses, manifest says %d", db.Len(), m.Licenses)
	}
	return db, nil
}

// Load recovers the newest fully-verified generation. The report is
// never nil and accounts for every newer generation that was discarded
// and why; err is ErrNoGeneration when nothing on disk verifies.
func (s *Store) Load() (*uls.Database, *GenInfo, *RecoveryReport, error) {
	rep := &RecoveryReport{}
	ids, err := s.manifestIDs()
	if err != nil {
		return nil, nil, rep, err
	}
	for _, id := range ids {
		rep.Scanned++
		m, err := s.loadManifest(id)
		if err != nil {
			rep.Discarded = append(rep.Discarded, DiscardedGeneration{ID: id, Reason: err.Error()})
			continue
		}
		db, err := s.verifyGeneration(m, false)
		if err != nil {
			rep.Discarded = append(rep.Discarded, DiscardedGeneration{ID: id, Reason: err.Error()})
			continue
		}
		rep.Served = id
		gi := m.info()
		return db, &gi, rep, nil
	}
	return nil, nil, rep, ErrNoGeneration
}

// List describes the committed generations, newest first, without
// verifying segment contents (manifest self-checksums are enforced;
// unreadable manifests are skipped).
func (s *Store) List() ([]GenInfo, error) {
	ids, err := s.manifestIDs()
	if err != nil {
		return nil, err
	}
	var out []GenInfo
	for _, id := range ids {
		m, err := s.loadManifest(id)
		if err != nil {
			out = append(out, GenInfo{ID: id, Source: "(unreadable: " + err.Error() + ")"})
			continue
		}
		out = append(out, m.info())
	}
	return out, nil
}

// FsckGeneration is one generation's verification verdict.
type FsckGeneration struct {
	ID       int64
	Info     GenInfo
	OK       bool
	Err      string
	Licenses int // licenses recovered during verification (0 when !OK)
}

// FsckReport is the outcome of a full store verification.
type FsckReport struct {
	Generations []FsckGeneration // newest first
	Orphans     []string         // segment dirs with no manifest, temp debris
}

// OK reports whether at least one generation verifies and none is
// corrupt.
func (r *FsckReport) OK() bool {
	if len(r.Generations) == 0 {
		return false
	}
	for _, g := range r.Generations {
		if !g.OK {
			return false
		}
	}
	return true
}

// Fsck verifies every committed generation end to end and inventories
// debris (orphan segment directories, leftover temp files).
func (s *Store) Fsck() (*FsckReport, error) {
	rep := &FsckReport{}
	ids, err := s.manifestIDs()
	if err != nil {
		return nil, err
	}
	manifested := make(map[int64]bool)
	for _, id := range ids {
		manifested[id] = true
		fg := FsckGeneration{ID: id}
		m, err := s.loadManifest(id)
		if err != nil {
			fg.Err = err.Error()
		} else {
			fg.Info = m.info()
			db, err := s.verifyGeneration(m, true)
			if err != nil {
				fg.Err = err.Error()
			} else {
				fg.OK = true
				fg.Licenses = db.Len()
			}
		}
		rep.Generations = append(rep.Generations, fg)
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: reading %s: %w", s.dir, err)
	}
	for _, e := range ents {
		name := e.Name()
		if id := parseGenDirID(name); id > 0 && !manifested[id] {
			rep.Orphans = append(rep.Orphans, name)
		}
		if strings.HasPrefix(name, "tmp-gen-") ||
			(strings.HasPrefix(name, "MANIFEST-") && strings.HasSuffix(name, ".json.tmp")) {
			rep.Orphans = append(rep.Orphans, name)
		}
	}
	sort.Strings(rep.Orphans)
	return rep, nil
}

// GC retains the newest keep generations and removes the rest, plus
// orphan segment directories and temp debris. If none of the kept
// generations verifies, GC extends the kept set downward until one
// does — it never deletes the last recoverable corpus. It returns the
// removed generation ids, descending.
func (s *Store) GC(keep int) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if keep < 1 {
		keep = 1
	}
	ids, err := s.manifestIDs()
	if err != nil {
		return nil, err
	}
	// Extend keep until the kept prefix contains a verified generation
	// (or we run out of generations to extend into).
	verified := func(id int64) bool {
		m, err := s.loadManifest(id)
		if err != nil {
			return false
		}
		_, err = s.verifyGeneration(m, false)
		return err == nil
	}
	cut := min(keep, len(ids))
	anyOK := false
	for _, id := range ids[:cut] {
		if verified(id) {
			anyOK = true
			break
		}
	}
	for !anyOK && cut < len(ids) {
		if verified(ids[cut]) {
			anyOK = true
		}
		cut++
	}
	var removed []int64
	for _, id := range ids[cut:] {
		if err := os.Remove(filepath.Join(s.dir, manifestName(id))); err != nil {
			return removed, fmt.Errorf("store: removing manifest %d: %w", id, err)
		}
		os.RemoveAll(filepath.Join(s.dir, genDirName(id)))
		removed = append(removed, id)
	}
	// Sweep orphans and temp debris.
	kept := make(map[int64]bool)
	for _, id := range ids[:cut] {
		kept[id] = true
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return removed, nil
	}
	for _, e := range ents {
		name := e.Name()
		if id := parseGenDirID(name); id > 0 && !kept[id] {
			os.RemoveAll(filepath.Join(s.dir, name))
		}
	}
	s.sweepTemp()
	// Staging areas for generations that have since been committed are
	// spent; uncommitted ones may be in-flight pulls and are kept.
	s.sweepStagingLocked(0)
	syncDir(s.dir)
	return removed, nil
}
