package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hftnetview/internal/uls"
)

// Delta shipping & resumable transfer.
//
// The staging area is the only way a shipped generation enters a
// store. A whole-generation download in one shot would lose every byte
// of progress to a kill, partition, or slow link mid-pull, and would
// re-fetch segments the replica already holds as part of an earlier
// generation. Staging avoids both:
//
//	dir/staging/<gen-000007>/
//	  MANIFEST.bin      the incoming manifest, verbatim, pinned first
//	  seg-0003.dat      complete-and-verified segment
//	  seg-0007.dat.part in-progress partial (never trusted)
//
// The staging directory survives process restarts deliberately: it is
// not swept by Open/Close (unlike tmp-gen-*), so a replica killed
// mid-pull resumes where it stopped. The area keeps no other record:
// the pinned manifest says which pull it holds, and a file under a
// segment's final name is that segment's verified bytes. A segment
// gets its final name only after CheckSegment passed — exact size,
// then SHA-256 against the manifest entry — and the rename is made
// durable by a directory sync. So every crash window is safe:
//
//	crash mid-pin-write   → the pin does not hold the incoming bytes,
//	                        so the next open starts the area over;
//	crash mid-.part-write → the partial is resumed by a ranged fetch
//	                        and never trusted until the whole-file
//	                        digest passes;
//	crash after a rename  → the final-named file is re-hashed at the
//	                        next open and adopted iff it matches the
//	                        manifest.
//
// OpenStaging re-verifies everything it adopts by re-hashing the bytes
// on disk, so resume never trusts state it cannot prove.
//
// Segment reuse is what makes shipping delta-based: any segment of the
// incoming manifest whose (SHA-256, size) already exists in a local
// committed generation — or under its final name in another staging
// area — is hard-linked (copy fallback) into staging, re-hashed, and
// never fetched. Successive generations that share most of their
// corpus ship only the changed segments over the wire.
//
// A staging area is abandoned only when its pin differs from the
// incoming manifest bytes for its generation id (the source
// re-published a different id, or a promotion moved the branch): same
// id + same manifest bytes always resumes. Opening a staging area for
// a new id harvests digest-matching segments from, then removes, any
// older staging debris, so at most one staging directory survives a
// pull cycle; GC sweeps staging dirs whose generation is already
// committed.

// stagingRootName is the store subdirectory holding per-pull staging
// areas. Like quarantine/, it is invisible to Load, List, Fsck, and the
// temp sweeps.
const stagingRootName = "staging"

const (
	stagingManifestFile = "MANIFEST.bin"
	partialSuffix       = ".part"
)

func stagingDirName(id int64) string { return genDirName(id) }

// parseStagingID extracts the generation id from a staging dir name.
func parseStagingID(name string) int64 { return parseGenDirID(name) }

// Staging is one in-progress generation pull: a durable, resumable
// download area for the segments one manifest promises. Not safe for
// concurrent use; one puller drives one Staging at a time.
type Staging struct {
	st            *Store
	dir           string
	m             *manifest
	manifestBytes []byte

	verified map[string]bool   // segment name -> verified on disk under its final name
	origins  map[string]string // segment name -> fetched | resumed | reused
	writer   *StagingWriter    // at most one open partial writer
	closed   bool
}

// OpenStaging opens (or resumes) the staging area for one shipped
// manifest. The manifest bytes are self-verified first; a staging
// directory whose pinned MANIFEST.bin holds other bytes for the same
// generation id is abandoned and restarted, one holding these exact
// bytes is resumed with every final-named segment re-hashed and
// adopted. Older staging areas (other generation ids) are harvested
// for digest-matching segments and removed. A generation this store
// already committed returns os.ErrExist.
func (s *Store) OpenStaging(manifestBytes []byte) (*Staging, error) {
	m, err := parseManifestBytes(manifestBytes)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrVerify, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if _, err := os.Stat(filepath.Join(s.dir, manifestName(m.Generation))); err == nil {
		return nil, fmt.Errorf("store: generation %d already installed: %w", m.Generation, os.ErrExist)
	}

	stg := &Staging{
		st:            s,
		dir:           filepath.Join(s.dir, stagingRootName, stagingDirName(m.Generation)),
		m:             m,
		manifestBytes: append([]byte(nil), manifestBytes...),
		verified:      make(map[string]bool),
		origins:       make(map[string]string),
	}

	// A prior staging area for this id resumes iff its pin holds these
	// exact manifest bytes; anything else — a different branch, a
	// re-publish, a torn pin — starts over.
	if pinned, err := os.ReadFile(filepath.Join(stg.dir, stagingManifestFile)); err == nil &&
		bytes.Equal(pinned, manifestBytes) {
		stg.adoptSurvivors()
	} else {
		os.RemoveAll(stg.dir)
		if err := os.MkdirAll(stg.dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating staging dir: %w", err)
		}
		if err := s.writeFileSync(filepath.Join(stg.dir, stagingManifestFile), manifestBytes); err != nil {
			return nil, err
		}
	}

	// Delta reuse: harvest digest-matching segments from committed
	// generations and older staging debris, then drop the debris.
	stg.reuseAll()
	s.sweepStagingLocked(m.Generation)
	return stg, nil
}

// adoptSurvivors re-verifies what a prior pull of this generation left
// behind: every final-named segment file is re-hashed against the
// manifest and adopted iff it matches; anything else final-named is
// deleted (its bytes are not the ones the manifest pins, so they are
// never trusted). Partials are left alone: they are resumed by ranged
// fetches and verified at completion.
func (g *Staging) adoptSurvivors() {
	for _, si := range g.m.Segments {
		path := filepath.Join(g.dir, si.Name)
		err := checkSegmentFile(path, si)
		if err == nil {
			g.verified[si.Name] = true
			g.origins[si.Name] = "resumed"
			continue
		}
		if errors.Is(err, ErrVerify) {
			os.Remove(path) // final-named but unverifiable: never trust it
		}
	}
}

// reuseAll hard-links every still-missing segment whose digest already
// exists locally — in a committed generation or under its final name
// in an older staging area — re-hashing each link before adopting it.
func (g *Staging) reuseAll() {
	var index map[segDigest]string
	for _, si := range g.Missing() {
		if index == nil {
			index = g.st.localSegmentIndexLocked()
		}
		if src, ok := index[digestOf(si)]; ok {
			_ = g.adoptLocal(src, si) // a failed link or check leaves it missing
		}
	}
}

// ReuseLocal retries local reuse for one still-missing segment (the
// puller calls it right before fetching, in case a concurrent install
// landed the digest since OpenStaging). It reports whether the segment
// is now verified locally.
func (g *Staging) ReuseLocal(si SegmentInfo) bool {
	if g.verified[si.Name] {
		return true
	}
	g.st.mu.Lock()
	index := g.st.localSegmentIndexLocked()
	g.st.mu.Unlock()
	src, ok := index[digestOf(si)]
	return ok && g.adoptLocal(src, si) == nil
}

// adoptLocal links (or copies) src into the staging area under a temp
// name, re-hashes it against the manifest entry, and promotes it to
// verified exactly like a fetched segment: rename, then dir sync.
func (g *Staging) adoptLocal(src string, si SegmentInfo) error {
	tmp := filepath.Join(g.dir, si.Name+".reuse")
	os.Remove(tmp)
	if err := g.st.linkOrCopy(src, tmp); err != nil {
		return err
	}
	if err := checkSegmentFile(tmp, si); err != nil {
		os.Remove(tmp)
		return err
	}
	return g.promote(tmp, si, "reused")
}

// promote renames a fully verified temp/partial file to its final
// segment name and syncs the directory: from then on the final name is
// the record that the segment was verified.
func (g *Staging) promote(from string, si SegmentInfo, origin string) error {
	final := filepath.Join(g.dir, si.Name)
	if err := os.Rename(from, final); err != nil {
		return fmt.Errorf("store: promoting staged segment: %w", err)
	}
	if err := syncDir(g.dir); err != nil {
		return fmt.Errorf("store: syncing %s: %w", g.dir, err)
	}
	g.verified[si.Name] = true
	g.origins[si.Name] = origin
	return callNameFP(g.st.stagingFP.AfterVerify, si.Name)
}

// linkOrCopy hard-links src to dst, falling back to a durable byte
// copy where links are unsupported (e.g. across filesystems). Segments
// are immutable once committed (repair replaces by rename, never in
// place), so shared inodes are safe.
func (s *Store) linkOrCopy(src, dst string) error {
	if err := os.Link(src, dst); err == nil {
		return nil
	}
	return s.copyFile(src, dst)
}

// copyFile copies src to dst and fsyncs the copy: callers promote it
// as verified or commit it after only a directory sync, so its bytes
// must already be on disk.
func (s *Store) copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return s.writeFileSync(dst, data)
}

// Origin reports where one verified segment's bytes came from:
// "fetched" (completed from a partial this staging wrote), "resumed"
// (adopted from a prior interrupted pull of the same generation), or
// "reused" (satisfied from local disk by digest). Empty for segments
// not yet verified.
func (g *Staging) Origin(name string) string { return g.origins[name] }

// Verified reports whether one segment is complete-and-verified.
func (g *Staging) Verified(name string) bool { return g.verified[name] }

// PartialSize returns the byte length of a segment's in-progress
// partial (0 when none exists) — the offset a ranged fetch resumes at.
func (g *Staging) PartialSize(name string) int64 {
	fi, err := os.Stat(filepath.Join(g.dir, name+partialSuffix))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// ResetPartial discards a segment's partial, forcing the next fetch to
// start from byte zero (a poisoned resume, or a source that ignored the
// range request).
func (g *Staging) ResetPartial(name string) error {
	g.closeWriter()
	err := os.Remove(filepath.Join(g.dir, name+partialSuffix))
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// StagingWriter appends fetched bytes to one segment's partial file.
type StagingWriter struct {
	g    *Staging
	name string
	f    *os.File
	off  int64
}

// SegmentWriter opens (or continues) the partial for one manifest
// segment; writes append at the current partial size.
func (g *Staging) SegmentWriter(si SegmentInfo) (*StagingWriter, error) {
	if g.closed {
		return nil, ErrClosed
	}
	if g.verified[si.Name] {
		return nil, fmt.Errorf("store: segment %s already verified", si.Name)
	}
	g.closeWriter()
	path := filepath.Join(g.dir, si.Name+partialSuffix)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening partial %s: %w", si.Name, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &StagingWriter{g: g, name: si.Name, f: f, off: fi.Size()}
	g.writer = w
	return w, nil
}

// Offset is the byte position the next Write lands at.
func (w *StagingWriter) Offset() int64 { return w.off }

func (w *StagingWriter) Write(p []byte) (int, error) {
	if err := w.g.st.stagingFP.midWrite(w.name, w.off); err != nil {
		return 0, err
	}
	n, err := w.f.Write(p)
	w.off += int64(n)
	return n, err
}

// Close closes the partial file without verifying it; the bytes stay
// on disk for a later resume.
func (w *StagingWriter) Close() error {
	if w.g.writer == w {
		w.g.writer = nil
	}
	return w.f.Close()
}

func (g *Staging) closeWriter() {
	if g.writer != nil {
		g.writer.Close()
	}
}

// CompleteSegment fsyncs one segment's partial file and holds it to
// CheckSegment — and only then promotes it to its final name. A partial that fails is deleted (resume must never
// trust it) and the error wraps ErrVerify so the caller re-fetches
// from byte zero.
func (g *Staging) CompleteSegment(si SegmentInfo) error {
	if g.verified[si.Name] {
		return nil
	}
	g.closeWriter()
	path := filepath.Join(g.dir, si.Name+partialSuffix)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: completing %s: %w", si.Name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing partial %s: %w", si.Name, err)
	}
	err = checkSegmentFrom(f, si)
	f.Close()
	if errors.Is(err, ErrVerify) {
		os.Remove(path)
	}
	if err != nil {
		return err
	}
	return g.promote(path, si, "fetched")
}

// Missing returns the manifest segments not yet verified, in manifest
// order — the fetch work list.
func (g *Staging) Missing() []SegmentInfo {
	var out []SegmentInfo
	for _, si := range g.m.Segments {
		if !g.verified[si.Name] {
			out = append(out, si)
		}
	}
	return out
}

// Close releases file handles. The staging directory stays on disk for
// a later resume unless the generation was committed by InstallStaged.
func (g *Staging) Close() {
	if g.closed {
		return
	}
	g.closed = true
	g.closeWriter()
}

// InstallStaged is the only way a shipped generation is committed:
// every manifest segment must be verified, the assembled set is
// deep-verified exactly like Fsck (rebuilding the database the caller
// publishes), and the commit uses Save's protocol — segment dir
// rename, then manifest write + atomic rename, both fsynced. On
// success the staging area is removed; on any failure it is left
// intact for resume.
func (s *Store) InstallStaged(g *Staging) (*GenInfo, *uls.Database, error) {
	if missing := g.Missing(); len(missing) > 0 {
		return nil, nil, fmt.Errorf("store: staging for generation %d is incomplete: %d segment(s) unverified",
			g.m.Generation, len(missing))
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, nil, ErrClosed
	}
	if _, err := os.Stat(filepath.Join(s.dir, manifestName(g.m.Generation))); err == nil {
		return nil, nil, fmt.Errorf("store: generation %d already installed: %w", g.m.Generation, os.ErrExist)
	}

	// Assemble the generation directory from the staged segments by
	// hard link (copy fallback): the staging area keeps its files until
	// the commit lands, so a crash mid-assembly costs nothing.
	id := g.m.Generation
	tmpDir := filepath.Join(s.dir, "tmp-"+genDirName(id))
	final := filepath.Join(s.dir, manifestName(id))
	os.RemoveAll(tmpDir)
	if err := os.Mkdir(tmpDir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("store: creating temp dir: %w", err)
	}
	fail := func(err error) (*GenInfo, *uls.Database, error) {
		os.RemoveAll(tmpDir)
		os.Remove(final + ".tmp")
		return nil, nil, err
	}
	for _, si := range g.m.Segments {
		if err := s.linkOrCopy(filepath.Join(g.dir, si.Name), filepath.Join(tmpDir, si.Name)); err != nil {
			return fail(fmt.Errorf("store: assembling staged generation: %w", err))
		}
	}

	// The same deep scrub Fsck runs — and the database rebuild the
	// caller needs to publish the generation.
	db, err := verifyGenerationDir(g.m, tmpDir, true)
	if err != nil {
		return fail(fmt.Errorf("%w: %v", ErrVerify, err))
	}

	// Commit: rename the segment dir into place, then write and
	// atomically rename the manifest, each made durable with a
	// directory sync.
	if err := os.Rename(tmpDir, filepath.Join(s.dir, genDirName(id))); err != nil {
		return fail(fmt.Errorf("store: publishing segment dir: %w", err))
	}
	if err := syncDir(s.dir); err != nil {
		return fail(fmt.Errorf("store: syncing %s: %w", s.dir, err))
	}
	if err := s.writeFileSync(final+".tmp", g.manifestBytes); err != nil {
		return fail(err)
	}
	if err := os.Rename(final+".tmp", final); err != nil {
		return fail(fmt.Errorf("store: committing manifest: %w", err))
	}
	if err := syncDir(s.dir); err != nil {
		return fail(fmt.Errorf("store: syncing %s: %w", s.dir, err))
	}
	gi := g.m.info()

	g.Close()
	os.RemoveAll(g.dir)
	// Removing the last staging area leaves an empty staging/ root;
	// harmless, but tidy stores are easier to reason about.
	os.Remove(filepath.Join(s.dir, stagingRootName))
	return &gi, db, nil
}

// segDigest is a segment's content address: equal digests are equal
// bytes, whatever the segment's name or generation.
type segDigest struct {
	sha256 string
	bytes  int64
}

func digestOf(si SegmentInfo) segDigest { return segDigest{si.SHA256, si.Bytes} }

// localSegmentIndexLocked maps the digest of every segment in every
// committed generation — plus every final-named segment in staging
// areas — to its on-disk path. Caller holds s.mu.
func (s *Store) localSegmentIndexLocked() map[segDigest]string {
	index := make(map[segDigest]string)
	ids, err := s.manifestIDs()
	if err != nil {
		return index
	}
	// Oldest first so the newest copy of a digest wins the map.
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		m, err := s.loadManifest(id)
		if err != nil {
			continue
		}
		for _, si := range m.Segments {
			index[digestOf(si)] = filepath.Join(s.dir, genDirName(id), si.Name)
		}
	}
	// Final-named segments in staging areas (an abandoned pull's
	// completed work; adoptLocal re-hashes whatever it links).
	root := filepath.Join(s.dir, stagingRootName)
	ents, err := os.ReadDir(root)
	if err != nil {
		return index
	}
	for _, e := range ents {
		if !e.IsDir() || parseStagingID(e.Name()) <= 0 {
			continue
		}
		sdir := filepath.Join(root, e.Name())
		for _, si := range stagedSegments(sdir) {
			index[digestOf(si)] = filepath.Join(sdir, si.Name)
		}
	}
	return index
}

// stagedSegments returns the segments of one staging area's pinned
// manifest that sit on disk under their final names at their manifest
// size — what its pull verified, short of the re-hash every adoption
// still runs. An area without a readable pin has none.
func stagedSegments(sdir string) []SegmentInfo {
	data, err := os.ReadFile(filepath.Join(sdir, stagingManifestFile))
	if err != nil {
		return nil
	}
	m, err := parseManifestBytes(data)
	if err != nil {
		return nil
	}
	var out []SegmentInfo
	for _, si := range m.Segments {
		if fi, err := os.Stat(filepath.Join(sdir, si.Name)); err == nil && fi.Size() == si.Bytes {
			out = append(out, si)
		}
	}
	return out
}

// sweepStagingLocked removes staging areas other than keep's — older
// pulls abandoned mid-flight (their reusable segments were already
// harvested) and pulls of generations since committed. keep <= 0
// removes staging areas only for committed generations (the GC rule).
// Caller holds s.mu.
func (s *Store) sweepStagingLocked(keep int64) {
	root := filepath.Join(s.dir, stagingRootName)
	ents, err := os.ReadDir(root)
	if err != nil {
		return
	}
	for _, e := range ents {
		id := parseStagingID(e.Name())
		switch {
		case id <= 0:
			// Unrecognized debris under staging/: remove.
		case keep > 0 && id == keep:
			continue
		case keep <= 0:
			// GC rule: a staging area for a committed generation is
			// garbage; an uncommitted one may be an in-flight pull.
			if _, err := os.Stat(filepath.Join(s.dir, manifestName(id))); err != nil {
				continue
			}
		}
		os.RemoveAll(filepath.Join(root, e.Name()))
	}
	if rest, err := os.ReadDir(root); err == nil && len(rest) == 0 {
		os.Remove(root)
	}
}

// StagingIDs lists the generation ids with a staging area on disk —
// the soak tests' staging-leak probe.
func (s *Store) StagingIDs() ([]int64, error) {
	ents, err := os.ReadDir(filepath.Join(s.dir, stagingRootName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var ids []int64
	for _, e := range ents {
		if id := parseStagingID(e.Name()); id > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// StagingReport describes one staging area without opening it: which
// segments of its pinned manifest sit under their final names at their
// manifest size, and the partial sizes of in-progress segments.
type StagingReport struct {
	Generation int64
	Verified   []string
	Partial    map[string]int64
}

// StagingReportFor inspects one staging area read-only (tests and
// tooling; returns os.ErrNotExist when none exists for id).
func (s *Store) StagingReportFor(id int64) (*StagingReport, error) {
	dir := filepath.Join(s.dir, stagingRootName, stagingDirName(id))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rep := &StagingReport{Generation: id, Partial: make(map[string]int64)}
	for _, si := range stagedSegments(dir) {
		rep.Verified = append(rep.Verified, si.Name)
	}
	for _, e := range ents {
		if name, ok := strings.CutSuffix(e.Name(), partialSuffix); ok {
			if fi, err := e.Info(); err == nil {
				rep.Partial[name] = fi.Size()
			}
		}
	}
	sort.Strings(rep.Verified)
	return rep, nil
}
