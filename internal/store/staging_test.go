package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hftnetview/internal/uls"
)

// fetchLog records every simulated wire fetch a staged pull performs:
// which segment, and from which byte offset. The crash-recovery
// assertions are all statements about this log — a verified segment
// must never be fetched again, a resumed partial must be fetched from
// exactly its surviving size.
type fetchLog struct {
	entries []fetchEntry
	// corrupt, when set, rewrites a segment's bytes in flight: the
	// wire faults a staged pull must reject.
	corrupt func(name string, data []byte) []byte
}

type fetchEntry struct {
	name string
	off  int64
}

func (l *fetchLog) add(name string, off int64) {
	l.entries = append(l.entries, fetchEntry{name, off})
}

func (l *fetchLog) fetchesOf(name string) []fetchEntry {
	var out []fetchEntry
	for _, e := range l.entries {
		if e.name == name {
			out = append(out, e)
		}
	}
	return out
}

// shippedSegment reads one committed segment the way the fleet's
// Shipper streams it: resolve it through SegmentHandle, then open the
// path. A file swept by GC between the two is the retryable
// ErrGenGone the Shipper answers with 404 + X-Gen-Gone.
func shippedSegment(src *Store, id int64, name string) ([]byte, error) {
	path, _, _, err := src.SegmentHandle(id, name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %v", ErrGenGone, err)
	}
	return data, err
}

// stagedPull drives one staging area the way the fleet puller does —
// resume partials, fetch missing ranges in chunks, verify, install —
// against a local source store standing in for the wire. Any error
// (including an injected crash) aborts mid-flight exactly like a kill,
// leaving the staging area as-is.
func stagedPull(t testing.TB, dst, src *Store, srcID int64, mb []byte, log *fetchLog) (*GenInfo, *uls.Database, error) {
	t.Helper()
	stg, err := dst.OpenStaging(mb)
	if err != nil {
		return nil, nil, err
	}
	defer stg.Close()
	const chunk = 8 << 10
	for _, si := range stg.Missing() {
		off := stg.PartialSize(si.Name)
		if off > si.Bytes {
			if err := stg.ResetPartial(si.Name); err != nil {
				return nil, nil, err
			}
			off = 0
		}
		if off < si.Bytes {
			data, err := shippedSegment(src, srcID, si.Name)
			if err != nil {
				return nil, nil, err
			}
			if log.corrupt != nil {
				data = log.corrupt(si.Name, data)
			}
			log.add(si.Name, off)
			w, werr := stg.SegmentWriter(si)
			if werr != nil {
				return nil, nil, werr
			}
			werr = func() error {
				for pos := off; pos < int64(len(data)); pos += chunk {
					end := min(pos+chunk, int64(len(data)))
					if _, err := w.Write(data[pos:end]); err != nil {
						return err
					}
				}
				return nil
			}()
			w.Close()
			if werr != nil {
				return nil, nil, werr
			}
		}
		if err := stg.CompleteSegment(si); err != nil {
			return nil, nil, err
		}
	}
	return dst.InstallStaged(stg)
}

// crashBudget arms every staging failpoint with a shared countdown:
// the Nth event (partial write, post-verify) crashes.
type crashBudget struct {
	remaining int
	armed     bool
}

func (c *crashBudget) tick(where string) error {
	if !c.armed {
		return nil
	}
	c.remaining--
	if c.remaining <= 0 {
		c.armed = false
		return fmt.Errorf("%w: at %s", ErrFailpoint, where)
	}
	return nil
}

func (c *crashBudget) points() StagingFailpoints {
	return StagingFailpoints{
		MidSegmentWrite: func(name string, off int64) error {
			return c.tick(fmt.Sprintf("mid-write %s@%d", name, off))
		},
		AfterVerify: func(name string) error { return c.tick("after-verify " + name) },
	}
}

// TestStagingCrashRecovery is the torn-transfer matrix: seeds 1–20
// each kill the pull at a different staging event — mid-partial-write,
// or right after a segment's verify, rename and directory sync — then
// resume with a fresh pull. Invariants, per seed:
//
//   - resume never re-fetches a byte of any segment the crashed pull
//     verified (left on disk under its final name);
//   - resume never trusts an unverified partial: the surviving bytes
//     are continued from their exact offset and the whole file still
//     has to pass the size+SHA-256 ladder;
//   - the final install is byte-identical to the source corpus and
//     leaves no staging debris.
func TestStagingCrashRecovery(t *testing.T) {
	db := corpus(t)
	src := open(t, t.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(8))
	gi, err := src.Save(db, "crash matrix source")
	if err != nil {
		t.Fatal(err)
	}
	if len(gi.Segments) < 3 {
		t.Fatalf("want a multi-segment generation for the matrix, got %d", len(gi.Segments))
	}
	mb, _, err := src.ExportManifest(gi.ID)
	if err != nil {
		t.Fatal(err)
	}

	for seed := 1; seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed-%02d", seed), func(t *testing.T) {
			budget := &crashBudget{remaining: seed, armed: true}
			dst := open(t, t.TempDir(), WithStagingFailpoints(budget.points()))
			log := &fetchLog{}

			_, _, err := stagedPull(t, dst, src, gi.ID, mb, log)
			crashed := errors.Is(err, ErrFailpoint)
			if err != nil && !crashed {
				t.Fatalf("first pull failed outside the injected crash: %v", err)
			}

			if crashed {
				rep, rerr := dst.StagingReportFor(gi.ID)
				if rerr != nil {
					t.Fatalf("no staging area survived the crash: %v", rerr)
				}
				verifiedAtCrash := map[string]bool{}
				for _, name := range rep.Verified {
					verifiedAtCrash[name] = true
				}
				// Every final-named file on disk is a verified segment
				// resume must adopt without a fetch.
				sdir := filepath.Join(dst.Dir(), stagingRootName, stagingDirName(gi.ID))
				finalNamed := map[string]bool{}
				for _, si := range gi.Segments {
					if _, serr := os.Stat(filepath.Join(sdir, si.Name)); serr == nil {
						finalNamed[si.Name] = true
					}
				}
				partialAtCrash := map[string]int64{}
				for name, n := range rep.Partial {
					partialAtCrash[name] = n
				}

				mark := len(log.entries)
				if _, _, rerr := stagedPull(t, dst, src, gi.ID, mb, log); rerr != nil {
					t.Fatalf("resume pull: %v", rerr)
				}
				for _, e := range log.entries[mark:] {
					if finalNamed[e.name] {
						t.Errorf("resume re-fetched %s@%d — it was already verified on disk", e.name, e.off)
					}
					if want, ok := partialAtCrash[e.name]; ok && e.off != want {
						t.Errorf("resume fetched %s from %d, surviving partial was %d bytes", e.name, e.off, want)
					}
					if _, ok := partialAtCrash[e.name]; !ok && e.off != 0 {
						t.Errorf("resume fetched %s from %d with no surviving partial", e.name, e.off)
					}
				}
			}

			back, lgi, rep, err := dst.Load()
			if err != nil {
				t.Fatalf("load after recovery: %v\n%s", err, rep)
			}
			if lgi.ID != gi.ID || lgi.CorpusSHA256 != gi.CorpusSHA256 {
				t.Fatalf("recovered generation %d (%s), want %d (%s)",
					lgi.ID, lgi.CorpusSHA256[:8], gi.ID, gi.CorpusSHA256[:8])
			}
			if !bytes.Equal(bulkBytes(t, back), bulkBytes(t, db)) {
				t.Fatal("recovered corpus differs from the source")
			}
			if ids, _ := dst.StagingIDs(); len(ids) != 0 {
				t.Fatalf("staging leak after install: %v", ids)
			}
		})
	}
}

// TestStagingPoisonedPartialNeverTrusted plants garbage in a partial
// and asserts the resumed pull detects it at verification, discards
// the poison, and converges from a clean re-fetch — a partial is a
// hint, never a fact.
func TestStagingPoisonedPartialNeverTrusted(t *testing.T) {
	db := corpus(t)
	src := open(t, t.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(8))
	gi, err := src.Save(db, "poison source")
	if err != nil {
		t.Fatal(err)
	}
	mb, _, err := src.ExportManifest(gi.ID)
	if err != nil {
		t.Fatal(err)
	}

	dst := open(t, t.TempDir())
	stg, err := dst.OpenStaging(mb)
	if err != nil {
		t.Fatal(err)
	}
	// Write a poisoned prefix of the first segment: right length to
	// look like honest progress, wrong bytes.
	si := gi.Segments[0]
	w, err := stg.SegmentWriter(si)
	if err != nil {
		t.Fatal(err)
	}
	poison := bytes.Repeat([]byte{0xAB}, int(si.Bytes/2))
	if _, err := w.Write(poison); err != nil {
		t.Fatal(err)
	}
	w.Close()
	stg.Close()

	// The resumed pull continues from the poisoned offset — and must
	// reject the assembled segment, because the surviving prefix never
	// re-earned trust.
	log := &fetchLog{}
	_, _, err = stagedPull(t, dst, src, gi.ID, mb, log)
	if !errors.Is(err, ErrVerify) {
		t.Fatalf("pull over a poisoned partial = %v, want ErrVerify", err)
	}
	if fs := log.fetchesOf(si.Name); len(fs) != 1 || fs[0].off != int64(len(poison)) {
		t.Fatalf("fetches of %s = %+v, want one resume from %d", si.Name, fs, len(poison))
	}
	if rep, _ := dst.StagingReportFor(gi.ID); rep != nil {
		if _, ok := rep.Partial[si.Name]; ok {
			t.Fatal("poisoned partial survived rejection — it must be discarded")
		}
	}

	// Next pull starts the segment from zero and converges.
	if _, _, err := stagedPull(t, dst, src, gi.ID, mb, log); err != nil {
		t.Fatalf("clean retry: %v", err)
	}
	if fs := log.fetchesOf(si.Name); fs[len(fs)-1].off != 0 {
		t.Fatalf("retry fetched %s from %d, want 0 after discard", si.Name, fs[len(fs)-1].off)
	}
	if back, lgi, _, err := dst.Load(); err != nil || lgi.ID != gi.ID ||
		!bytes.Equal(bulkBytes(t, back), bulkBytes(t, db)) {
		t.Fatalf("post-poison install not byte-identical (gen %v, err %v)", lgi, err)
	}
}

// TestStagingDeltaReuse proves the content-addressed path: a replica
// already holding generation N installs a re-publication N+1 of the
// same corpus without fetching a single byte — every segment is
// satisfied by digest from the committed generation.
func TestStagingDeltaReuse(t *testing.T) {
	db := corpus(t)
	src := open(t, t.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(8))
	if _, err := src.Save(db, "gen one"); err != nil {
		t.Fatal(err)
	}
	gi2, err := src.Save(db, "gen two, same corpus")
	if err != nil {
		t.Fatal(err)
	}

	dst := open(t, t.TempDir())
	mb1, _, err := src.ExportManifest(1)
	if err != nil {
		t.Fatal(err)
	}
	log := &fetchLog{}
	if _, _, err := stagedPull(t, dst, src, 1, mb1, log); err != nil {
		t.Fatal(err)
	}
	wireFetches := len(log.entries)
	if wireFetches == 0 {
		t.Fatal("bootstrap pull fetched nothing — vacuous")
	}

	mb2, _, err := src.ExportManifest(gi2.ID)
	if err != nil {
		t.Fatal(err)
	}
	stg, err := dst.OpenStaging(mb2)
	if err != nil {
		t.Fatal(err)
	}
	if missing := stg.Missing(); len(missing) != 0 {
		t.Fatalf("%d segments still missing after digest reuse, want 0", len(missing))
	}
	for _, si := range gi2.Segments {
		if o := stg.Origin(si.Name); o != "reused" {
			t.Fatalf("segment %s origin %q, want reused", si.Name, o)
		}
	}
	if _, _, err := dst.InstallStaged(stg); err != nil {
		t.Fatal(err)
	}
	if id, _ := dst.LatestID(); id != gi2.ID {
		t.Fatalf("latest = %d, want %d", id, gi2.ID)
	}
	if back, _, _, err := dst.Load(); err != nil || !bytes.Equal(bulkBytes(t, back), bulkBytes(t, db)) {
		t.Fatalf("delta-installed corpus differs (err %v)", err)
	}
}

// TestStagingAbandonOnDigestChange: same generation id, different
// manifest bytes = a different branch — staged progress for the old
// bytes must be discarded, never blended.
func TestStagingAbandonOnDigestChange(t *testing.T) {
	db := corpus(t)
	srcA := open(t, t.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(8))
	giA, err := srcA.Save(db, "branch A")
	if err != nil {
		t.Fatal(err)
	}
	// Branch B: same id from a different store with different framing
	// (bigger blocks → different segment bytes and digests).
	srcB := open(t, t.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(16))
	giB, err := srcB.Save(db, "branch B")
	if err != nil {
		t.Fatal(err)
	}
	if giA.ID != giB.ID || giA.CorpusSHA256 == giB.CorpusSHA256 {
		t.Fatalf("want same id, different digests: %+v vs %+v", giA, giB)
	}
	mbA, _, _ := srcA.ExportManifest(giA.ID)
	mbB, _, _ := srcB.ExportManifest(giB.ID)

	dst := open(t, t.TempDir())
	stg, err := dst.OpenStaging(mbA)
	if err != nil {
		t.Fatal(err)
	}
	si := giA.Segments[0]
	data, _ := shippedSegment(srcA, giA.ID, si.Name)
	w, _ := stg.SegmentWriter(si)
	w.Write(data)
	w.Close()
	if err := stg.CompleteSegment(si); err != nil {
		t.Fatal(err)
	}
	stg.Close()

	// Same id, branch B: the A progress is abandoned whole.
	stgB, err := dst.OpenStaging(mbB)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(stgB.Missing()); got != len(giB.Segments) {
		t.Fatalf("branch switch left %d of %d segments missing: it kept old-branch progress", got, len(giB.Segments))
	}
	stgB.Close()

	// Back to branch A (B's empty staging is abandoned in turn): A's
	// verified segment would also have been thrown away with it —
	// unless it was harvested by digest. Either way the invariant is
	// "nothing unverifiable survives"; re-verify resume correctness.
	stgA, err := dst.OpenStaging(mbA)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{si.Name} {
		if stgA.Verified(name) {
			// Harvested: must still be byte-correct — InstallStaged
			// would deep-verify anyway, but check the digest path now.
			got, rerr := os.ReadFile(filepath.Join(dst.Dir(), stagingRootName, stagingDirName(giA.ID), name))
			if rerr == nil {
				rerr = CheckSegment(got, si)
			}
			if rerr != nil {
				t.Fatalf("harvested segment fails re-verification: %v", rerr)
			}
		}
	}
	stgA.Close()
}

// stageSegment opens a staging area for mb, completes one segment from
// src and closes the area: the state a pull cut right after that
// segment leaves.
func stageSegment(t *testing.T, dst, src *Store, id int64, mb []byte, si SegmentInfo) {
	t.Helper()
	stg, err := dst.OpenStaging(mb)
	if err != nil {
		t.Fatal(err)
	}
	defer stg.Close()
	data, err := shippedSegment(src, id, si.Name)
	if err != nil {
		t.Fatal(err)
	}
	w, err := stg.SegmentWriter(si)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(data)
	w.Close()
	if err := stg.CompleteSegment(si); err != nil {
		t.Fatal(err)
	}
}

// TestStagingRottenSegmentRefetched: a final-named staged segment is
// only a candidate until OpenStaging re-hashes it. One flipped byte
// removes it there, and the pull fetches it again from byte zero.
func TestStagingRottenSegmentRefetched(t *testing.T) {
	db := corpus(t)
	src := open(t, t.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(8))
	gi, err := src.Save(db, "rot source")
	if err != nil {
		t.Fatal(err)
	}
	mb, _, _ := src.ExportManifest(gi.ID)
	si := gi.Segments[0]

	dst := open(t, t.TempDir())
	stageSegment(t, dst, src, gi.ID, mb, si)

	final := filepath.Join(dst.Dir(), stagingRootName, stagingDirName(gi.ID), si.Name)
	rotten, err := os.ReadFile(final)
	if err != nil {
		t.Fatal(err)
	}
	rotten[len(rotten)/2] ^= 0x01
	if err := os.WriteFile(final, rotten, 0o644); err != nil {
		t.Fatal(err)
	}

	stg, err := dst.OpenStaging(mb)
	if err != nil {
		t.Fatal(err)
	}
	if stg.Verified(si.Name) {
		t.Fatalf("OpenStaging adopted a rotten %s", si.Name)
	}
	stg.Close()
	if _, err := os.Stat(final); !os.IsNotExist(err) {
		t.Fatalf("rotten %s kept its final name (err %v)", si.Name, err)
	}

	log := &fetchLog{}
	if _, _, err := stagedPull(t, dst, src, gi.ID, mb, log); err != nil {
		t.Fatalf("pull after rot: %v", err)
	}
	if fs := log.fetchesOf(si.Name); len(fs) != 1 || fs[0].off != 0 {
		t.Fatalf("fetches of rotten %s = %+v, want one from offset 0", si.Name, fs)
	}
	if back, _, _, err := dst.Load(); err != nil || !bytes.Equal(bulkBytes(t, back), bulkBytes(t, db)) {
		t.Fatalf("post-rot install differs (err %v)", err)
	}
}

// TestStagingHarvestsAbandonedPull: a later generation's pull takes an
// abandoned pull's verified segment by digest — origin reused, no
// fetch — and the abandoned area is removed.
func TestStagingHarvestsAbandonedPull(t *testing.T) {
	db := corpus(t)
	src := open(t, t.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(8))
	gi1, err := src.Save(db, "abandoned generation")
	if err != nil {
		t.Fatal(err)
	}
	gi2, err := src.Save(db, "later generation, same corpus")
	if err != nil {
		t.Fatal(err)
	}
	mb1, _, _ := src.ExportManifest(gi1.ID)
	mb2, _, _ := src.ExportManifest(gi2.ID)
	si := gi1.Segments[0]

	dst := open(t, t.TempDir())
	stageSegment(t, dst, src, gi1.ID, mb1, si)

	stg, err := dst.OpenStaging(mb2)
	if err != nil {
		t.Fatal(err)
	}
	if o := stg.Origin(si.Name); o != "reused" {
		t.Fatalf("segment %s origin %q, want reused from the abandoned pull", si.Name, o)
	}
	stg.Close()
	if ids, _ := dst.StagingIDs(); len(ids) != 1 || ids[0] != gi2.ID {
		t.Fatalf("staging areas after the harvest = %v, want only %d", ids, gi2.ID)
	}

	log := &fetchLog{}
	if _, _, err := stagedPull(t, dst, src, gi2.ID, mb2, log); err != nil {
		t.Fatal(err)
	}
	if fs := log.fetchesOf(si.Name); len(fs) != 0 {
		t.Fatalf("harvested %s was fetched: %+v", si.Name, fs)
	}
	if back, _, _, err := dst.Load(); err != nil || !bytes.Equal(bulkBytes(t, back), bulkBytes(t, db)) {
		t.Fatalf("harvested install differs (err %v)", err)
	}
}

// TestStagingBranchSwitchDropsPartial: same generation id, other
// manifest bytes. A partial the old branch left under the same segment
// name is not continued; the new branch fetches it from byte zero.
func TestStagingBranchSwitchDropsPartial(t *testing.T) {
	db := corpus(t)
	srcA := open(t, t.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(8))
	giA, err := srcA.Save(db, "branch A")
	if err != nil {
		t.Fatal(err)
	}
	srcB := open(t, t.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(16))
	giB, err := srcB.Save(db, "branch B")
	if err != nil {
		t.Fatal(err)
	}
	mbA, _, _ := srcA.ExportManifest(giA.ID)
	mbB, _, _ := srcB.ExportManifest(giB.ID)
	si := giA.Segments[0]
	if giA.ID != giB.ID || si.Name != giB.Segments[0].Name || si.SHA256 == giB.Segments[0].SHA256 {
		t.Fatalf("want one id and segment name with two digests: %+v vs %+v", si, giB.Segments[0])
	}

	dst := open(t, t.TempDir())
	stg, err := dst.OpenStaging(mbA)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := shippedSegment(srcA, giA.ID, si.Name)
	w, _ := stg.SegmentWriter(si)
	w.Write(data[:len(data)/2])
	w.Close()
	stg.Close()

	log := &fetchLog{}
	if _, _, err := stagedPull(t, dst, srcB, giB.ID, mbB, log); err != nil {
		t.Fatalf("branch B pull: %v", err)
	}
	if fs := log.fetchesOf(si.Name); len(fs) != 1 || fs[0].off != 0 {
		t.Fatalf("branch B fetches of %s = %+v, want one from offset 0", si.Name, fs)
	}
	if _, lgi, _, err := dst.Load(); err != nil || lgi.CorpusSHA256 != giB.CorpusSHA256 {
		t.Fatalf("installed %v (err %v), want branch B", lgi, err)
	}
}

// TestStagingJournalTornTail: the area's only record is its pinned
// manifest. A torn (half-written) MANIFEST.bin — the crash-mid-pin
// shape — starts the area over, verified segments and all; an intact
// pin resumes with no fetch, even beside a stray file an older layout
// left behind.
func TestStagingJournalTornTail(t *testing.T) {
	db := corpus(t)
	src := open(t, t.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(8))
	gi, err := src.Save(db, "torn pin source")
	if err != nil {
		t.Fatal(err)
	}
	mb, _, _ := src.ExportManifest(gi.ID)
	si := gi.Segments[0]

	dst := open(t, t.TempDir())
	sdir := filepath.Join(dst.Dir(), stagingRootName, stagingDirName(gi.ID))
	stageSegment(t, dst, src, gi.ID, mb, si)

	// Tear the pin: the area starts over and pins the bytes afresh.
	pin := filepath.Join(sdir, stagingManifestFile)
	if err := os.Truncate(pin, int64(len(mb)/2)); err != nil {
		t.Fatal(err)
	}
	stg, err := dst.OpenStaging(mb)
	if err != nil {
		t.Fatal(err)
	}
	if stg.Verified(si.Name) || len(stg.Missing()) != len(gi.Segments) {
		t.Fatalf("torn pin resumed: %d of %d segments missing", len(stg.Missing()), len(gi.Segments))
	}
	stg.Close()
	if got, err := os.ReadFile(pin); err != nil || !bytes.Equal(got, mb) {
		t.Fatalf("restarted area's pin is not the manifest (err %v)", err)
	}

	// An intact pin resumes: the verified segment is never fetched.
	stageSegment(t, dst, src, gi.ID, mb, si)
	if err := os.WriteFile(filepath.Join(sdir, "JOURNAL"), []byte("stray\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	log := &fetchLog{}
	if _, _, err := stagedPull(t, dst, src, gi.ID, mb, log); err != nil {
		t.Fatalf("resume over an intact pin: %v", err)
	}
	if fs := log.fetchesOf(si.Name); len(fs) != 0 {
		t.Fatalf("intact pin re-fetched verified %s: %+v", si.Name, fs)
	}
	if back, _, _, err := dst.Load(); err != nil || !bytes.Equal(bulkBytes(t, back), bulkBytes(t, db)) {
		t.Fatalf("post-resume install differs (err %v)", err)
	}
	if _, err := os.Stat(sdir); !os.IsNotExist(err) {
		t.Fatalf("staging area outlived its install (err %v)", err)
	}
}

// TestCopyFallbackFsyncs: the byte copy linkOrCopy falls back to where
// hard links fail (e.g. across filesystems) is fsynced like every other
// staged write — adoptLocal promotes it as verified and InstallStaged
// commits it after only a directory sync.
func TestCopyFallbackFsyncs(t *testing.T) {
	dir := t.TempDir()
	src, dst := filepath.Join(dir, "src.dat"), filepath.Join(dir, "dst.dat")
	want := []byte("HFTSEG1\nsegment bytes")
	if err := os.WriteFile(src, want, 0o644); err != nil {
		t.Fatal(err)
	}
	var synced []string
	s := open(t, t.TempDir(), WithFailpoints(Failpoints{BeforeFsync: func(path string) error {
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Errorf("before fsync, %s holds %q (err %v), want the source's bytes", path, got, err)
		}
		synced = append(synced, path)
		return nil
	}}))
	if err := s.copyFile(src, dst); err != nil {
		t.Fatal(err)
	}
	if len(synced) != 1 || synced[0] != dst {
		t.Fatalf("fsynced %v, want exactly the copy %s", synced, dst)
	}
}

// TestStagingGCSweep: a staging area whose generation has since been
// committed is garbage and GC removes it; an in-flight (uncommitted)
// one survives.
func TestStagingGCSweep(t *testing.T) {
	db := corpus(t)
	src := open(t, t.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(8))
	if _, err := src.Save(db, "gen one"); err != nil {
		t.Fatal(err)
	}
	gi2, err := src.Save(db, "gen two")
	if err != nil {
		t.Fatal(err)
	}

	dst := open(t, t.TempDir())
	// Install gen 1, then open (and abandon) staging progress for gen 2.
	mb1, _, _ := src.ExportManifest(1)
	if _, _, err := stagedPull(t, dst, src, 1, mb1, &fetchLog{}); err != nil {
		t.Fatal(err)
	}
	mb2, _, _ := src.ExportManifest(gi2.ID)
	stg, err := dst.OpenStaging(mb2)
	if err != nil {
		t.Fatal(err)
	}
	stg.Close()

	// GC keeps the staging area: its generation is not committed here.
	if _, err := dst.GC(3); err != nil {
		t.Fatal(err)
	}
	if ids, _ := dst.StagingIDs(); len(ids) != 1 || ids[0] != gi2.ID {
		t.Fatalf("in-flight staging swept by GC: %v", ids)
	}

	// Commit gen 2 (digest reuse makes it instant), then GC: now the
	// staging area is spent and must go.
	stg2, err := dst.OpenStaging(mb2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := dst.InstallStaged(stg2); err != nil {
		t.Fatal(err)
	}
	if ids, _ := dst.StagingIDs(); len(ids) != 0 {
		t.Fatalf("staging survived its own install: %v", ids)
	}
	// And a manually recreated spent dir is swept by the next GC.
	leftover := filepath.Join(dst.Dir(), stagingRootName, stagingDirName(gi2.ID))
	if err := os.MkdirAll(leftover, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.GC(3); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(leftover); !os.IsNotExist(err) {
		t.Fatal("spent staging dir survived GC")
	}
}

// TestOpenStagingRefusesCommitted: a generation this store already
// holds is os.ErrExist, mirroring InstallStaged's idempotence contract.
func TestOpenStagingRefusesCommitted(t *testing.T) {
	db := corpus(t)
	src := open(t, t.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(8))
	gi, err := src.Save(db, "seed")
	if err != nil {
		t.Fatal(err)
	}
	mb, _, _ := src.ExportManifest(gi.ID)
	dst := open(t, t.TempDir())
	if _, _, err := stagedPull(t, dst, src, gi.ID, mb, &fetchLog{}); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.OpenStaging(mb); !errors.Is(err, os.ErrExist) {
		t.Fatalf("OpenStaging on a committed generation = %v, want os.ErrExist", err)
	}
	// And a garbled manifest is ErrVerify before any directory exists.
	garbled := append([]byte(nil), mb...)
	garbled[0] ^= 0xFF
	if _, err := dst.OpenStaging(garbled); !errors.Is(err, ErrVerify) {
		t.Fatalf("OpenStaging on garbled manifest = %v, want ErrVerify", err)
	}
	if strings.Contains(strings.Join(func() []string {
		ents, _ := os.ReadDir(dst.Dir())
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}(), " "), stagingRootName) {
		t.Fatal("refused OpenStaging left a staging root behind")
	}
}
