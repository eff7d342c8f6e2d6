package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hftnetview/internal/synth"
	"hftnetview/internal/uls"
)

// corpus returns the deterministic synthetic corpus (shared across
// tests; treat as read-only).
func corpus(t testing.TB) *uls.Database {
	t.Helper()
	db, err := synth.Generate()
	if err != nil {
		t.Fatalf("generating corpus: %v", err)
	}
	return db
}

// bulkBytes is the canonical bulk encoding of db, for whole-corpus
// equality checks.
func bulkBytes(t testing.TB, db *uls.Database) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := uls.WriteBulk(&buf, db); err != nil {
		t.Fatalf("encoding corpus: %v", err)
	}
	return buf.Bytes()
}

func open(t testing.TB, dir string, opts ...Option) *Store {
	t.Helper()
	s, err := Open(dir, opts...)
	if err != nil {
		t.Fatalf("opening store: %v", err)
	}
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := corpus(t)
	// Small segments force a multi-segment generation.
	s := open(t, t.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(8))

	gi, err := s.Save(db, "unit test")
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if gi.ID != 1 || gi.Licenses != db.Len() {
		t.Fatalf("bad GenInfo: %+v", gi)
	}
	if len(gi.Segments) < 2 {
		t.Fatalf("want multi-segment generation, got %d segments", len(gi.Segments))
	}

	back, lgi, rep, err := s.Load()
	if err != nil {
		t.Fatalf("load: %v\n%s", err, rep)
	}
	if lgi.ID != gi.ID {
		t.Fatalf("loaded generation %d, want %d", lgi.ID, gi.ID)
	}
	if rep.Served != gi.ID || len(rep.Discarded) != 0 {
		t.Fatalf("unexpected recovery report: %s", rep)
	}
	if !bytes.Equal(bulkBytes(t, back), bulkBytes(t, db)) {
		t.Fatal("recovered corpus differs from the saved one")
	}
}

func TestLoadServesNewestGeneration(t *testing.T) {
	db := corpus(t)
	s := open(t, t.TempDir())
	if _, err := s.Save(db, "gen one"); err != nil {
		t.Fatalf("save 1: %v", err)
	}
	gi2, err := s.Save(db, "gen two")
	if err != nil {
		t.Fatalf("save 2: %v", err)
	}
	_, lgi, _, err := s.Load()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if lgi.ID != gi2.ID || lgi.Source != "gen two" {
		t.Fatalf("served %d (%s), want newest %d", lgi.ID, lgi.Source, gi2.ID)
	}
}

func TestLoadEmptyStore(t *testing.T) {
	s := open(t, t.TempDir())
	_, _, rep, err := s.Load()
	if !errors.Is(err, ErrNoGeneration) {
		t.Fatalf("err = %v, want ErrNoGeneration", err)
	}
	if rep == nil || rep.Scanned != 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

func TestListAndGC(t *testing.T) {
	db := corpus(t)
	dir := t.TempDir()
	s := open(t, dir)
	for i := 0; i < 4; i++ {
		if _, err := s.Save(db, "gen"); err != nil {
			t.Fatalf("save %d: %v", i+1, err)
		}
	}
	gens, err := s.List()
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	if len(gens) != 4 || gens[0].ID != 4 || gens[3].ID != 1 {
		t.Fatalf("bad listing: %+v", gens)
	}

	removed, err := s.GC(2)
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if len(removed) != 2 || removed[0] != 2 || removed[1] != 1 {
		t.Fatalf("gc removed %v, want [2 1]", removed)
	}
	gens, _ = s.List()
	if len(gens) != 2 || gens[0].ID != 4 || gens[1].ID != 3 {
		t.Fatalf("post-gc listing: %+v", gens)
	}
	// The removed generations' segment dirs are gone too.
	for _, id := range removed {
		if _, err := os.Stat(filepath.Join(dir, genDirName(id))); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("segment dir for removed gen %d still present", id)
		}
	}
}

// TestGCKeepsLastRecoverable: when every generation inside the keep
// window is corrupt, GC must extend the window rather than delete the
// only corpus that still verifies.
func TestGCKeepsLastRecoverable(t *testing.T) {
	db := corpus(t)
	dir := t.TempDir()
	s := open(t, dir)
	gi1, err := s.Save(db, "good")
	if err != nil {
		t.Fatalf("save 1: %v", err)
	}
	gi2, err := s.Save(db, "to be corrupted")
	if err != nil {
		t.Fatalf("save 2: %v", err)
	}
	corruptSegment(t, dir, gi2.ID)

	removed, err := s.GC(1)
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if len(removed) != 0 {
		t.Fatalf("gc removed %v; the only verified generation is %d", removed, gi1.ID)
	}
	_, lgi, _, err := s.Load()
	if err != nil {
		t.Fatalf("load after gc: %v", err)
	}
	if lgi.ID != gi1.ID {
		t.Fatalf("served %d, want surviving good generation %d", lgi.ID, gi1.ID)
	}
}

// corruptSegment flips one bit in the middle of the first segment of
// the given generation.
func corruptSegment(t testing.TB, dir string, id int64) {
	t.Helper()
	genDir := filepath.Join(dir, genDirName(id))
	ents, err := os.ReadDir(genDir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("no segments for gen %d: %v", id, err)
	}
	path := filepath.Join(genDir, ents[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading segment: %v", err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("writing corrupted segment: %v", err)
	}
}

func TestBitFlipFallsBackOneGeneration(t *testing.T) {
	db := corpus(t)
	dir := t.TempDir()
	s := open(t, dir)
	gi1, err := s.Save(db, "good")
	if err != nil {
		t.Fatalf("save 1: %v", err)
	}
	gi2, err := s.Save(db, "flipped")
	if err != nil {
		t.Fatalf("save 2: %v", err)
	}
	corruptSegment(t, dir, gi2.ID)

	back, lgi, rep, err := s.Load()
	if err != nil {
		t.Fatalf("load: %v\n%s", err, rep)
	}
	if lgi.ID != gi1.ID {
		t.Fatalf("served gen %d, want fallback to %d", lgi.ID, gi1.ID)
	}
	if len(rep.Discarded) != 1 || rep.Discarded[0].ID != gi2.ID {
		t.Fatalf("discard report should name gen %d exactly: %s", gi2.ID, rep)
	}
	if !strings.Contains(rep.Discarded[0].Reason, "mismatch") &&
		!strings.Contains(rep.Discarded[0].Reason, "CRC") {
		t.Fatalf("discard reason should blame a checksum: %q", rep.Discarded[0].Reason)
	}
	if !bytes.Equal(bulkBytes(t, back), bulkBytes(t, db)) {
		t.Fatal("fallback corpus differs from the saved one")
	}
}

func TestManifestCorruptionDetected(t *testing.T) {
	db := corpus(t)
	dir := t.TempDir()
	s := open(t, dir)
	if _, err := s.Save(db, "good"); err != nil {
		t.Fatalf("save 1: %v", err)
	}
	gi2, err := s.Save(db, "manifest flipped")
	if err != nil {
		t.Fatalf("save 2: %v", err)
	}
	mp := filepath.Join(dir, manifestName(gi2.ID))
	data, err := os.ReadFile(mp)
	if err != nil {
		t.Fatalf("reading manifest: %v", err)
	}
	data[len(data)/3] ^= 0x01
	if err := os.WriteFile(mp, data, 0o644); err != nil {
		t.Fatalf("writing corrupted manifest: %v", err)
	}

	_, lgi, rep, err := s.Load()
	if err != nil {
		t.Fatalf("load: %v\n%s", err, rep)
	}
	if lgi.ID != 1 || rep.Discarded[0].ID != gi2.ID {
		t.Fatalf("want fallback to 1 discarding %d, got served=%d report=%s", gi2.ID, lgi.ID, rep)
	}
}

func TestOpenSweepsTempDebris(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "tmp-gen-000009"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST-000009.json.tmp"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	open(t, dir)
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		t.Fatalf("debris survived Open: %s", e.Name())
	}
}

// TestKeyframeGCSweep: the replay keyframe sidecars earlier releases
// wrote next to each generation (KF-NNNNNN.dat, committed through a
// .tmp) are removed by GC and by Open, whichever generation they name;
// the generations themselves are untouched.
func TestKeyframeGCSweep(t *testing.T) {
	db := corpus(t)
	dir := t.TempDir()
	s := open(t, dir)
	gi, err := s.Save(db, "gen")
	if err != nil {
		t.Fatal(err)
	}
	plant := func() []string {
		names := []string{"KF-000001.dat", "KF-000999.dat", "KF-000002.dat.tmp"}
		for _, n := range names {
			if err := os.WriteFile(filepath.Join(dir, n), []byte("kf"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return names
	}
	swept := func(by string, names []string) {
		t.Helper()
		for _, n := range names {
			if _, err := os.Stat(filepath.Join(dir, n)); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s left legacy keyframe file %s (stat err %v)", by, n, err)
			}
		}
	}

	names := plant()
	if removed, err := s.GC(1); err != nil || len(removed) != 0 {
		t.Fatalf("GC = %v, %v; want no generation removed", removed, err)
	}
	swept("GC", names)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	names = plant()
	s = open(t, dir)
	swept("Open", names)
	if _, lgi, _, err := s.Load(); err != nil || lgi.ID != gi.ID {
		t.Fatalf("Load after the sweep = %+v, %v; want generation %d", lgi, err, gi.ID)
	}
}

func TestFsck(t *testing.T) {
	db := corpus(t)
	dir := t.TempDir()
	s := open(t, dir)
	if _, err := s.Save(db, "good"); err != nil {
		t.Fatal(err)
	}
	gi2, err := s.Save(db, "bad")
	if err != nil {
		t.Fatal(err)
	}
	corruptSegment(t, dir, gi2.ID)
	// An orphan segment dir (no manifest).
	if err := os.Mkdir(filepath.Join(dir, genDirName(99)), 0o755); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Fsck()
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if rep.OK() {
		t.Fatal("fsck passed a store with a corrupt generation")
	}
	if len(rep.Generations) != 2 || !rep.Generations[1].OK || rep.Generations[0].OK {
		t.Fatalf("unexpected verdicts: %+v", rep.Generations)
	}
	if len(rep.Orphans) != 1 || rep.Orphans[0] != genDirName(99) {
		t.Fatalf("orphans = %v, want [%s]", rep.Orphans, genDirName(99))
	}
}

func TestClosedStoreRefusesWrites(t *testing.T) {
	db := corpus(t)
	s := open(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := s.Save(db, "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("save on closed store: %v, want ErrClosed", err)
	}
	if _, err := s.GC(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("gc on closed store: %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestCodecLicenseRoundTrip(t *testing.T) {
	db := corpus(t)
	ls := db.All()
	payload := encodeBlock(ls)
	back, err := decodeBlock(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(back) != len(ls) {
		t.Fatalf("decoded %d licenses, want %d", len(back), len(ls))
	}
	db2 := uls.NewDatabase()
	for _, l := range back {
		if err := db2.Add(l); err != nil {
			t.Fatalf("decoded license failed validation: %v", err)
		}
	}
	if !bytes.Equal(bulkBytes(t, db2), bulkBytes(t, db)) {
		t.Fatal("codec round trip changed the corpus")
	}
}

func TestDecodeBlockRejectsTruncation(t *testing.T) {
	db := corpus(t)
	payload := encodeBlock(db.All()[:4])
	for cut := 0; cut < len(payload); cut += 7 {
		if _, err := decodeBlock(payload[:cut]); err == nil && cut < len(payload) {
			t.Fatalf("decodeBlock accepted a %d/%d-byte truncation", cut, len(payload))
		}
	}
}

// TestMinRecordBytes pins checkTotal's per-kind minimums to the
// encoder: an empty license, and what one location, path or frequency
// adds to it. A header total above payload/minimum is refused before
// any arena is allocated.
func TestMinRecordBytes(t *testing.T) {
	size := func(l *uls.License) int { return len(encodeBlock([]*uls.License{l})) - 16 }
	empty := size(&uls.License{})
	withPath := size(&uls.License{Paths: make([]uls.Path, 1)})
	for _, c := range []struct {
		what      string
		got, want int
	}{
		{"license", empty, minLicenseBytes},
		{"location", size(&uls.License{Locations: make([]uls.Location, 1)}) - empty, minLocationBytes},
		{"path", withPath - empty, minPathBytes},
		{"frequency", size(&uls.License{Paths: []uls.Path{{FrequenciesMHz: []float64{1}}}}) - withPath, minFrequencyBytes},
	} {
		if c.got != c.want {
			t.Errorf("a %s encodes in %d bytes at least; checkTotal assumes %d", c.what, c.got, c.want)
		}
		const payload = 4096
		if _, err := checkTotal(uint32(payload/c.want+1), payload, c.want, c.what); err == nil {
			t.Errorf("checkTotal accepted %d %ss in a %d-byte payload", payload/c.want+1, c.what, payload)
		}
	}
}

// FuzzDecodeBlock: decodeBlock never panics, and a block it accepts is
// byte for byte what encodeBlock writes for the licenses it returns, so
// no block decodes to licenses that another block also decodes to. The
// seeds include a real block with each header total raised by one: a
// total its records do not use up must be refused.
func FuzzDecodeBlock(f *testing.F) {
	ls := corpus(f).All()
	f.Add(encodeBlock(nil))
	f.Add(encodeBlock(ls[:2]))
	block := encodeBlock(ls[:1])
	f.Add(block)
	for off := 4; off < 16; off += 4 {
		raised := append([]byte(nil), block...)
		raised[off]++
		f.Add(raised)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		back, err := decodeBlock(payload)
		if err != nil {
			return
		}
		if got := encodeBlock(back); !bytes.Equal(got, payload) {
			t.Fatalf("%d decoded licenses re-encode to %d bytes that differ from the %d-byte block",
				len(back), len(got), len(payload))
		}
	})
}
