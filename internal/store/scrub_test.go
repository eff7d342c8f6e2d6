package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// flipByte corrupts one committed segment file of generation id in
// dir, returning the corrupted file's path.
func flipByte(t *testing.T, dir string, id int64, seg string) string {
	t.Helper()
	path := filepath.Join(dir, genDirName(id), seg)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("writing %s: %v", path, err)
	}
	return path
}

// peerFetch is a SegmentFetch over another open store holding the same
// generations.
func peerFetch(peer *Store) SegmentFetch {
	return func(_ context.Context, gen GenInfo, seg SegmentInfo) ([]byte, error) {
		return shippedSegment(peer, gen.ID, seg.Name)
	}
}

func TestScrubRepairsFromPeer(t *testing.T) {
	db := corpus(t)
	opts := []Option{WithSegmentTarget(16 << 10), WithBlockLicenses(8)}
	healthy := open(t, t.TempDir(), opts...)
	dir := t.TempDir()
	sick := open(t, dir, opts...)
	gi, err := healthy.Save(db, "peer copy")
	if err != nil {
		t.Fatalf("save healthy: %v", err)
	}
	// Ship the generation into the sick store so both hold identical
	// bytes under the same id and corpus digest.
	mb, _, err := healthy.ExportManifest(gi.ID)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if _, _, err := stagedPull(t, sick, healthy, gi.ID, mb, &fetchLog{}); err != nil {
		t.Fatalf("install: %v", err)
	}

	flipByte(t, dir, gi.ID, gi.Segments[0].Name)
	flipByte(t, dir, gi.ID, gi.Segments[1].Name)
	if rep, err := sick.Fsck(); err != nil || rep.OK() {
		t.Fatalf("fsck should flag the flipped bytes (err=%v ok=%v)", err, rep.OK())
	}

	sc := NewScrubber(sick, ScrubConfig{Pause: time.Microsecond, Fetch: peerFetch(healthy)})
	if err := sc.ScrubOnce(context.Background()); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	st := sc.Status()
	if st.Corrupt != 2 || st.Repaired != 2 || st.Quarantined != 2 || st.Unrepaired != 0 {
		t.Fatalf("unexpected status: %+v", st)
	}
	rep, err := sick.Fsck()
	if err != nil || !rep.OK() {
		t.Fatalf("store not fsck-clean after repair (err=%v): %+v", err, rep)
	}
	// The corrupt originals are preserved for forensics.
	for _, seg := range []string{gi.Segments[0].Name, gi.Segments[1].Name} {
		q := filepath.Join(dir, quarantineDirName, genDirName(gi.ID)+"-"+seg)
		if _, err := os.Stat(q); err != nil {
			t.Fatalf("quarantined original %s missing: %v", q, err)
		}
	}
	// A second cycle finds nothing.
	if err := sc.ScrubOnce(context.Background()); err != nil {
		t.Fatalf("scrub 2: %v", err)
	}
	if st := sc.Status(); st.Corrupt != 2 || st.Cycles != 2 {
		t.Fatalf("second cycle re-detected: %+v", st)
	}
}

func TestScrubRepairsMissingSegment(t *testing.T) {
	db := corpus(t)
	opts := []Option{WithSegmentTarget(16 << 10), WithBlockLicenses(8)}
	healthy := open(t, t.TempDir(), opts...)
	dir := t.TempDir()
	sick := open(t, dir, opts...)
	gi, err := healthy.Save(db, "peer copy")
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	mb, _, _ := healthy.ExportManifest(gi.ID)
	if _, _, err := stagedPull(t, sick, healthy, gi.ID, mb, &fetchLog{}); err != nil {
		t.Fatalf("install: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, genDirName(gi.ID), gi.Segments[0].Name)); err != nil {
		t.Fatalf("remove segment: %v", err)
	}
	sc := NewScrubber(sick, ScrubConfig{Pause: time.Microsecond, Fetch: peerFetch(healthy)})
	if err := sc.ScrubOnce(context.Background()); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	st := sc.Status()
	// Repaired but nothing to quarantine: the original was gone.
	if st.Repaired != 1 || st.Quarantined != 0 {
		t.Fatalf("unexpected status: %+v", st)
	}
	if rep, err := sick.Fsck(); err != nil || !rep.OK() {
		t.Fatalf("store not clean after repair (err=%v)", err)
	}
}

func TestScrubUnrepairableFallsBackThenQuarantines(t *testing.T) {
	db := corpus(t)
	dir := t.TempDir()
	s := open(t, dir, WithSegmentTarget(16<<10), WithBlockLicenses(8))
	gi1, err := s.Save(db, "gen one")
	if err != nil {
		t.Fatalf("save 1: %v", err)
	}
	gi2, err := s.Save(db, "gen two")
	if err != nil {
		t.Fatalf("save 2: %v", err)
	}
	flipByte(t, dir, gi2.ID, gi2.Segments[0].Name)

	noPeer := func(context.Context, GenInfo, SegmentInfo) ([]byte, error) {
		return nil, errors.New("no peer holds a matching copy")
	}
	sc := NewScrubber(s, ScrubConfig{Pause: time.Microsecond, Fetch: noPeer, QuarantineAfter: 3})

	// Two cycles: detected, unrepaired, still on disk; Load falls back
	// to the previous generation.
	for i := 0; i < 2; i++ {
		if err := sc.ScrubOnce(context.Background()); err != nil {
			t.Fatalf("scrub %d: %v", i, err)
		}
	}
	st := sc.Status()
	if st.Corrupt != 2 || st.Repaired != 0 || st.Unrepaired != 2 || st.GenerationsQuarantined != 0 {
		t.Fatalf("unexpected status before quarantine: %+v", st)
	}
	_, lgi, rep, err := s.Load()
	if err != nil {
		t.Fatalf("load: %v\n%s", err, rep)
	}
	if lgi.ID != gi1.ID || len(rep.Discarded) != 1 || rep.Discarded[0].ID != gi2.ID {
		t.Fatalf("load should fall back to gen %d: served %d, %s", gi1.ID, lgi.ID, rep)
	}

	// Third consecutive miss crosses QuarantineAfter: the generation
	// moves aside whole and the store is fsck-clean again.
	if err := sc.ScrubOnce(context.Background()); err != nil {
		t.Fatalf("scrub 3: %v", err)
	}
	if st := sc.Status(); st.GenerationsQuarantined != 1 {
		t.Fatalf("generation not quarantined: %+v", st)
	}
	frep, err := s.Fsck()
	if err != nil || !frep.OK() || len(frep.Generations) != 1 {
		t.Fatalf("store not clean after quarantine (err=%v): %+v", err, frep)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDirName, manifestName(gi2.ID))); err != nil {
		t.Fatalf("quarantined manifest missing: %v", err)
	}
}

func TestScrubNeverQuarantinesLastGeneration(t *testing.T) {
	db := corpus(t)
	dir := t.TempDir()
	s := open(t, dir, WithSegmentTarget(16<<10), WithBlockLicenses(8))
	gi, err := s.Save(db, "only gen")
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	flipByte(t, dir, gi.ID, gi.Segments[0].Name)
	sc := NewScrubber(s, ScrubConfig{Pause: time.Microsecond, QuarantineAfter: 1})
	for i := 0; i < 3; i++ {
		if err := sc.ScrubOnce(context.Background()); err != nil {
			t.Fatalf("scrub %d: %v", i, err)
		}
	}
	if st := sc.Status(); st.GenerationsQuarantined != 0 {
		t.Fatalf("last generation must never be auto-quarantined: %+v", st)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName(gi.ID))); err != nil {
		t.Fatalf("only generation's manifest should stay on disk: %v", err)
	}
}

// TestScrubCountsCollectedRepair: a detection whose generation GC
// collects while its repair is in flight counts in Collected, so the
// counters still reconcile: Corrupt == Repaired + Unrepaired +
// Collected.
func TestScrubCountsCollectedRepair(t *testing.T) {
	db := corpus(t)
	dir := t.TempDir()
	s := open(t, dir, WithSegmentTarget(16<<10), WithBlockLicenses(8))
	old, err := s.Save(db, "old gen")
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if _, err := s.Save(db, "new gen"); err != nil {
		t.Fatalf("save: %v", err)
	}
	seg := old.Segments[0]
	good, err := os.ReadFile(filepath.Join(dir, genDirName(old.ID), seg.Name))
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, dir, old.ID, seg.Name)
	fetch := func(_ context.Context, gen GenInfo, si SegmentInfo) ([]byte, error) {
		if gen.ID != old.ID || si.Name != seg.Name {
			return nil, fmt.Errorf("unexpected fetch of gen %d %s", gen.ID, si.Name)
		}
		// GC collects the generation before its verified bytes land.
		if _, err := s.GC(1); err != nil {
			return nil, err
		}
		return good, nil
	}
	sc := NewScrubber(s, ScrubConfig{Pause: time.Microsecond, Fetch: fetch})
	if err := sc.ScrubOnce(context.Background()); err != nil {
		t.Fatalf("scrub: %v", err)
	}
	st := sc.Status()
	if st.Corrupt != 1 || st.Collected != 1 || st.Corrupt != st.Repaired+st.Unrepaired+st.Collected {
		t.Fatalf("status %+v, want one corrupt detection counted as collected", st)
	}
	if rep, err := s.Fsck(); err != nil || !rep.OK() {
		t.Fatalf("store not fsck-clean after GC took the rotten generation (err=%v): %+v", err, rep)
	}
}

func TestScrubRunHonorsContext(t *testing.T) {
	db := corpus(t)
	s := open(t, t.TempDir())
	if _, err := s.Save(db, "gen"); err != nil {
		t.Fatalf("save: %v", err)
	}
	sc := NewScrubber(s, ScrubConfig{Interval: time.Millisecond, Pause: time.Microsecond})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { sc.Run(ctx); close(done) }()
	waitUntil := time.Now().Add(2 * time.Second)
	for sc.Status().Cycles == 0 && time.Now().Before(waitUntil) {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
	if sc.Status().Cycles == 0 {
		t.Fatal("Run never completed a cycle")
	}
}

func TestQuarantineGeneration(t *testing.T) {
	db := corpus(t)
	dir := t.TempDir()
	s := open(t, dir)
	gi1, err := s.Save(db, "gen one")
	if err != nil {
		t.Fatalf("save 1: %v", err)
	}
	gi2, err := s.Save(db, "gen two")
	if err != nil {
		t.Fatalf("save 2: %v", err)
	}
	if err := s.QuarantineGeneration(gi2.ID); err != nil {
		t.Fatalf("quarantine: %v", err)
	}
	gens, err := s.List()
	if err != nil || len(gens) != 1 || gens[0].ID != gi1.ID {
		t.Fatalf("list after quarantine: %v %+v", err, gens)
	}
	_, lgi, _, err := s.Load()
	if err != nil || lgi.ID != gi1.ID {
		t.Fatalf("load after quarantine served %v (err=%v), want %d", lgi, err, gi1.ID)
	}
	for _, name := range []string{manifestName(gi2.ID), genDirName(gi2.ID)} {
		if _, err := os.Stat(filepath.Join(dir, quarantineDirName, name)); err != nil {
			t.Fatalf("quarantine missing %s: %v", name, err)
		}
	}
	if err := s.QuarantineGeneration(gi2.ID); !errors.Is(err, ErrGenGone) {
		t.Fatalf("re-quarantine err = %v, want ErrGenGone", err)
	}
	// Quarantined debris is invisible to Fsck and survives GC.
	rep, err := s.Fsck()
	if err != nil || !rep.OK() || len(rep.Orphans) != 0 {
		t.Fatalf("fsck sees quarantine debris (err=%v): %+v", err, rep)
	}
	if _, err := s.GC(1); err != nil {
		t.Fatalf("gc: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDirName, manifestName(gi2.ID))); err != nil {
		t.Fatalf("gc swept quarantine: %v", err)
	}
}
