package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Anti-entropy scrubbing.
//
// InstallStaged and boot verify a generation once; bit-rot after that point
// is only caught when the generation is next loaded — which for a
// long-serving replica is never. The Scrubber closes that gap: a
// throttled background walk over every committed generation that holds
// each segment file to its manifest entry the way staging does (exact
// size, then whole-file SHA-256, streamed with no whole-segment
// buffer), with a configurable pause between files so scrubbing never
// competes with serving for disk bandwidth. A SHA-256 match pins every
// byte Save published, so the block CRC walk would detect nothing
// more.
//
// The repair ladder, in order:
//
//  1. a corrupt segment is re-fetched from a peer (the injected
//     SegmentFetch; in the fleet, any member whose manifest for the
//     generation carries the same corpus digest). The replacement
//     passes CheckSegment (exact size, then SHA-256) *before*
//     anything on disk moves; only then is the corrupt original moved
//     into quarantine/ (kept for forensics) and the verified bytes
//     renamed into place — repair in place, no restart;
//  2. a segment no peer can supply stays on disk and is retried every
//     cycle (counted Unrepaired) — boot's Load already falls back to
//     the previous generation if the process restarts meanwhile;
//  3. after QuarantineAfter consecutive failed cycles the whole
//     generation is moved into quarantine/ so the store returns to
//     fsck-clean — unless it is the only committed generation, which
//     is never auto-quarantined (the last copy beats a clean report).
//
// The quarantine/ subdirectory is invisible to Load, List, Fsck, GC,
// and the temp sweeps: none of their directory scans match its name,
// and none recurse into it.

// quarantineDirName is the store subdirectory holding quarantined
// artifacts: corrupt segment originals preserved by repair, and whole
// generations moved aside by QuarantineGeneration.
const quarantineDirName = "quarantine"

// SegmentFetch returns the raw bytes of one segment of one generation
// from somewhere else — a fleet peer, a backup, a test stub. The
// caller verifies the result against the manifest entry; the fetcher
// only has to find a candidate copy.
type SegmentFetch func(ctx context.Context, gen GenInfo, seg SegmentInfo) ([]byte, error)

// ScrubConfig configures a Scrubber.
type ScrubConfig struct {
	// Interval between full-store scrub cycles. Default 1m.
	Interval time.Duration
	// Pause between segment verifications inside a cycle — the
	// throttle that keeps scrubbing off the serving path's disk
	// bandwidth. Default 2ms.
	Pause time.Duration
	// Fetch supplies replacement bytes for a corrupt segment. Nil
	// means detect-only: corruption is counted but never repaired.
	Fetch SegmentFetch
	// QuarantineAfter moves a whole generation into quarantine/ once
	// one of its segments (or its manifest) has stayed unrepairable
	// for this many consecutive cycles. 0 disables auto-quarantine.
	QuarantineAfter int
}

// ScrubStatus is a Scrubber's cumulative account, for /statsz.
type ScrubStatus struct {
	Cycles      int64 `json:"cycles"`
	Segments    int64 `json:"segments"`    // segment verifications run
	Corrupt     int64 `json:"corrupt"`     // corruption detections (segments + manifests)
	Repaired    int64 `json:"repaired"`    // segments repaired in place from a peer
	Quarantined int64 `json:"quarantined"` // corrupt segment originals moved aside by repair
	Unrepaired  int64 `json:"unrepaired"`  // detections left in place for the next cycle
	// Collected counts detections whose generation GC collected before
	// the repair landed, so Corrupt == Repaired + Unrepaired + Collected.
	Collected int64 `json:"collected"`
	// GenerationsQuarantined counts whole generations moved aside
	// after exhausting the repair ladder.
	GenerationsQuarantined int64  `json:"generations_quarantined"`
	LastError              string `json:"last_error,omitempty"`
	LastRepair             string `json:"last_repair,omitempty"`
}

// Scrubber runs the background anti-entropy walk over one Store.
type Scrubber struct {
	st  *Store
	cfg ScrubConfig

	mu     sync.Mutex
	status ScrubStatus
	misses map[string]int // "gen/segment" -> consecutive unrepaired cycles
}

// NewScrubber builds a scrubber over st. Call Run to start it, or
// ScrubOnce for a single synchronous cycle (tests, fsck tooling).
func NewScrubber(st *Store, cfg ScrubConfig) *Scrubber {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Minute
	}
	if cfg.Pause <= 0 {
		cfg.Pause = 2 * time.Millisecond
	}
	return &Scrubber{st: st, cfg: cfg, misses: make(map[string]int)}
}

// Status returns a snapshot of the cumulative counters.
func (sc *Scrubber) Status() ScrubStatus {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.status
}

// Run scrubs on the configured interval until ctx is cancelled.
func (sc *Scrubber) Run(ctx context.Context) {
	t := time.NewTicker(sc.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			sc.ScrubOnce(ctx)
		}
	}
}

// ScrubOnce walks every committed generation once, verifying each
// segment file against its manifest entry and repairing what it can. It
// returns early (with ctx.Err) on cancellation; all other failures are
// recorded in the status counters rather than returned, because a
// scrub cycle is best-effort by design.
func (sc *Scrubber) ScrubOnce(ctx context.Context) error {
	ids, err := sc.st.manifestIDs()
	if err != nil {
		sc.note(func(st *ScrubStatus) { st.LastError = err.Error() })
		return err
	}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return err
		}
		m, err := sc.st.loadManifest(id)
		if err != nil {
			if errors.Is(err, ErrGenGone) {
				continue // GC swept it mid-walk
			}
			// An unreadable manifest poisons the generation whole and
			// cannot be repaired segment-wise; it rides the same
			// miss-counted ladder toward quarantine.
			sc.note(func(st *ScrubStatus) {
				st.Corrupt++
				st.LastError = fmt.Sprintf("gen %d manifest: %v", id, err)
			})
			sc.miss(id, "manifest", len(ids))
			continue
		}
		gi := m.info()
		for _, si := range m.Segments {
			if err := ctx.Err(); err != nil {
				return err
			}
			sc.scrubSegment(ctx, m, gi, si, len(ids))
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(sc.cfg.Pause):
			}
		}
	}
	sc.note(func(st *ScrubStatus) { st.Cycles++ })
	return nil
}

// scrubSegment verifies one segment and, on corruption, runs the
// repair ladder.
func (sc *Scrubber) scrubSegment(ctx context.Context, m *manifest, gi GenInfo, si SegmentInfo, committed int) {
	id := m.Generation
	path := filepath.Join(sc.st.dir, genDirName(id), si.Name)
	verr := checkSegmentFile(path, si)
	sc.note(func(st *ScrubStatus) { st.Segments++ })
	if verr == nil {
		sc.clearMiss(id, si.Name)
		return
	}
	if errors.Is(verr, os.ErrNotExist) {
		// Segment file gone: either GC swept the generation (manifest
		// gone too — not corruption) or the file itself vanished
		// (corruption, repairable like any other bad segment).
		if _, err := os.Stat(filepath.Join(sc.st.dir, manifestName(id))); err != nil {
			return
		}
	}
	sc.note(func(st *ScrubStatus) {
		st.Corrupt++
		st.LastError = fmt.Sprintf("gen %d %s: %v", id, si.Name, verr)
	})
	if sc.cfg.Fetch == nil {
		sc.miss(id, si.Name, committed)
		return
	}
	data, ferr := sc.cfg.Fetch(ctx, gi, si)
	if ferr != nil {
		sc.note(func(st *ScrubStatus) {
			st.LastError = fmt.Sprintf("gen %d %s: fetch: %v", id, si.Name, ferr)
		})
		sc.miss(id, si.Name, committed)
		return
	}
	if err := CheckSegment(data, si); err != nil {
		sc.note(func(st *ScrubStatus) {
			st.LastError = fmt.Sprintf("gen %d %s: peer copy: %v", id, si.Name, err)
		})
		sc.miss(id, si.Name, committed)
		return
	}
	quarantined, rerr := sc.st.repairSegment(id, si, data)
	if rerr != nil {
		if errors.Is(rerr, ErrGenGone) {
			sc.note(func(st *ScrubStatus) { st.Collected++ })
			sc.clearMiss(id, si.Name)
			return
		}
		sc.note(func(st *ScrubStatus) {
			st.LastError = fmt.Sprintf("gen %d %s: repair: %v", id, si.Name, rerr)
		})
		sc.miss(id, si.Name, committed)
		return
	}
	sc.note(func(st *ScrubStatus) {
		st.Repaired++
		if quarantined {
			st.Quarantined++
		}
		st.LastRepair = fmt.Sprintf("gen %d %s", id, si.Name)
	})
	sc.clearMiss(id, si.Name)
}

func (sc *Scrubber) note(f func(*ScrubStatus)) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	f(&sc.status)
}

// miss records one unrepaired detection and, once a segment has
// missed QuarantineAfter consecutive cycles, moves the whole
// generation aside — unless it is the only committed one.
func (sc *Scrubber) miss(id int64, what string, committed int) {
	key := fmt.Sprintf("%d/%s", id, what)
	sc.mu.Lock()
	sc.status.Unrepaired++
	sc.misses[key]++
	hit := sc.cfg.QuarantineAfter > 0 && sc.misses[key] >= sc.cfg.QuarantineAfter
	sc.mu.Unlock()
	if !hit || committed <= 1 {
		return
	}
	if err := sc.st.QuarantineGeneration(id); err != nil {
		sc.note(func(st *ScrubStatus) {
			st.LastError = fmt.Sprintf("gen %d: quarantine: %v", id, err)
		})
		return
	}
	sc.mu.Lock()
	sc.status.GenerationsQuarantined++
	prefix := fmt.Sprintf("%d/", id)
	for k := range sc.misses {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			delete(sc.misses, k)
		}
	}
	sc.mu.Unlock()
}

func (sc *Scrubber) clearMiss(id int64, what string) {
	key := fmt.Sprintf("%d/%s", id, what)
	sc.mu.Lock()
	delete(sc.misses, key)
	sc.mu.Unlock()
}

// repairSegment atomically replaces one committed segment with
// verified replacement bytes: the corrupt original moves into
// quarantine/ (when still present), the replacement is written and
// fsynced beside the generation, then renamed into place with a
// directory sync. It runs under the store lock so it cannot
// interleave with Save, InstallStaged, or GC; a generation GC'd meanwhile
// returns ErrGenGone untouched. A crash between the quarantine move
// and the rename leaves the segment missing — exactly the state
// Load's fall-back and the next scrub cycle already handle.
func (s *Store) repairSegment(id int64, si SegmentInfo, data []byte) (quarantined bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	if _, err := os.Stat(filepath.Join(s.dir, manifestName(id))); err != nil {
		return false, fmt.Errorf("%w: generation %d", ErrGenGone, id)
	}
	genDir := filepath.Join(s.dir, genDirName(id))
	final := filepath.Join(genDir, si.Name)
	qdir := filepath.Join(s.dir, quarantineDirName)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return false, fmt.Errorf("store: creating quarantine dir: %w", err)
	}
	qdst := filepath.Join(qdir, genDirName(id)+"-"+si.Name)
	switch err := os.Rename(final, qdst); {
	case err == nil:
		quarantined = true
	case os.IsNotExist(err):
		// Nothing on disk to preserve (the corruption was a missing
		// file); the repair still lands below.
	default:
		return false, fmt.Errorf("store: quarantining %s: %w", si.Name, err)
	}
	tmp := final + ".tmp"
	if err := s.writeFileSync(tmp, data); err != nil {
		return quarantined, err
	}
	if err := os.Rename(tmp, final); err != nil {
		return quarantined, fmt.Errorf("store: committing repaired segment: %w", err)
	}
	if err := syncDir(genDir); err != nil {
		return quarantined, fmt.Errorf("store: syncing %s: %w", genDir, err)
	}
	return quarantined, nil
}

// QuarantineGeneration moves one committed generation — manifest and
// segment directory — into the store's quarantine/
// subdirectory, uncommitting it. The manifest moves first, so a crash
// mid-quarantine leaves at worst an orphan segment directory, which
// GC already sweeps. Quarantined artifacts are invisible to Load,
// List, Fsck, and GC; operators inspect or delete them offline.
// A generation with nothing on disk returns ErrGenGone.
func (s *Store) QuarantineGeneration(id int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if id <= 0 {
		return fmt.Errorf("store: bad generation id %d", id)
	}
	qdir := filepath.Join(s.dir, quarantineDirName)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("store: creating quarantine dir: %w", err)
	}
	moved := false
	for _, name := range []string{manifestName(id), genDirName(id)} {
		src := filepath.Join(s.dir, name)
		if _, err := os.Stat(src); err != nil {
			continue
		}
		dst := filepath.Join(qdir, name)
		os.RemoveAll(dst) // a prior quarantine of a reused id
		if err := os.Rename(src, dst); err != nil {
			return fmt.Errorf("store: quarantining %s: %w", name, err)
		}
		moved = true
	}
	if !moved {
		return fmt.Errorf("%w: generation %d", ErrGenGone, id)
	}
	syncDir(s.dir)
	return nil
}
