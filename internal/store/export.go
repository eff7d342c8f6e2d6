package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"time"
)

// Generation shipping: the manifest + segment files ARE the replication
// wire format. A primary exports the raw bytes of its committed
// artifacts (ExportManifest, SegmentHandle); a replica stages them
// through OpenStaging, where CheckSegment holds every segment to the
// manifest's exact size and SHA-256, and InstallStaged deep-verifies
// the assembled set (block CRCs, record decode, license validation)
// before committing it with the same temp-dir/rename protocol Save
// uses. A generation that fails any check is never committed, so a
// replica's store only ever contains fully-verified generations —
// exactly the invariant warm restart already depends on.

// ErrGenGone marks a read of a generation that is no longer (fully) on
// disk — typically a concurrent GC removed it between the reader
// learning its id and opening its files. It is retryable: the caller
// should re-list and pull a newer generation.
var ErrGenGone = errors.New("store: generation no longer on disk")

// ErrVerify marks shipped bytes that failed verification: a malformed
// manifest, or segment bytes that do not match what the manifest
// promises. Retrying the same bytes is pointless; re-downloading may
// succeed.
var ErrVerify = errors.New("store: shipped generation failed verification")

// IsRetryable reports whether err is a transient read-side failure (a
// generation swept by concurrent GC) that a fresh pull can get past.
func IsRetryable(err error) bool { return errors.Is(err, ErrGenGone) }

// LatestID returns the newest committed generation id, or 0 for an
// empty store.
func (s *Store) LatestID() (int64, error) {
	ids, err := s.manifestIDs()
	if err != nil {
		return 0, err
	}
	if len(ids) == 0 {
		return 0, nil
	}
	return ids[0], nil
}

// ExportManifest returns the raw bytes of one committed manifest file
// (id <= 0 means the newest). The bytes are self-checksummed and carry
// every segment's name, exact size, and SHA-256 — they are the
// replication wire format, handed to a replica's OpenStaging verbatim.
// A missing manifest is ErrGenGone (retryable).
func (s *Store) ExportManifest(id int64) ([]byte, int64, error) {
	if id <= 0 {
		latest, err := s.LatestID()
		if err != nil {
			return nil, 0, err
		}
		if latest == 0 {
			return nil, 0, fmt.Errorf("%w: store has no committed generation", ErrGenGone)
		}
		id = latest
	}
	data, err := os.ReadFile(filepath.Join(s.dir, manifestName(id)))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, fmt.Errorf("%w: generation %d manifest", ErrGenGone, id)
		}
		return nil, 0, fmt.Errorf("store: reading manifest %d: %w", id, err)
	}
	return data, id, nil
}

// segNameRE is the shape of every segment file name Save can write
// (seg-%04d.dat, which widens past four digits); a manifest or segment
// request naming anything else is rejected before touching the
// filesystem (no separators, no traversal).
var segNameRE = regexp.MustCompile(`^seg-[0-9]{4,}\.dat$`)

// GenDigest returns the corpus digest one committed manifest records —
// the cheap identity check pullers use to tell a divergent branch from
// an already-installed generation. A missing manifest is ErrGenGone.
func (s *Store) GenDigest(id int64) (string, error) {
	m, err := s.loadManifest(id)
	if err != nil {
		return "", err
	}
	return m.CorpusSHA256, nil
}

// ParseManifest self-verifies raw manifest bytes (as returned by
// ExportManifest or fetched over the wire) and returns the generation's
// public description — how a replica learns a shipped generation's id
// and segment list before deciding to pull it. Malformed bytes wrap
// ErrVerify.
func ParseManifest(data []byte) (*GenInfo, error) {
	m, err := parseManifestBytes(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrVerify, err)
	}
	gi := m.info()
	return &gi, nil
}

// SegmentHandle resolves one committed segment to its on-disk path,
// manifest entry, and commit time — what a shipper needs to stream it
// with http.ServeContent instead of loading it whole. The path points
// into an immutable generation directory; concurrent GC maps to
// ErrGenGone at open time on the caller's side.
func (s *Store) SegmentHandle(id int64, name string) (string, SegmentInfo, time.Time, error) {
	if id <= 0 || !segNameRE.MatchString(name) {
		return "", SegmentInfo{}, time.Time{}, fmt.Errorf("store: bad segment reference %d/%q", id, name)
	}
	m, err := s.loadManifest(id)
	if err != nil {
		return "", SegmentInfo{}, time.Time{}, err
	}
	for _, si := range m.Segments {
		if si.Name == name {
			return filepath.Join(s.dir, genDirName(id), name), si, m.CreatedAt, nil
		}
	}
	// A well-formed name the manifest does not list: the caller's view
	// of the generation is stale — retryable, like a GC'd generation.
	return "", SegmentInfo{}, time.Time{}, fmt.Errorf("%w: generation %d segment %s", ErrGenGone, id, name)
}
