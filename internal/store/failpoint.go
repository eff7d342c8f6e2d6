package store

import "errors"

// ErrFailpoint is the sentinel returned by armed failpoint hooks to
// simulate a crash: Save aborts immediately and — deliberately — leaves
// whatever is already on disk exactly as a real crash would, so the
// crash-consistency tests recover from authentic debris. Any hook error
// not wrapping ErrFailpoint is treated as an ordinary I/O failure and
// the in-progress temp directory is cleaned up.
var ErrFailpoint = errors.New("store: injected failpoint")

// Failpoints are the injectable crash hooks threaded through Save's
// publication protocol, in the order they fire:
//
//	segment bytes written ──BeforeFsync──▶ segment fsynced
//	all segments fsynced ──BeforeManifest──▶ segment dir renamed into place
//	manifest temp written+fsynced ──MidRename──▶ manifest renamed (COMMIT)
//	manifest renamed ──AfterPublish──▶ Save returns
//
// A nil hook is a no-op. Hooks returning an error wrapping ErrFailpoint
// simulate a kill at that instant. AfterPublish fires after the commit
// point; tests use it to flip bits in published files (the at-rest
// corruption recovery must catch) — an error from it still aborts Save,
// but the generation is already durable.
type Failpoints struct {
	// BeforeFsync fires before each segment file fsync, with the
	// segment's path. A crash here may leave a torn segment.
	BeforeFsync func(path string) error
	// BeforeManifest fires after every segment is fsynced but before
	// the manifest exists in any form. A crash here leaves a complete
	// segment directory that no manifest references.
	BeforeManifest func() error
	// MidRename fires after the manifest temp file is written and
	// fsynced but before the atomic rename that commits it. A crash
	// here leaves a *.tmp manifest recovery must ignore.
	MidRename func(tmpPath, finalPath string) error
	// AfterPublish fires after the manifest rename (the generation is
	// committed), with the generation's segment directory and manifest
	// path. Bit-flip corruption is injected here.
	AfterPublish func(genDir, manifestPath string) error
}

func callFP(hook func() error) error {
	if hook == nil {
		return nil
	}
	return hook()
}

// StagingFailpoints are the crash hooks threaded through the staging
// area's per-segment durability protocol (staging.go), in the order
// they fire:
//
//	fetched bytes appended ──MidSegmentWrite──▶ partial grows
//	partial verified + renamed + dir synced ──AfterVerify──▶ segment counts as done
//
// A crash at MidSegmentWrite leaves an untrusted partial a resumed
// pull must range-fetch past and re-verify whole. A crash at
// AfterVerify leaves a verified final-named segment, which OpenStaging
// re-hashes and adopts.
type StagingFailpoints struct {
	// MidSegmentWrite fires before each append to a segment's partial
	// file, with the segment name and the offset the bytes would land
	// at.
	MidSegmentWrite func(name string, off int64) error
	// AfterVerify fires after a segment is verified, renamed to its
	// final name and its directory synced.
	AfterVerify func(name string) error
}

func (fp StagingFailpoints) midWrite(name string, off int64) error {
	if fp.MidSegmentWrite == nil {
		return nil
	}
	return fp.MidSegmentWrite(name, off)
}

func callNameFP(hook func(name string) error, name string) error {
	if hook == nil {
		return nil
	}
	return hook(name)
}
