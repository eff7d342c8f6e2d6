package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"hftnetview/internal/synth"
)

func TestExportInstallRoundTrip(t *testing.T) {
	db := corpus(t)
	primary := open(t, t.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(8))
	gi, err := primary.Save(db, "primary gen")
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if len(gi.Segments) < 2 {
		t.Fatalf("want a multi-segment generation, got %d segments", len(gi.Segments))
	}

	mb, id, err := primary.ExportManifest(0)
	if err != nil {
		t.Fatalf("export manifest: %v", err)
	}
	if id != gi.ID {
		t.Fatalf("exported generation %d, want %d", id, gi.ID)
	}
	pgi, err := ParseManifest(mb)
	if err != nil {
		t.Fatalf("parse manifest: %v", err)
	}
	if pgi.ID != gi.ID || pgi.CorpusSHA256 != gi.CorpusSHA256 || len(pgi.Segments) != len(gi.Segments) {
		t.Fatalf("parsed manifest %+v does not match saved %+v", pgi, gi)
	}

	replica := open(t, t.TempDir())
	igi, idb, err := stagedPull(t, replica, primary, id, mb, &fetchLog{})
	if err != nil {
		t.Fatalf("install: %v", err)
	}
	if igi.ID != gi.ID || igi.CorpusSHA256 != gi.CorpusSHA256 {
		t.Fatalf("installed %+v, want %+v", igi, gi)
	}
	if !bytes.Equal(bulkBytes(t, idb), bulkBytes(t, db)) {
		t.Fatal("installed corpus differs from the shipped one")
	}

	// The replica's store is now warm-bootable on its own.
	back, lgi, _, err := replica.Load()
	if err != nil {
		t.Fatalf("replica load: %v", err)
	}
	if lgi.ID != gi.ID || !bytes.Equal(bulkBytes(t, back), bulkBytes(t, db)) {
		t.Fatal("replica warm boot does not reproduce the shipped corpus")
	}

	// Re-installing the same generation is refused (idempotence).
	if _, _, err := stagedPull(t, replica, primary, id, mb, &fetchLog{}); !errors.Is(err, os.ErrExist) {
		t.Fatalf("re-install: err = %v, want os.ErrExist", err)
	}
}

// TestInstallRejectsCorruptDownload flips bits in (or truncates) a
// fetched segment and asserts the staged install refuses to commit
// anything, and keeps no partial of the rejected bytes.
func TestInstallRejectsCorruptDownload(t *testing.T) {
	db := corpus(t)
	primary := open(t, t.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(8))
	gi, err := primary.Save(db, "primary gen")
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	mb, id, err := primary.ExportManifest(0)
	if err != nil {
		t.Fatalf("export manifest: %v", err)
	}

	for _, mode := range []string{"bitflip", "truncate"} {
		replica := open(t, t.TempDir())
		target := gi.Segments[len(gi.Segments)/2].Name
		wire := &fetchLog{corrupt: func(name string, data []byte) []byte {
			if name != target {
				return data
			}
			if mode == "bitflip" {
				return synth.FlipBits(data, 7, 3)
			}
			return data[:len(data)/2]
		}}
		_, _, err := stagedPull(t, replica, primary, id, mb, wire)
		if !errors.Is(err, ErrVerify) {
			t.Fatalf("%s: install err = %v, want ErrVerify", mode, err)
		}
		// Nothing committed, no temp debris, and the rejected bytes
		// are not kept as a partial a resume could build on.
		if latest, _ := replica.LatestID(); latest != 0 {
			t.Fatalf("%s: replica committed generation %d from corrupt download", mode, latest)
		}
		ents, _ := os.ReadDir(replica.Dir())
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), "tmp-gen-") || strings.HasPrefix(e.Name(), "MANIFEST-") {
				t.Errorf("%s: debris left in replica store: %s", mode, e.Name())
			}
		}
		rep, err := replica.StagingReportFor(id)
		if err != nil {
			t.Fatalf("%s: staging report: %v", mode, err)
		}
		if _, ok := rep.Partial[target]; ok {
			t.Errorf("%s: partial of the rejected segment %s survived", mode, target)
		}
	}
}

// TestGCReaderRace is the issue's GC-vs-concurrent-reader guarantee: a
// replica mid-pull of the oldest generation races `gc -keep`; the pull
// must either complete from intact files or fail cleanly with a
// retryable error — never hand over a half-deleted generation.
func TestGCReaderRace(t *testing.T) {
	db := corpus(t)
	primary := open(t, t.TempDir(), WithSegmentTarget(8<<10), WithBlockLicenses(8))
	for i := 0; i < 3; i++ {
		if _, err := primary.Save(db, fmt.Sprintf("gen %d", i+1)); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}

	// Deterministic interleaving first: manifest exported, then GC
	// sweeps the generation, then the segment read lands on air.
	mb, _, err := primary.ExportManifest(1)
	if err != nil {
		t.Fatalf("export manifest 1: %v", err)
	}
	pgi, err := ParseManifest(mb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.GC(1); err != nil {
		t.Fatalf("gc: %v", err)
	}
	if _, _, _, err := primary.SegmentHandle(1, pgi.Segments[0].Name); !IsRetryable(err) {
		t.Fatalf("segment read after GC: err = %v, want retryable ErrGenGone", err)
	}
	if _, _, err := primary.ExportManifest(1); !IsRetryable(err) {
		t.Fatalf("manifest read after GC: err = %v, want retryable ErrGenGone", err)
	}

	// Now the racing version: a replica pulls the oldest live
	// generation in a loop while GC(keep=1) runs concurrently after
	// every fresh Save. Every pull must either install a fully-verified
	// corpus or fail with an error the puller can classify (retryable
	// gone, or a fetch error wrapping it); ErrVerify here would mean a
	// half-deleted generation leaked through the read side. A staged
	// pull fsyncs each segment and then its directory, so it can
	// outlast one churn cycle; like the fleet's puller, a replica keeps
	// its staging across retryable failures, the next pull harvests the
	// segments already verified (every churn generation holds the same
	// corpus), and only the still-missing ones race GC again. After an
	// install the next pull starts from a cold replica.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn: new generations + GC pressure
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := primary.Save(db, fmt.Sprintf("churn %d", i)); err != nil {
				t.Errorf("churn save: %v", err)
				return
			}
			if _, err := primary.GC(1); err != nil {
				t.Errorf("churn gc: %v", err)
				return
			}
		}
	}()

	installed, retried := 0, 0
	replica := open(t, t.TempDir())
	for i := 0; i < 40; i++ {
		// Pull whatever is oldest right now — maximally exposed to GC.
		ids, err := primary.manifestIDs()
		if err != nil || len(ids) == 0 {
			continue
		}
		oldest := ids[len(ids)-1]
		mb, _, err := primary.ExportManifest(oldest)
		if err != nil {
			if !IsRetryable(err) {
				t.Fatalf("pull %d: manifest export failed non-retryably: %v", i, err)
			}
			retried++
			continue
		}
		_, idb, err := stagedPull(t, replica, primary, oldest, mb, &fetchLog{})
		switch {
		case err == nil:
			if !bytes.Equal(bulkBytes(t, idb), bulkBytes(t, db)) {
				t.Fatalf("pull %d: installed corpus differs from the published one", i)
			}
			installed++
			replica = open(t, t.TempDir())
		case IsRetryable(err):
			retried++
		case errors.Is(err, ErrVerify):
			t.Fatalf("pull %d: verification failure under GC churn (half-deleted generation leaked): %v", i, err)
		default:
			t.Fatalf("pull %d: unexpected install error: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("gc race: %d pulls installed verified, %d failed retryably", installed, retried)
	if installed == 0 {
		t.Error("no pull ever completed — the race harness starved the reader")
	}
}

// reseal re-frames a real manifest after mutate edits its decoded
// body, with a correct checksum: only the one shape check in
// parseManifestBytes stands between the result and every consumer.
func reseal(t testing.TB, mb []byte, mutate func(*manifest)) []byte {
	t.Helper()
	body, _, _ := bytes.Cut(mb, []byte("\n"))
	var m manifest
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	mutate(&m)
	body, err := json.Marshal(&m)
	if err != nil {
		t.Fatal(err)
	}
	return sealManifest(body)
}

// malformedManifests are the checksummed manifest shapes no consumer
// may accept.
var malformedManifests = []struct {
	name   string
	mutate func(*manifest)
}{
	{"generation 0", func(m *manifest) { m.Generation = 0 }},
	{"generation -1", func(m *manifest) { m.Generation = -1 }},
	{"traversal", func(m *manifest) { m.Segments[0].Name = "../seg-0001.dat" }},
	{"short name", func(m *manifest) { m.Segments[0].Name = "seg-1.dat" }},
	{"nested name", func(m *manifest) { m.Segments[0].Name = "seg-0001.dat/x" }},
}

// TestManifestShapeChecked: a correctly checksummed manifest naming a
// non-positive generation or a segment name Save cannot write is
// ErrVerify from both consumers of shipped manifest bytes, and the
// refused OpenStaging creates nothing; a five-digit segment name, which
// Save writes past 9999 segments, is accepted.
func TestManifestShapeChecked(t *testing.T) {
	src := open(t, t.TempDir(), WithSegmentTarget(16<<10), WithBlockLicenses(8))
	gi, err := src.Save(corpus(t), "shape")
	if err != nil {
		t.Fatal(err)
	}
	mb, _, err := src.ExportManifest(gi.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range malformedManifests {
		t.Run(tc.name, func(t *testing.T) {
			bad := reseal(t, mb, tc.mutate)
			if _, err := ParseManifest(bad); !errors.Is(err, ErrVerify) {
				t.Errorf("ParseManifest = %v, want ErrVerify", err)
			}
			dst := open(t, t.TempDir())
			if _, err := dst.OpenStaging(bad); !errors.Is(err, ErrVerify) {
				t.Errorf("OpenStaging = %v, want ErrVerify", err)
			}
			if ents, _ := os.ReadDir(dst.Dir()); len(ents) != 0 {
				t.Errorf("refused OpenStaging left %s behind", ents[0].Name())
			}
		})
	}

	wide := reseal(t, mb, func(m *manifest) { m.Segments[0].Name = "seg-10000.dat" })
	if _, err := ParseManifest(wide); err != nil {
		t.Fatalf("ParseManifest(seg-10000.dat) = %v, want accepted", err)
	}
	stg, err := open(t, t.TempDir()).OpenStaging(wide)
	if err != nil {
		t.Fatalf("OpenStaging(seg-10000.dat) = %v, want accepted", err)
	}
	stg.Close()
}

// FuzzParseManifest feeds ParseManifest raw bytes, and a JSON body the
// target checksums itself so mutations get past the SHA-256 line. It
// must never panic, must refuse with ErrVerify, and every manifest it
// accepts names a positive generation and only segment names Save can
// write.
func FuzzParseManifest(f *testing.F) {
	src := open(f, f.TempDir())
	gi, err := src.Save(corpus(f), "fuzz seed")
	if err != nil {
		f.Fatal(err)
	}
	mb, _, err := src.ExportManifest(gi.ID)
	if err != nil {
		f.Fatal(err)
	}
	body, _, _ := bytes.Cut(mb, []byte("\n"))
	f.Add(mb, body)
	gen0, _, _ := bytes.Cut(reseal(f, mb, func(m *manifest) { m.Generation = 0 }), []byte("\n"))
	f.Add([]byte(nil), gen0)
	f.Fuzz(func(t *testing.T, raw, body []byte) {
		for _, data := range [][]byte{raw, sealManifest(body)} {
			gi, err := ParseManifest(data)
			if err != nil {
				if !errors.Is(err, ErrVerify) {
					t.Fatalf("refusal %v does not wrap ErrVerify", err)
				}
				continue
			}
			if gi.ID <= 0 {
				t.Fatalf("accepted generation %d", gi.ID)
			}
			for _, si := range gi.Segments {
				if !segNameRE.MatchString(si.Name) {
					t.Fatalf("accepted segment name %q", si.Name)
				}
			}
		}
	})
}
