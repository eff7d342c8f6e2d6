package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"hftnetview/internal/store"
	"hftnetview/internal/synth"
)

// statszBody is the slice of the replica /statsz payload these tests
// read: the generation identity plus the puller's self-report.
type statszBody struct {
	Generation *struct {
		StoreGeneration int64  `json:"store_generation"`
		CorpusSHA256    string `json:"corpus_sha256"`
	} `json:"generation"`
	Extra struct {
		Pull PullStatus `json:"pull"`
	} `json:"extra"`
}

// TestPullerInstallsAndServes: a fresh replica pulls the primary's
// generation, verifies it, goes live with it, and answers queries
// stamped with the same identity the primary persisted.
func TestPullerInstallsAndServes(t *testing.T) {
	pst, _, base := newPrimary(t, corpus(t), 32<<10)
	p, srv, rst := newReplica(t, base, nil)

	installed, err := p.PullOnce(context.Background())
	if err != nil || !installed {
		t.Fatalf("first PullOnce = (%v, %v), want a fresh install", installed, err)
	}

	// Replica store now holds the same generation, byte-comparable.
	pid, _ := pst.LatestID()
	rid, _ := rst.LatestID()
	if pid != rid {
		t.Fatalf("replica at generation %d, primary at %d", rid, pid)
	}
	pm, _, err := pst.ExportManifest(pid)
	if err != nil {
		t.Fatal(err)
	}
	rm, _, err := rst.ExportManifest(rid)
	if err != nil {
		t.Fatal(err)
	}
	if string(pm) != string(rm) {
		t.Error("replica manifest differs from primary's")
	}

	// The serve layer went live with it: /statsz identity matches and
	// queries answer with the generation headers.
	rep := httptest.NewServer(srv.Handler())
	defer rep.Close()
	stats, code := getJSON[statszBody](t, rep.Client(), rep.URL+"/statsz")
	if code != 200 || stats.Generation == nil || stats.Generation.StoreGeneration != pid {
		t.Fatalf("/statsz generation = %+v (status %d), want store generation %d", stats.Generation, code, pid)
	}
	if stats.Extra.Pull.Installs != 1 || stats.Extra.Pull.Generation != pid {
		t.Errorf("/statsz pull = %+v, want 1 install at generation %d", stats.Extra.Pull, pid)
	}
	resp, err := rep.Client().Get(rep.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/snapshot on replica = %d", resp.StatusCode)
	}

	// A second poll is a no-op: already up to date.
	installed, err = p.PullOnce(context.Background())
	if err != nil || installed {
		t.Fatalf("second PullOnce = (%v, %v), want clean no-op", installed, err)
	}
	if st := p.Status(); st.Polls != 2 || st.Attempts != 1 || st.Installs != 1 {
		t.Errorf("status after two polls = %+v", st)
	}
}

// TestPullerRejectsCorruptShipment is the replica-side verification
// rejection drill: every corruption profile's byte-level analogue is
// injected into segment downloads at rate 1, and the replica must (a)
// refuse every poisoned install, (b) keep serving its previous
// generation untouched, and (c) report the rejections on /statsz.
// Clearing the fault then lets the same replica install the same
// generation cleanly — rejection is quarantine, not a death spiral.
func TestPullerRejectsCorruptShipment(t *testing.T) {
	pst, _, base := newPrimary(t, corpus(t), 32<<10)

	// Replica first syncs a clean generation — the fallback corpus.
	faulty := NewFaultyTransport(nil, synth.Profile{Name: "clean"}, 1)
	client := clientWith(faulty)
	p, srv, rst := newReplica(t, base, client)
	if installed, err := p.PullOnce(context.Background()); err != nil || !installed {
		t.Fatalf("clean bootstrap pull = (%v, %v)", installed, err)
	}
	goodGen, _ := rst.LatestID()

	// Primary publishes a new generation the replica shares no segment
	// digests with (local reuse must not bypass the hostile wire).
	if _, err := pst.Save(alteredCorpus(t), "update under fire"); err != nil {
		t.Fatal(err)
	}
	for _, profile := range synth.Profiles() {
		faulty.Profile = profile
		faulty.SetRate(1)
		before := faulty.Corrupted.Load()
		installed, err := p.PullOnce(context.Background())
		if installed || err == nil {
			t.Fatalf("profile %s: poisoned pull = (%v, %v), want rejection", profile.Name, installed, err)
		}
		if faulty.Corrupted.Load() == before {
			t.Fatalf("profile %s: transport injected nothing — test is vacuous", profile.Name)
		}
		if got, _ := rst.LatestID(); got != goodGen {
			t.Fatalf("profile %s: replica store at %d after rejection, want untouched %d", profile.Name, got, goodGen)
		}
	}

	// The previous generation kept serving, and /statsz owns up to
	// every rejection.
	rep := httptest.NewServer(srv.Handler())
	defer rep.Close()
	stats, _ := getJSON[statszBody](t, rep.Client(), rep.URL+"/statsz")
	if stats.Generation == nil || stats.Generation.StoreGeneration != goodGen {
		t.Fatalf("replica serving %+v after rejections, want generation %d", stats.Generation, goodGen)
	}
	wantRejections := int64(len(synth.Profiles()))
	if stats.Extra.Pull.Rejections != wantRejections {
		t.Errorf("/statsz pull.rejections = %d, want %d", stats.Extra.Pull.Rejections, wantRejections)
	}
	if stats.Extra.Pull.LastError == "" {
		t.Error("/statsz pull.last_error empty after a rejection")
	}

	// Fault lifted: the next poll installs the update cleanly.
	faulty.SetRate(0)
	if installed, err := p.PullOnce(context.Background()); err != nil || !installed {
		t.Fatalf("post-fault pull = (%v, %v), want clean install", installed, err)
	}
	newGen, _ := pst.LatestID()
	if got, _ := rst.LatestID(); got != newGen {
		t.Fatalf("replica at %d after recovery, want %d", newGen, got)
	}
	stats, _ = getJSON[statszBody](t, rep.Client(), rep.URL+"/statsz")
	if stats.Extra.Pull.LastError != "" {
		t.Errorf("pull.last_error = %q after clean install, want cleared", stats.Extra.Pull.LastError)
	}
}

// TestPullerCorruptManifest: a garbled manifest is rejected before any
// segment is fetched.
func TestPullerCorruptManifest(t *testing.T) {
	_, _, base := newPrimary(t, corpus(t), 32<<10)
	faulty := NewFaultyTransport(nil, synth.Profiles()[0], 99)
	faulty.CorruptManifests = true
	faulty.SetRate(1)
	p, _, rst := newReplica(t, base, clientWith(faulty))
	installed, err := p.PullOnce(context.Background())
	if installed || err == nil {
		t.Fatalf("pull with corrupt manifest = (%v, %v), want rejection", installed, err)
	}
	if got, _ := rst.LatestID(); got != 0 {
		t.Fatalf("replica committed generation %d from a corrupt manifest", got)
	}
	if st := p.Status(); st.Rejections != 1 {
		t.Errorf("rejections = %d, want 1", st.Rejections)
	}
}

// resealManifest re-frames a real manifest after mutate edits its
// decoded JSON body, with a correct checksum line.
func resealManifest(t *testing.T, mb []byte, mutate func(m map[string]any)) []byte {
	t.Helper()
	line, _, _ := bytes.Cut(mb, []byte("\n"))
	var m map[string]any
	if err := json.Unmarshal(line, &m); err != nil {
		t.Fatal(err)
	}
	mutate(m)
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	return fmt.Appendf(nil, "%s\n%s\n", body, hex.EncodeToString(sum[:]))
}

// TestPullerRejectsMalformedManifest: a correctly checksummed manifest
// naming a non-positive generation or a segment name Save cannot write
// fails the pull as exactly one attempt and one rejection, before any
// segment is requested; a five-digit segment name is not a rejection.
func TestPullerRejectsMalformedManifest(t *testing.T) {
	pst, _, _ := newPrimary(t, corpus(t), 32<<10)
	mb, _, err := pst.ExportManifest(0)
	if err != nil {
		t.Fatal(err)
	}
	segName := func(name string) func(map[string]any) {
		return func(m map[string]any) { m["segments"].([]any)[0].(map[string]any)["name"] = name }
	}
	for _, tc := range []struct {
		name   string
		mutate func(map[string]any)
		reject bool
	}{
		{"generation 0", func(m map[string]any) { m["generation"] = 0 }, true},
		{"generation -1", func(m map[string]any) { m["generation"] = -1 }, true},
		{"traversal", segName("../seg-0001.dat"), true},
		{"short name", segName("seg-1.dat"), true},
		{"nested name", segName("seg-0001.dat/x"), true},
		{"five digits", segName("seg-10000.dat"), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forged := resealManifest(t, mb, tc.mutate)
			var segmentGets atomic.Int64
			shipper := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == shipPrefix+"manifest" {
					w.Write(forged)
					return
				}
				segmentGets.Add(1)
				http.NotFound(w, r)
			}))
			defer shipper.Close()
			p, _, rst := newReplica(t, shipper.URL, nil)

			installed, err := p.PullOnce(context.Background())
			if installed || err == nil {
				t.Fatalf("PullOnce = (%v, %v), want a failed pull", installed, err)
			}
			st := p.Status()
			if !tc.reject {
				if st.Rejections != 0 || segmentGets.Load() == 0 {
					t.Fatalf("accepted manifest: rejections %d, segment requests %d; want 0 and > 0",
						st.Rejections, segmentGets.Load())
				}
				return
			}
			if !errors.Is(err, store.ErrVerify) {
				t.Errorf("err = %v, want ErrVerify", err)
			}
			if st.Attempts != 1 || st.Rejections != 1 {
				t.Errorf("attempts %d, rejections %d; want 1 and 1", st.Attempts, st.Rejections)
			}
			if n := segmentGets.Load(); n != 0 {
				t.Errorf("%d segment requests for a rejected manifest", n)
			}
			if got, _ := rst.LatestID(); got != 0 {
				t.Errorf("replica committed generation %d", got)
			}
		})
	}
}

// TestCorruptBytesAlwaysMutates: every mutation kind must actually
// change the buffer, or the fault injector silently tests nothing.
func TestCorruptBytesAlwaysMutates(t *testing.T) {
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 31)
	}
	for kind := mutGarble; kind <= mutShred; kind++ {
		for seed := uint64(1); seed < 50; seed++ {
			out := corruptBytes(data, kind, seed)
			if string(out) == string(data) {
				t.Fatalf("kind %d seed %d: corruptBytes returned input unchanged", kind, seed)
			}
		}
	}
}
