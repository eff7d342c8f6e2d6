package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hftnetview/internal/store"
)

// expectSegmentGETs fails unless rec saw, since mark, exactly one
// segment GET to each named peer, in order, each for si from byte
// from[i] — a ranged one carrying the segment digest as its If-Range —
// and no other request. It returns the new mark.
func expectSegmentGETs(t *testing.T, rec *recordingTransport, mark int, si store.SegmentInfo, peers []string, from []int64) int {
	t.Helper()
	gets := rec.snapshot()[mark:]
	rec.mu.Lock()
	others := rec.others
	rec.mu.Unlock()
	if len(gets) != len(peers) || others != 0 {
		t.Fatalf("%d segment GETs %+v and %d other requests, want one segment GET to each of %v and nothing else",
			len(gets), gets, others, peers)
	}
	for i, g := range gets {
		wantIfRange := ""
		if from[i] > 0 {
			wantIfRange = `"` + si.SHA256 + `"`
		}
		if g.host != hostOf(peers[i]) || g.name != si.Name || g.off != from[i] || g.ifRange != wantIfRange {
			t.Errorf("GET %d = %+v, want %s from %s at offset %d, If-Range %q", i, g, si.Name, peers[i], from[i], wantIfRange)
		}
	}
	return mark + len(gets)
}

// servePeerCopy ships data as segment si of gen with the honest
// identity headers, whatever data holds — a peer whose disk rotted
// under its shipper. Ranges and If-Range are served like a Shipper's.
func servePeerCopy(t *testing.T, gen store.GenInfo, si store.SegmentInfo, data []byte) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != fmt.Sprintf("%ssegment/%d/%s", shipPrefix, gen.ID, si.Name) {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("X-Gen-Digest", gen.CorpusSHA256)
		w.Header().Set("X-Segment-SHA256", si.SHA256)
		w.Header().Set("ETag", `"`+si.SHA256+`"`)
		http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(data))
	}))
	t.Cleanup(srv.Close)
	return srv.URL
}

// flipLast returns a copy of data with its last byte flipped.
func flipLast(data []byte) []byte {
	out := bytes.Clone(data)
	out[len(out)-1] ^= 0x40
	return out
}

// cutFirst severs the first response passing through it after k body
// bytes, like a link dropped mid-transfer.
type cutFirst struct {
	k    int64
	done atomic.Bool
}

func (c *cutFirst) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && c.done.CompareAndSwap(false, true) {
		resp.Body = &cutBody{rc: resp.Body, remaining: c.k}
	}
	return resp, err
}

// TestRepairFromAsksEachPeerOnce: a repair asks its peers in order,
// one segment GET each and no manifest request, and never asks Self. A
// peer on another branch of the same generation id is refused on its
// X-Gen-Digest before a body byte is read, though its copy of this
// segment is byte-identical; a peer serving a flipped
// byte is refused on CheckSegment; the next honest peer repairs it.
func TestRepairFromAsksEachPeerOnce(t *testing.T) {
	pst, gi, good := newPrimary(t, corpus(t), 32<<10)
	si := gi.Segments[0]
	want := diskSegment(t, pst, gi.ID, si.Name)
	// Branches of one generation id share their unchanged segments, so
	// only the corpus digest tells this peer's copy apart.
	otherGen := *gi
	otherGen.CorpusSHA256 = strings.Repeat("0", 64)
	otherBranch := servePeerCopy(t, otherGen, si, want)
	flipped := servePeerCopy(t, *gi, si, flipLast(want))
	var selfAsked atomic.Int64
	self := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		selfAsked.Add(1)
		http.NotFound(w, r)
	}))
	defer self.Close()

	rec := &recordingTransport{}
	p := NewPuller(PullerConfig{Self: self.URL, Client: clientWith(rec)})
	ctx := context.Background()
	selfPeer := Replica{Name: "self", URL: self.URL}

	if _, err := p.RepairFrom(StaticPeers(selfPeer, Replica{Name: "other", URL: otherBranch}))(ctx, *gi, si); !errors.Is(err, store.ErrGenGone) {
		t.Fatalf("repair from another branch = %v, want refused on its X-Gen-Digest", err)
	}
	mark := expectSegmentGETs(t, rec, 0, si, []string{otherBranch}, []int64{0})
	if st := p.Status(); st.BytesFetched != 0 {
		t.Fatalf("bytes_fetched = %d after the other branch's answer, want 0: no byte of its body read", st.BytesFetched)
	}

	if _, err := p.RepairFrom(StaticPeers(Replica{Name: "flipped", URL: flipped}, selfPeer))(ctx, *gi, si); !errors.Is(err, store.ErrVerify) {
		t.Fatalf("repair from a flipped copy = %v, want refused on CheckSegment", err)
	}
	mark = expectSegmentGETs(t, rec, mark, si, []string{flipped}, []int64{0})

	got, err := p.RepairFrom(StaticPeers(selfPeer, Replica{Name: "other", URL: otherBranch},
		Replica{Name: "flipped", URL: flipped}, Replica{Name: "good", URL: good}))(ctx, *gi, si)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("repair = %d bytes, %v; want the %d published bytes", len(got), err, len(want))
	}
	expectSegmentGETs(t, rec, mark, si, []string{otherBranch, flipped, good}, []int64{0, 0, 0})
	if n := selfAsked.Load(); n != 0 {
		t.Errorf("Self was asked %d times", n)
	}
	// The two flipped bodies and the good one crossed the wire; the
	// other branch's never did.
	if st := p.Status(); st.BytesFetched != 3*si.Bytes || st.SegmentsFetched != 1 {
		t.Errorf("bytes_fetched %d, segments_fetched %d; want %d and 1", st.BytesFetched, st.SegmentsFetched, 3*si.Bytes)
	}
}

// TestRepairFromResumesCutTransfer: a repair cut after k bytes keeps
// them, and the next attempt asks for the rest with Range: bytes=k-
// and the segment digest as If-Range — no byte crosses the wire twice.
func TestRepairFromResumesCutTransfer(t *testing.T) {
	pst, gi, good := newPrimary(t, corpus(t), 32<<10)
	si := gi.Segments[0]
	want := diskSegment(t, pst, gi.ID, si.Name)
	k := si.Bytes / 3
	rec := &recordingTransport{base: &cutFirst{k: k}}
	p := NewPuller(PullerConfig{Client: clientWith(rec)})
	fetch := p.RepairFrom(StaticPeers(Replica{Name: "good", URL: good}))

	if _, err := fetch(context.Background(), *gi, si); !errors.Is(err, errLinkCut) {
		t.Fatalf("cut repair = %v, want the link cut", err)
	}
	got, err := fetch(context.Background(), *gi, si)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("resumed repair = %d bytes, %v; want the %d published bytes", len(got), err, len(want))
	}
	expectSegmentGETs(t, rec, 0, si, []string{good, good}, []int64{0, k})
	if st := p.Status(); st.BytesFetched != si.Bytes {
		t.Errorf("bytes_fetched = %d, want the segment's %d: the resume re-fetched bytes it held", st.BytesFetched, si.Bytes)
	}
}

// TestRepairFromDropsPoisonedResume: a resumed copy that fails
// CheckSegment drops the held bytes, so the next attempt, to the next
// peer, starts from byte zero.
func TestRepairFromDropsPoisonedResume(t *testing.T) {
	pst, gi, good := newPrimary(t, corpus(t), 32<<10)
	si := gi.Segments[0]
	want := diskSegment(t, pst, gi.ID, si.Name)
	flipped := servePeerCopy(t, *gi, si, flipLast(want))
	k := si.Bytes / 3
	rec := &recordingTransport{base: &cutFirst{k: k}}
	p := NewPuller(PullerConfig{Client: clientWith(rec)})
	fetch := p.RepairFrom(StaticPeers(Replica{Name: "cut", URL: good},
		Replica{Name: "flipped", URL: flipped}, Replica{Name: "good", URL: good}))

	got, err := fetch(context.Background(), *gi, si)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("repair = %d bytes, %v; want the %d published bytes", len(got), err, len(want))
	}
	expectSegmentGETs(t, rec, 0, si, []string{good, flipped, good}, []int64{0, k, 0})
}

// TestRepairFromSharesPullBudget: repair reads wait on the puller's
// MaxBytesPerSec bucket and count in its wire and budget counters.
func TestRepairFromSharesPullBudget(t *testing.T) {
	pst, gi, good := newPrimary(t, corpus(t), 32<<10)
	si := gi.Segments[0]
	if si.Bytes <= throttleChunk {
		t.Fatalf("segment %s is %d bytes, want more than the bucket's smallest burst", si.Name, si.Bytes)
	}
	p := NewPuller(PullerConfig{Client: clientWith(nil), MaxBytesPerSec: si.Bytes * 3 / 4})
	got, err := p.RepairFrom(StaticPeers(Replica{Name: "good", URL: good}))(context.Background(), *gi, si)
	if err != nil || !bytes.Equal(got, diskSegment(t, pst, gi.ID, si.Name)) {
		t.Fatalf("throttled repair = %d bytes, %v", len(got), err)
	}
	if st := p.Status(); st.ThrottleWaits == 0 || st.BytesFetched != si.Bytes {
		t.Errorf("throttle_waits %d, bytes_fetched %d; want > 0 and %d", st.ThrottleWaits, st.BytesFetched, si.Bytes)
	}
}

// scriptedPeers is an in-memory transport answering segment GETs from
// a script, so no socket opens: each answer takes four bytes — status,
// header modes, body kind, a parameter — and a raw body takes its bytes
// from the script too. It records the most body bytes read from any one
// answer, and whether Self was asked.
type scriptedPeers struct {
	seg    []byte
	gen    store.GenInfo
	si     store.SegmentInfo
	self   string
	script []byte

	selfAsked bool
	maxRead   int64
}

// headerValue is a header's right value, no header, or a wrong one.
func headerValue(mode byte, right, wrong string) string {
	switch mode % 3 {
	case 0:
		return right
	case 1:
		return ""
	}
	return wrong
}

func (s *scriptedPeers) next() byte {
	b := s.script[0]
	s.script = s.script[1:]
	return b
}

func (s *scriptedPeers) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == hostOf(s.self) {
		s.selfAsked = true
	}
	if len(s.script) < 4 {
		return nil, errors.New("scripted peer: no more answers")
	}
	status := []int{200, 206, 404, 503, 416, 500}[s.next()%6]
	modes, kind, n := s.next(), s.next(), int(s.next())
	var off int
	if rg, ok := strings.CutPrefix(req.Header.Get("Range"), "bytes="); ok {
		off, _ = strconv.Atoi(strings.TrimSuffix(rg, "-"))
	}
	from := 0
	if status == http.StatusPartialContent {
		from = min(off, len(s.seg))
	}
	h := http.Header{}
	if v := headerValue(modes, fmt.Sprintf("bytes %d-%d/%d", from, len(s.seg)-1, len(s.seg)),
		fmt.Sprintf("bytes %d-", n)); v != "" {
		h.Set("Content-Range", v)
	}
	if v := headerValue(modes/3, s.gen.CorpusSHA256, "another-branch"); v != "" {
		h.Set("X-Gen-Digest", v)
	}
	if v := headerValue(modes/9, s.si.SHA256, "other-bytes"); v != "" {
		h.Set("X-Segment-SHA256", v)
	}
	if status == http.StatusServiceUnavailable {
		h.Set("Retry-After", strconv.Itoa(n%3))
	}
	honest := bytes.Clone(s.seg[from:])
	var body io.Reader
	switch kind % 5 {
	case 0:
		body = bytes.NewReader(honest)
	case 1: // cut mid-stream
		body = io.MultiReader(bytes.NewReader(honest[:min(n, len(honest))]), &cutBody{remaining: 0})
	case 2: // raw bytes from the script
		raw := s.script[:min(n, len(s.script))]
		s.script = s.script[len(raw):]
		body = bytes.NewReader(raw)
	case 3: // one byte flipped
		if len(honest) > 0 {
			honest[n%len(honest)] ^= 0x40
		}
		body = bytes.NewReader(honest)
	case 4: // over-long
		body = bytes.NewReader(append(honest, bytes.Repeat([]byte{0xAB}, n+1)...))
	}
	return &http.Response{
		StatusCode: status, Header: h, ContentLength: -1, Request: req,
		Body: &countedBody{r: body, max: &s.maxRead},
	}, nil
}

// countedBody counts the bytes read from one answer into max when it
// is the most yet.
type countedBody struct {
	r   io.Reader
	n   int64
	max *int64
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	*b.max = max(*b.max, b.n)
	return n, err
}

func (b *countedBody) Close() error { return nil }

// FuzzSegmentResponse: a peer's segment answer is untrusted bytes.
// Whatever the answers — any status, Content-Range, X-Gen-Digest and
// X-Segment-SHA256 right, absent or wrong, and honest, cut, raw,
// flipped or over-long bodies — three repairs over two peers and Self
// each return an error or the segment's exact bytes, never ask Self,
// and never read more than si.Bytes+1 bytes of one answer.
func FuzzSegmentResponse(f *testing.F) {
	seg := []byte("HFTSEG1\n")
	for i := 0; len(seg) < 96; i++ {
		seg = append(seg, byte(i*37+11))
	}
	sum := sha256.Sum256(seg)
	si := store.SegmentInfo{Name: "seg-0000.dat", Bytes: int64(len(seg)), SHA256: hex.EncodeToString(sum[:])}
	gen := store.GenInfo{ID: 7, CorpusSHA256: strings.Repeat("c0", 32), Segments: []store.SegmentInfo{si}}
	for _, seed := range [][]byte{
		{0, 0, 0, 0},                           // honest 200
		{0, 0, 1, 40, 1, 0, 0, 0},              // cut at 40, resumed by an honest 206
		{0, 0, 1, 40, 1, 0, 3, 90, 0, 0, 0, 0}, // cut, poisoned resume, honest restart
		{0, 2 * 3, 0, 0, 0, 0, 0, 0},           // another branch, then honest
		{0, 2 * 9, 0, 0, 0, 0, 4, 200},         // other bytes, then over-long
		{1, 2, 0, 0, 0, 1, 0, 0},               // wrong Content-Range, absent one
		{0, 0, 2, 120, 1, 2, 3},                // raw body
		{3, 0, 0, 2, 0, 0, 0, 0},               // 503 + Retry-After, then honest
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		peers := &scriptedPeers{seg: seg, gen: gen, si: si, self: "http://self:1", script: script}
		p := NewPuller(PullerConfig{Self: peers.self, Client: &http.Client{Transport: peers}})
		fetch := p.RepairFrom(StaticPeers(Replica{URL: peers.self}, Replica{URL: "http://p1:1"}, Replica{URL: "http://p2:1"}))
		for i := 0; i < 3; i++ {
			got, err := fetch(context.Background(), gen, si)
			if err == nil && store.CheckSegment(got, si) != nil {
				t.Fatalf("repair %d returned %d bytes that fail CheckSegment", i, len(got))
			}
		}
		if peers.selfAsked {
			t.Fatal("Self was asked")
		}
		if peers.maxRead > si.Bytes+1 {
			t.Fatalf("read %d bytes of one answer, want at most %d", peers.maxRead, si.Bytes+1)
		}
	})
}
