package fleet

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"hftnetview/internal/store"
)

// TestShipperEndpoints: the shipping surface serves the on-disk
// artifacts byte-for-byte and rejects malformed or mutating requests.
func TestShipperEndpoints(t *testing.T) {
	st, _, base := newPrimary(t, corpus(t), 32<<10)
	client := http.DefaultClient

	latest, code := getJSON[struct {
		ID int64 `json:"id"`
	}](t, client, base+"/v1/gen/latest")
	if code != 200 || latest.ID <= 0 {
		t.Fatalf("latest = %+v (status %d), want a committed id", latest, code)
	}

	resp, err := client.Get(base + "/v1/gen/manifest")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("manifest status %d: %s", resp.StatusCode, mb)
	}
	if got := resp.Header.Get("X-Gen-ID"); got == "" || got == "0" {
		t.Errorf("manifest X-Gen-ID = %q, want the served id", got)
	}
	want, _, err := st.ExportManifest(latest.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mb, want) {
		t.Error("shipped manifest differs from on-disk bytes")
	}

	// Segments round trip byte-identically too.
	gi, err := store.ParseManifest(mb)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range gi.Segments {
		resp, err := client.Get(base + "/v1/gen/segment/" + strconv.FormatInt(latest.ID, 10) + "/" + seg.Name)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("segment %s status %d", seg.Name, resp.StatusCode)
		}
		if !bytes.Equal(body, diskSegment(t, st, latest.ID, seg.Name)) {
			t.Errorf("segment %s shipped bytes differ from disk", seg.Name)
		}
	}

	for _, tc := range []struct {
		url  string
		want int
	}{
		{base + "/v1/gen/manifest?id=999", 404}, // never committed → gone
		{base + "/v1/gen/manifest?id=bogus", 400},
		{base + "/v1/gen/segment/1/..%2F..%2FMANIFEST-000001.json", 400},
		{base + "/v1/gen/segment/1/seg-9999.dat", 404},
		{base + "/v1/gen/segment/999/seg-0000.dat", 404},
		{base + "/v1/gen/unknown", 404},
	} {
		resp, err := client.Get(tc.url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.url, resp.StatusCode, tc.want)
		}
		if tc.want == 404 && resp.Request.URL.Path != "/v1/gen/unknown" {
			if resp.Header.Get("X-Gen-Gone") == "" {
				t.Errorf("GET %s missing X-Gen-Gone on retryable 404", tc.url)
			}
		}
	}

	// Shipping is read-only.
	resp, err = client.Post(base+"/v1/gen/manifest", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST manifest = %d, want 405", resp.StatusCode)
	}
}

// TestShipperRangeAndDigests: the segment endpoint is a resumable,
// content-addressed surface — ranged GETs get exact 206 slices, every
// response advertises the digests a puller verifies against, and the
// shipper's own counters account for the served bytes.
func TestShipperRangeAndDigests(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.WithSegmentTarget(32<<10), store.WithBlockLicenses(8))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	gi, err := st.Save(corpus(t), "range drill")
	if err != nil {
		t.Fatal(err)
	}
	shipper := NewShipper(st)
	srv := httptest.NewServer(shipper)
	t.Cleanup(srv.Close)
	client := srv.Client()

	digest, err := st.GenDigest(gi.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Manifest advertises the corpus digest before a byte of segment
	// data moves.
	resp, err := client.Get(srv.URL + "/v1/gen/manifest")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Gen-Digest"); got != digest {
		t.Fatalf("manifest X-Gen-Digest = %q, want %q", got, digest)
	}

	si := gi.Segments[0]
	segURL := srv.URL + "/v1/gen/segment/" + strconv.FormatInt(gi.ID, 10) + "/" + si.Name
	disk := diskSegment(t, st, gi.ID, si.Name)

	// Full GET: digest headers + a strong ETag a resume can validate
	// against.
	resp, err = client.Get(segURL)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !bytes.Equal(full, disk) {
		t.Fatalf("full GET = %d, %d bytes; want 200 with %d disk bytes", resp.StatusCode, len(full), len(disk))
	}
	if got := resp.Header.Get("X-Segment-SHA256"); got != si.SHA256 {
		t.Fatalf("X-Segment-SHA256 = %q, want %q", got, si.SHA256)
	}
	if got := resp.Header.Get("X-Gen-Digest"); got != digest {
		t.Fatalf("segment X-Gen-Digest = %q, want %q", got, digest)
	}
	if got := resp.Header.Get("ETag"); got != `"`+si.SHA256+`"` {
		t.Fatalf("ETag = %q, want quoted segment digest", got)
	}

	// Ranged GET: a mid-stream resume asks for the tail and gets
	// exactly the tail, 206, with an honest Content-Range.
	off := si.Bytes / 2
	req, _ := http.NewRequest(http.MethodGet, segURL, nil)
	req.Header.Set("Range", "bytes="+strconv.FormatInt(off, 10)+"-")
	req.Header.Set("If-Range", `"`+si.SHA256+`"`)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	tail, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusPartialContent {
		t.Fatalf("ranged GET = %d, want 206", resp.StatusCode)
	}
	if start, err := parseContentRangeStart(resp.Header.Get("Content-Range")); err != nil || start != off {
		t.Fatalf("Content-Range %q start = %d, %v; want %d", resp.Header.Get("Content-Range"), start, err, off)
	}
	if !bytes.Equal(tail, disk[off:]) {
		t.Fatalf("ranged body = %d bytes, differs from disk tail of %d", len(tail), len(disk)-int(off))
	}

	// A stale If-Range (the segment the client was mid-download of no
	// longer matches) must fall back to a full 200 — never a torn
	// splice of two different segments.
	req, _ = http.NewRequest(http.MethodGet, segURL, nil)
	req.Header.Set("Range", "bytes="+strconv.FormatInt(off, 10)+"-")
	req.Header.Set("If-Range", `"`+"0000deadbeef"+`"`)
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !bytes.Equal(body, disk) {
		t.Fatalf("stale If-Range = %d with %d bytes, want full 200", resp.StatusCode, len(body))
	}

	// An unsatisfiable range is refused, not silently clamped.
	req, _ = http.NewRequest(http.MethodGet, segURL, nil)
	req.Header.Set("Range", "bytes="+strconv.FormatInt(si.Bytes+100, 10)+"-")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
		t.Fatalf("past-EOF range = %d, want 416", resp.StatusCode)
	}

	// The counters own up: three segment serves, one of them ranged,
	// with body bytes accounted.
	ss := shipper.Status()
	if ss.Segments < 3 || ss.RangeServes != 1 {
		t.Errorf("ship status = %+v, want >=3 segment serves with exactly 1 range serve", ss)
	}
	wantBytes := int64(len(disk)) + (si.Bytes - off) + int64(len(disk))
	if ss.BytesServed < wantBytes {
		t.Errorf("bytes_served = %d, want at least %d", ss.BytesServed, wantBytes)
	}
	if ss.Manifests < 1 {
		t.Errorf("manifests = %d, want >=1", ss.Manifests)
	}
}
