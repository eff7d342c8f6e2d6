package fleet

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"hftnetview/internal/serve"
	"hftnetview/internal/store"
	"hftnetview/internal/uls"
)

// countingTransport totals every response-body byte that crosses it —
// the benchmarks' bytes-on-wire meter.
type countingTransport struct {
	base  http.RoundTripper
	bytes atomic.Int64
}

func (c *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := c.base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	resp.Body = &countingBody{rc: resp.Body, n: &c.bytes}
	return resp, nil
}

type countingBody struct {
	rc io.ReadCloser
	n  *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error { return b.rc.Close() }

// benchPrimary: a primary at generation 1 (three-quarters of the
// corpus) and generation 2 (the full corpus) — the delta between them
// is the changed tail.
func benchPrimary(b *testing.B) (*store.Store, string) {
	b.Helper()
	all := corpus(b).All()
	prefix := uls.NewDatabase()
	if err := prefix.AddBulk(all[:len(all)*3/4], uls.BulkAddOptions{TrustValidated: true}); err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(b.TempDir(), store.WithSegmentTarget(16<<10), store.WithBlockLicenses(8))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })
	if _, err := st.Save(prefix, "bench gen one"); err != nil {
		b.Fatal(err)
	}
	if _, err := st.Save(corpus(b), "bench gen two"); err != nil {
		b.Fatal(err)
	}
	srv := httptest.NewServer(NewShipper(st))
	b.Cleanup(srv.Close)
	return st, srv.URL
}

// BenchmarkShipFullPull: a cold replica replicates generation 2 from
// scratch — every segment crosses the wire. The wireB/op metric is the
// baseline delta shipping is measured against.
func BenchmarkShipFullPull(b *testing.B) {
	_, primary := benchPrimary(b)
	meter := &countingTransport{}
	client := clientWith(meter)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rst, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		srv := serve.New(serve.Config{})
		srv.AttachStore(rst)
		p := NewPuller(PullerConfig{Primary: primary, Store: rst, Server: srv, Client: client})
		b.StartTimer()
		if ok, err := p.PullOnce(context.Background()); err != nil || !ok {
			b.Fatalf("full pull = (%v, %v)", ok, err)
		}
		b.StopTimer()
		rst.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(meter.bytes.Load())/float64(b.N), "wireB/op")
}

// seedOffWire installs generation id of src into dst through the
// staging area without touching the wire: each segment is read from
// src's disk and staged as if fetched.
func seedOffWire(b *testing.B, dst, src *store.Store, id int64) {
	b.Helper()
	mb, _, err := src.ExportManifest(id)
	if err != nil {
		b.Fatal(err)
	}
	stg, err := dst.OpenStaging(mb)
	if err != nil {
		b.Fatal(err)
	}
	defer stg.Close()
	for _, si := range stg.Missing() {
		w, err := stg.SegmentWriter(si)
		if err != nil {
			b.Fatal(err)
		}
		_, err = w.Write(diskSegment(b, src, id, si.Name))
		w.Close()
		if err == nil {
			err = stg.CompleteSegment(si)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	if _, _, err := dst.InstallStaged(stg); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkShipDeltaPull: the replica already holds generation 1, so
// pulling generation 2 reuses every shared segment by digest and
// fetches only the changed tail — wireB/op here over the full-pull
// baseline is the delta-shipping saving on the wire.
func BenchmarkShipDeltaPull(b *testing.B) {
	pst, primary := benchPrimary(b)
	meter := &countingTransport{}
	client := clientWith(meter)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rst, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		// Seed generation 1 off-wire: the replica's starting state.
		seedOffWire(b, rst, pst, 1)
		srv := serve.New(serve.Config{})
		srv.AttachStore(rst)
		p := NewPuller(PullerConfig{Primary: primary, Store: rst, Server: srv, Client: client})
		b.StartTimer()
		if ok, err := p.PullOnce(context.Background()); err != nil || !ok {
			b.Fatalf("delta pull = (%v, %v)", ok, err)
		}
		b.StopTimer()
		rst.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(meter.bytes.Load())/float64(b.N), "wireB/op")
}
