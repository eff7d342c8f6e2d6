package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// readyzProbe is the slice of the serve /readyz payload the fleet
// reads. Probing JSON instead of linking the store keeps the front
// tier deployable against any replica build.
type readyzProbe struct {
	Ready      bool `json:"ready"`
	Generation *struct {
		StoreGeneration int64   `json:"store_generation"`
		CorpusSHA256    string  `json:"corpus_sha256"`
		AgeSeconds      float64 `json:"age_seconds"`
	} `json:"generation"`
}

// probeTimeoutFor derives the per-probe deadline from the probe
// cadence: two intervals of grace (a healthy replica under load may
// straddle one), clamped so very tight test cadences still allow a
// real round-trip and very lazy ones don't reintroduce the hang.
func probeTimeoutFor(interval time.Duration) time.Duration {
	t := 2 * interval
	if t < 100*time.Millisecond {
		t = 100 * time.Millisecond
	}
	if t > 2*time.Second {
		t = 2 * time.Second
	}
	return t
}

// probeAll probes every member concurrently, each under the per-probe
// timeout, so one hung replica delays a tick by at most that bound
// instead of pinning it on the HTTP client's (much longer) timeout. It
// returns once every verdict has landed.
func (f *Front) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, mem := range f.members.entries() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.probe(ctx, mem)
		}()
	}
	wg.Wait()
}

// probe reads one member's /readyz and lands the verdict on its entry.
func (f *Front) probe(ctx context.Context, mem *member) {
	ctx, cancel := context.WithTimeout(ctx, f.probeTimeout)
	defer cancel()
	p, err := readyz(ctx, f.cfg.Client, mem.URL)
	f.members.record(mem, p, err, f.cfg.FailAfter)
}

// readyz GETs base's /readyz. A reply that is not 200 or not ready is
// an error.
func readyz(ctx context.Context, client *http.Client, base string) (*readyzProbe, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	var p readyzProbe
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, fmt.Errorf("readyz from %s: %w", base, err)
	}
	if resp.StatusCode != http.StatusOK || !p.Ready {
		return &p, fmt.Errorf("readyz from %s: status %d ready=%v", base, resp.StatusCode, p.Ready)
	}
	return &p, nil
}
