package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"hftnetview/internal/store"
)

// Peer repair: the fleet side of the store's anti-entropy scrubber.
// Every member mounts the /v1/gen shipper over its own store, so a
// replica that finds a rotten segment can re-fetch exactly those bytes
// from any peer still holding a verified copy — the store supplies the
// detection and the swap, this file supplies the "from any peer whose
// manifest digest matches" fetch.

// PeerLister enumerates candidate repair peers. FrontMembers resolves
// them live from the front's member table; StaticPeers pins a fixed
// set (e.g. just the primary in a statically wired fleet).
type PeerLister func(ctx context.Context) ([]Replica, error)

// FrontMembers returns a PeerLister over the front tier's
// /v1/fleet/members table, so the repair path re-targets with
// membership exactly like the pull path does.
func FrontMembers(front string, client *http.Client) PeerLister {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return func(ctx context.Context) ([]Replica, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, front+fleetPrefix+"members", nil)
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s%smembers: status %d", front, fleetPrefix, resp.StatusCode)
		}
		var stats MembershipStats
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&stats); err != nil {
			return nil, fmt.Errorf("decoding member table: %w", err)
		}
		peers := make([]Replica, 0, len(stats.Members))
		for _, m := range stats.Members {
			peers = append(peers, Replica{Name: m.Name, URL: m.URL})
		}
		return peers, nil
	}
}

// StaticPeers returns a PeerLister over a fixed replica set.
func StaticPeers(replicas ...Replica) PeerLister {
	return func(context.Context) ([]Replica, error) { return replicas, nil }
}

// PeerFetcherConfig wires a repair fetcher.
type PeerFetcherConfig struct {
	// Peers enumerates candidate peers each repair attempt.
	Peers PeerLister
	// Self is this replica's own base URL, excluded from candidates.
	Self string
	// Client issues the fetches (default: 10s timeout).
	Client *http.Client
}

// NewPeerFetcher returns a store.SegmentFetch that repairs one segment
// from the first peer whose manifest for the generation matches the
// local manifest's corpus digest. The digest gate is what makes repair
// safe across promotions: a peer holding a same-id generation from a
// different branch is silently skipped, never blended in. The fetched
// bytes pass store.CheckSegment here as well as in the scrubber, so a
// lying peer just means "try the next one".
func NewPeerFetcher(cfg PeerFetcherConfig) store.SegmentFetch {
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 10 * time.Second}
	}
	// get fetches one URL; check, when non-nil, sees the response
	// headers before a single body byte is read — the shipper
	// advertises X-Gen-Digest and X-Segment-SHA256, so a peer on a
	// divergent branch is rejected for free. Peers that predate the
	// headers (no value present) fall through to the body-level checks.
	get := func(ctx context.Context, url string, check func(http.Header) error) ([]byte, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		resp, err := cfg.Client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
		}
		if check != nil {
			if err := check(resp.Header); err != nil {
				return nil, err
			}
		}
		return io.ReadAll(io.LimitReader(resp.Body, maxShipBytes))
	}
	headerGate := func(name, want string) func(http.Header) error {
		return func(h http.Header) error {
			if got := h.Get(name); got != "" && got != want {
				return fmt.Errorf("%s %s does not match wanted %s", name, got[:min(12, len(got))], want[:min(12, len(want))])
			}
			return nil
		}
	}
	return func(ctx context.Context, gen store.GenInfo, seg store.SegmentInfo) ([]byte, error) {
		peers, err := cfg.Peers(ctx)
		if err != nil {
			return nil, fmt.Errorf("listing repair peers: %w", err)
		}
		tried := 0
		for _, peer := range peers {
			if peer.URL == "" || peer.URL == cfg.Self {
				continue
			}
			tried++
			mb, err := get(ctx, fmt.Sprintf("%s%smanifest?id=%d", peer.URL, shipPrefix, gen.ID),
				headerGate("X-Gen-Digest", gen.CorpusSHA256))
			if err != nil {
				continue // peer down, divergent branch, or never had the generation
			}
			pgi, err := store.ParseManifest(mb)
			if err != nil || pgi.ID != gen.ID || pgi.CorpusSHA256 != gen.CorpusSHA256 {
				continue // different branch or corrupt copy: never blend
			}
			data, err := get(ctx, fmt.Sprintf("%s%ssegment/%d/%s", peer.URL, shipPrefix, gen.ID, seg.Name),
				headerGate("X-Segment-SHA256", seg.SHA256))
			if err != nil || store.CheckSegment(data, seg) != nil {
				continue // rotten on the peer too, or corrupted in flight
			}
			return data, nil
		}
		return nil, fmt.Errorf("no peer holds a verified copy of generation %d %s (%d tried)",
			gen.ID, seg.Name, tried)
	}
}
