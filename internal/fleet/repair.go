package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
// detection and the swap, this file supplies the fetch, through the
// puller's one segment GET.

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

// RepairFrom returns the scrubber's SegmentFetch over the puller's
// segment GET, so repairs share its client, header gates, budget and
// wire counters. It asks peers in order, skipping Self, one GET each;
// X-Gen-Digest gates the branch and CheckSegment pins the bytes, so a
// peer on another branch, a rotten copy or a lying peer just means "try
// the next one". The bytes a cut attempt received are resumed by the
// next, to any peer: every copy that passes both gates holds the same
// bytes, and a resumed copy that fails CheckSegment is dropped whole.
func (p *Puller) RepairFrom(peers PeerLister) store.SegmentFetch {
	return func(ctx context.Context, gen store.GenInfo, si store.SegmentInfo) ([]byte, error) {
		list, err := peers(ctx)
		if err != nil {
			return nil, fmt.Errorf("listing repair peers: %w", err)
		}
		tried, err := 0, errors.New("no peer to ask")
		for _, peer := range list {
			if peer.URL == "" || peer.URL == p.cfg.Self {
				continue
			}
			tried++
			var data []byte
			if data, err = p.repairOnce(ctx, peer.URL, gen, si); err == nil {
				return data, nil
			}
		}
		return nil, fmt.Errorf("no peer holds a verified copy of generation %d %s (%d tried): %w",
			gen.ID, si.Name, tried, err)
	}
}

// repairOnce asks one peer for the segment under repair, from the end
// of the bytes held since an earlier attempt was cut.
func (p *Puller) repairOnce(ctx context.Context, base string, gen store.GenInfo, si store.SegmentInfo) ([]byte, error) {
	var held bytes.Buffer
	p.mu.Lock()
	if p.repairSHA == si.SHA256 {
		held.Write(p.repairHeld)
	}
	p.repairSHA, p.repairHeld = "", nil
	p.mu.Unlock()
	if int64(held.Len()) < si.Bytes {
		body, start, err := p.getSegment(ctx, base, gen.ID, gen.CorpusSHA256, si, int64(held.Len()))
		if err == nil {
			held.Truncate(int(start))
			_, err = held.ReadFrom(body)
			body.Close()
		}
		if err != nil {
			if !errors.Is(err, store.ErrVerify) { // an unusable range poisons what is held
				p.mu.Lock()
				p.repairSHA, p.repairHeld = si.SHA256, held.Bytes()
				p.mu.Unlock()
			}
			return nil, err
		}
	}
	if err := store.CheckSegment(held.Bytes(), si); err != nil {
		return nil, err
	}
	p.bump(func(st *PullStatus) { st.SegmentsFetched++ })
	return held.Bytes(), nil
}
