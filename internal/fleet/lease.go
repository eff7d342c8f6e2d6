package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"hftnetview/internal/serve"
)

// Lease-based membership, replica side. A replica announces itself to
// the front tier with POST /v1/fleet/join and keeps the resulting TTL
// lease alive with the same call on a jittered heartbeat. The lease is
// the fleet's failure detector: a replica that stops renewing — crash,
// partition, or graceful leave — is evicted from the routing ring when
// the TTL lapses, with no operator in the loop.
//
// All lease accounting happens on the FRONT's clock: the join payload
// carries the replica's own send timestamp purely as a diagnostic, and
// the front measures skew but never trusts it. A replica with a clock
// hours off (the chaos campaigns inject exactly that) renews exactly
// like a well-behaved one.

// fleetPrefix roots the membership control surface on the front tier.
const fleetPrefix = "/v1/fleet/"

// joinRequest is the announce/heartbeat body.
type joinRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// SentAt is the replica's wall clock at send time (RFC3339Nano).
	// The front records the skew and otherwise ignores it: leases live
	// on the front's clock alone.
	SentAt string `json:"sent_at,omitempty"`
}

// joinResponse is the granted lease: the TTL the front holds the
// member to and the heartbeat cadence it suggests (TTL/3, leaving two
// missed beats of slack before eviction).
type joinResponse struct {
	TTLMillis       int64 `json:"ttl_ms"`
	HeartbeatMillis int64 `json:"heartbeat_ms"`
	// Source is the fleet's current source role at grant time — how a
	// rejoining stale primary learns it has been fenced to replica.
	Source SourceInfo `json:"source"`
}

// leaveRequest is the graceful-leave body.
type leaveRequest struct {
	Name string `json:"name"`
}

// LeaseState is the announcer's self-report, surfaced on the replica's
// /statsz under "lease".
type LeaseState struct {
	Front  string `json:"front"`
	Joined bool   `json:"joined"`
	// TTLSeconds/HeartbeatSeconds echo the front's current grant.
	TTLSeconds       float64 `json:"ttl_seconds,omitempty"`
	HeartbeatSeconds float64 `json:"heartbeat_seconds,omitempty"`
	Renews           int64   `json:"renews"`
	Failures         int64   `json:"failures"`
	Leaves           int64   `json:"leaves"`
	LastRenew        string  `json:"last_renew,omitempty"`
	LastError        string  `json:"last_error,omitempty"`
	// IsSource reports whether the last grant named this replica as the
	// fleet's source; SourceName/SourceEpoch echo the grant's role.
	IsSource    bool   `json:"is_source,omitempty"`
	SourceName  string `json:"source_name,omitempty"`
	SourceEpoch int64  `json:"source_epoch,omitempty"`
}

// AnnouncerConfig wires one replica's membership loop.
type AnnouncerConfig struct {
	// Front is the front tier's base URL.
	Front string
	// Self is how the replica introduces itself: the member name and
	// the URL the front should route to.
	Self Replica
	// Server, when non-nil, gains a "lease" section on /statsz.
	Server *serve.Server
	// Interval overrides the front-suggested heartbeat cadence (0 =
	// follow the grant; before the first successful join the announcer
	// retries every RetryInterval).
	Interval time.Duration
	// RetryInterval paces announces while unjoined (default 500ms).
	RetryInterval time.Duration
	// Client issues the announces (default: 5s timeout).
	Client *http.Client
	// LeaveOnExit sends one best-effort leave when Run's context ends,
	// so a cleanly shut down replica is evicted immediately instead of
	// lingering until its lease lapses. The chaos harness leaves it
	// false: a SIGKILL-shaped kill must NOT say goodbye — detecting the
	// silent death is the lease's whole job.
	LeaveOnExit bool
}

func (c AnnouncerConfig) withDefaults() AnnouncerConfig {
	if c.RetryInterval <= 0 {
		c.RetryInterval = 500 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 5 * time.Second}
	}
	return c
}

// Announcer keeps one replica's membership lease alive. Safe for one
// Run loop plus concurrent State/Leave calls.
type Announcer struct {
	cfg AnnouncerConfig

	mu    sync.Mutex
	state LeaseState
}

// NewAnnouncer returns an announcer; if cfg.Server is set, the lease
// state is registered on that server's /statsz.
func NewAnnouncer(cfg AnnouncerConfig) *Announcer {
	a := &Announcer{cfg: cfg.withDefaults()}
	a.state.Front = a.cfg.Front
	if a.cfg.Server != nil {
		a.cfg.Server.RegisterStats("lease", func() any { return a.State() })
	}
	return a
}

// State returns a copy of the lease counters.
func (a *Announcer) State() LeaseState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.state
}

// Run announces until ctx is done (then leaves, if LeaveOnExit).
func (a *Announcer) Run(ctx context.Context) {
	rng := rand.New(rand.NewPCG(uint64(time.Now().UnixNano()), hash64(a.cfg.Self.Name)|1)) //nolint:gosec // heartbeat jitter, not security
	for {
		var d time.Duration
		if err := a.AnnounceOnce(ctx); err != nil {
			if ctx.Err() != nil {
				return
			}
			log.Printf("fleet: announce to %s: %v", a.cfg.Front, err)
			d = a.cfg.RetryInterval
		} else {
			d = a.heartbeatInterval()
		}
		// ±20% jitter: a restarted fleet's replicas must not renew in
		// lockstep, for the same reason the pull loop staggers.
		d += time.Duration((rng.Float64() - 0.5) * 0.4 * float64(d))
		select {
		case <-ctx.Done():
			if a.cfg.LeaveOnExit {
				leaveCtx, cancel := context.WithTimeout(context.Background(), time.Second)
				defer cancel()
				_ = a.Leave(leaveCtx)
			}
			return
		case <-time.After(d):
		}
	}
}

func (a *Announcer) heartbeatInterval() time.Duration {
	if a.cfg.Interval > 0 {
		return a.cfg.Interval
	}
	a.mu.Lock()
	hb := time.Duration(a.state.HeartbeatSeconds * float64(time.Second))
	a.mu.Unlock()
	if hb <= 0 {
		return a.cfg.RetryInterval
	}
	return hb
}

// AnnounceOnce sends one join/renew and records the granted lease.
func (a *Announcer) AnnounceOnce(ctx context.Context) error {
	body := joinRequest{
		Name:   a.cfg.Self.Name,
		URL:    a.cfg.Self.URL,
		SentAt: time.Now().UTC().Format(time.RFC3339Nano),
	}
	var grant joinResponse
	if err := a.post(ctx, fleetPrefix+"join", body, &grant); err != nil {
		a.mu.Lock()
		a.state.Failures++
		a.state.Joined = false
		a.state.LastError = err.Error()
		a.mu.Unlock()
		return err
	}
	a.mu.Lock()
	a.state.Joined = true
	a.state.Renews++
	a.state.TTLSeconds = float64(grant.TTLMillis) / 1e3
	a.state.HeartbeatSeconds = float64(grant.HeartbeatMillis) / 1e3
	a.state.LastRenew = time.Now().UTC().Format(time.RFC3339)
	a.state.LastError = ""
	a.state.IsSource = grant.Source.Name != "" && grant.Source.Name == a.cfg.Self.Name
	a.state.SourceName = grant.Source.Name
	a.state.SourceEpoch = grant.Source.Epoch
	a.mu.Unlock()
	return nil
}

// Leave revokes the lease immediately: the front evicts the member on
// receipt instead of waiting out the TTL.
func (a *Announcer) Leave(ctx context.Context) error {
	err := a.post(ctx, fleetPrefix+"leave", leaveRequest{Name: a.cfg.Self.Name}, nil)
	a.mu.Lock()
	a.state.Joined = false
	if err == nil {
		a.state.Leaves++
	} else {
		a.state.LastError = err.Error()
	}
	a.mu.Unlock()
	return err
}

func (a *Announcer) post(ctx context.Context, path string, body, out any) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, a.cfg.Front+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := a.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s%s: status %d: %s", a.cfg.Front, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("POST %s%s: decoding grant: %w", a.cfg.Front, path, err)
		}
	}
	return nil
}
