package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Membership is the front tier's member table: seeded (permanent)
// replicas from static configuration plus lease-holding replicas that
// announced themselves. One entry per member holds its lease and its
// last /readyz probe, and the consistent-hash ring is built over the
// entries; all of it lives under one lock. Every membership change —
// join, graceful leave, lease-lapse eviction — rebuilds the ring in the
// same critical section, so a route computed after an eviction returns
// can never name the evicted member, and a probe verdict lands only on
// the entry it probed.
//
// Two clocks could disagree about a lease; only one is used. A lease
// expires at (front receipt time + TTL) on the front's own clock. The
// announce payload's sent_at is recorded as observed skew for the
// member table and nothing else, which is what makes the subsystem
// indifferent to the chaos campaigns' clock-skew faults: a replica
// reporting timestamps hours off still renews on schedule as measured
// here.
type Membership struct {
	ttl    time.Duration
	vnodes int
	now    func() time.Time

	mu      sync.Mutex
	members map[string]*member
	ring    *Ring // over the names in members
	// source is the fleet's current replication origin under a monotone
	// epoch fence. The epoch only ever increases — it survives the
	// source leaving or lapsing (the role goes vacant, Name/URL empty,
	// Epoch kept), so a promotion after an outage always outranks
	// anything the dead source's era produced.
	source SourceInfo

	counters struct {
		joins     atomic.Int64 // first-time admissions
		renews    atomic.Int64 // lease renewals
		leaves    atomic.Int64 // graceful leaves
		evictions atomic.Int64 // lease-lapse evictions
		rejects   atomic.Int64 // malformed/conflicting join attempts
	}
	maxSkew atomic.Int64 // largest |observed skew| in nanoseconds
}

// member is one fleet member's entry. Its Replica never changes: a
// member that rejoins from a new URL is a new entry.
type member struct {
	Replica
	permanent bool // seeded by configuration; never evicted by lease
	joinedAt  time.Time
	renewedAt time.Time
	expires   time.Time     // zero for permanent members
	skew      time.Duration // announce-payload diagnostic

	// Probe state, read off the member's /readyz. An entry starts
	// unhealthy until its first good probe: routing to an address
	// nobody has ever answered on is a guess.
	healthy    bool
	fails      int   // consecutive probe failures
	generation int64 // live store generation (0 unknown)
	digest     string
	ageSeconds float64 // how long that generation has been live there
	lastError  string
}

// SourceInfo names the member currently holding the fleet's source
// role — the replication origin every puller re-targets to — fenced by
// a monotone epoch. A vacant role has empty Name/URL but keeps the
// epoch; anything announcing itself under a lower epoch is stale by
// definition and must be refused.
type SourceInfo struct {
	Name  string `json:"name,omitempty"`
	URL   string `json:"url,omitempty"`
	Epoch int64  `json:"epoch"`
}

// NewMembership seeds the registry with the permanent replicas. ttl <=
// 0 means 3s; vnodes <= 0 means the ring default.
func NewMembership(seed []Replica, ttl time.Duration, vnodes int) *Membership {
	if ttl <= 0 {
		ttl = 3 * time.Second
	}
	m := &Membership{
		ttl:     ttl,
		vnodes:  vnodes,
		now:     time.Now,
		members: make(map[string]*member, len(seed)),
	}
	for _, r := range seed {
		m.members[r.Name] = &member{Replica: r, permanent: true, joinedAt: m.now()}
	}
	m.rebuildLocked()
	return m
}

// rebuildLocked rebuilds the ring from the current member set. Caller
// holds mu.
func (m *Membership) rebuildLocked() {
	names := make([]string, 0, len(m.members))
	for name := range m.members {
		names = append(names, name)
	}
	m.ring = NewRing(names, m.vnodes)
}

// Join admits a member or renews its lease, granting ttl from the
// front's clock, and returns the entry when it admitted a new one (nil
// on a renewal). A name collision with a different URL is rejected —
// two processes fighting over one member name is an operator error,
// not churn (the same name re-announcing from a new URL after its old
// lease lapsed joins cleanly, which is how a restarted replica on a
// fresh port rejoins).
func (m *Membership) Join(req joinRequest) (joinResponse, *member, error) {
	if req.Name == "" || req.URL == "" {
		m.counters.rejects.Add(1)
		return joinResponse{}, nil, fmt.Errorf("join needs name and url")
	}
	if u, err := url.Parse(req.URL); err != nil || u.Scheme == "" || u.Host == "" {
		m.counters.rejects.Add(1)
		return joinResponse{}, nil, fmt.Errorf("join url %q is not absolute", req.URL)
	}
	now := m.now()
	skew := m.observeSkew(req.SentAt, now)

	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[req.Name]
	var admitted *member
	switch {
	case ok && mem.URL != req.URL:
		m.counters.rejects.Add(1)
		return joinResponse{}, nil, fmt.Errorf("member %q already registered at %s", req.Name, mem.URL)
	case ok:
		mem.renewedAt, mem.skew = now, skew
		if !mem.permanent {
			mem.expires = now.Add(m.ttl)
		}
		m.counters.renews.Add(1)
	default:
		admitted = &member{
			Replica:   Replica{Name: req.Name, URL: req.URL},
			joinedAt:  now,
			renewedAt: now,
			expires:   now.Add(m.ttl),
			skew:      skew,
		}
		m.members[req.Name] = admitted
		m.rebuildLocked()
		m.counters.joins.Add(1)
	}
	// The grant carries the current source role: a rejoining stale
	// primary learns in the same round-trip that the fleet moved on
	// under a higher epoch and that it is a plain replica now.
	return joinResponse{
		TTLMillis:       m.ttl.Milliseconds(),
		HeartbeatMillis: (m.ttl / 3).Milliseconds(),
		Source:          m.source,
	}, admitted, nil
}

// Source returns the current source role holder (possibly vacant) and
// its epoch.
func (m *Membership) Source() SourceInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.source
}

// elect keeps the source role filled from the probed table. While the
// role holder is a healthy member it stays — re-electing it burns no
// epoch — and its generation is the fleet's newest published truth.
// When the role is vacant (lease lapsed, graceful leave) or the holder
// has failed its probes, the healthy member holding the newest
// generation is promoted under the next epoch — ties broken on the
// smallest name, so every elector reading the same table elects the
// same member. It returns the role, the holder's probed generation (0
// when nobody verified holds one) and whether a new epoch opened.
func (m *Membership) elect() (SourceInfo, int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.members[m.source.Name]; m.source.Name != "" && h != nil && h.healthy {
		return m.source, h.generation, false
	}
	var best *member
	for _, mem := range m.members {
		if !mem.healthy || mem.generation <= 0 || mem.Name == m.source.Name {
			continue
		}
		if best == nil || mem.generation > best.generation ||
			(mem.generation == best.generation && mem.Name < best.Name) {
			best = mem
		}
	}
	if best == nil {
		return m.source, 0, false // nobody verified to hold a generation; stay vacant
	}
	m.source = SourceInfo{Name: best.Name, URL: best.URL, Epoch: m.source.Epoch + 1}
	return m.source, best.generation, true
}

// vacateSourceLocked empties the role (keeping the epoch) if name held
// it. Caller holds mu.
func (m *Membership) vacateSourceLocked(name string) {
	if m.source.Name == name {
		m.source.Name, m.source.URL = "", ""
	}
}

// observeSkew records |sent_at - now| for the diagnostics surface. A
// missing or malformed timestamp is skew zero — never an error; the
// lease must not depend on the member's clock being parseable, let
// alone right.
func (m *Membership) observeSkew(sentAt string, now time.Time) time.Duration {
	if sentAt == "" {
		return 0
	}
	t, err := time.Parse(time.RFC3339Nano, sentAt)
	if err != nil {
		return 0
	}
	skew := t.Sub(now)
	abs := skew
	if abs < 0 {
		abs = -abs
	}
	for {
		cur := m.maxSkew.Load()
		if int64(abs) <= cur || m.maxSkew.CompareAndSwap(cur, int64(abs)) {
			break
		}
	}
	return skew
}

// Leave evicts a member immediately (graceful shutdown). Unknown
// names are a no-op: a leave racing a lease-lapse eviction is fine.
// Permanent members cannot leave — they are configuration.
func (m *Membership) Leave(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mem, ok := m.members[name]; !ok || mem.permanent {
		return
	}
	delete(m.members, name)
	m.vacateSourceLocked(name)
	m.rebuildLocked()
	m.counters.leaves.Add(1)
}

// Sweep evicts every member whose lease has lapsed, returning the
// evicted replicas. The front runs it once per tick, so a lapsed lease
// is evicted within one tick of the TTL.
func (m *Membership) Sweep() []Replica {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	var evicted []Replica
	for name, mem := range m.members {
		if !mem.permanent && now.After(mem.expires) {
			delete(m.members, name)
			m.vacateSourceLocked(name)
			evicted = append(evicted, mem.Replica)
		}
	}
	if len(evicted) > 0 {
		m.rebuildLocked()
		m.counters.evictions.Add(int64(len(evicted)))
	}
	return evicted
}

// Has reports whether name is currently a member.
func (m *Membership) Has(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.members[name]
	return ok
}

// Len returns the current member count.
func (m *Membership) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.members)
}

// entries returns every current entry, for one probe sweep.
func (m *Membership) entries() []*member {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*member, 0, len(m.members))
	for _, mem := range m.members {
		out = append(out, mem)
	}
	return out
}

// record lands one probe verdict on the entry probed. A verdict whose
// entry left the table while the probe ran is dropped: a member that
// rejoined under the same name is a new entry, perhaps a new process
// at a new URL, and only a probe of that entry speaks for it. An entry
// turns unhealthy after failAfter consecutive failures — a single
// dropped probe must not eject a healthy replica — and healthy again
// after one good probe.
func (m *Membership) record(mem *member, p *readyzProbe, err error, failAfter int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.members[mem.Name] != mem {
		return
	}
	if err != nil {
		mem.fails++
		mem.lastError = err.Error()
		if mem.fails >= failAfter {
			mem.healthy = false
		}
		return
	}
	mem.fails, mem.healthy, mem.lastError = 0, true, ""
	if g := p.Generation; g != nil {
		mem.generation, mem.digest, mem.ageSeconds = g.StoreGeneration, g.CorpusSHA256, g.AgeSeconds
	}
}

// route returns key's failover order: the ring's walk from the key's
// owner, keeping the members the proxy may use — probed healthy and,
// once primary is known, at most bound generations behind it. Every
// member lies on every key's walk, so the result's length is the
// routable count.
func (m *Membership) route(key string, primary, bound int64) []Replica {
	m.mu.Lock()
	defer m.mu.Unlock()
	var seq []Replica
	for _, name := range m.ring.Seq(key) {
		mem := m.members[name]
		if !mem.healthy {
			continue
		}
		if primary > 0 && mem.generation > 0 && primary-mem.generation > bound {
			continue // too stale to serve: beyond the staleness budget
		}
		seq = append(seq, mem.Replica)
	}
	return seq
}

// MemberInfo is one member's row in the member table.
type MemberInfo struct {
	Name      string `json:"name"`
	URL       string `json:"url"`
	Permanent bool   `json:"permanent,omitempty"`
	JoinedAt  string `json:"joined_at"`
	RenewedAt string `json:"renewed_at,omitempty"`
	// LeaseSeconds is time left on the lease (absent for permanent
	// members; negative never appears — lapsed members are swept).
	LeaseSeconds float64 `json:"lease_seconds,omitempty"`
	// SkewSeconds is the announce payload's observed clock skew, a
	// diagnostic.
	SkewSeconds float64 `json:"skew_seconds,omitempty"`
	// Healthy, Generation (the live store generation, 0 unknown),
	// Digest and AgeSeconds (how long that generation has been live)
	// are read off the member's /readyz by the front's probes;
	// LastError is the last failed probe's.
	Healthy    bool    `json:"healthy"`
	Generation int64   `json:"generation"`
	Digest     string  `json:"digest,omitempty"`
	AgeSeconds float64 `json:"age_seconds"`
	LastError  string  `json:"last_error,omitempty"`
}

// MembershipStats is the /statsz view of the registry.
type MembershipStats struct {
	TTLSeconds     float64      `json:"ttl_seconds"`
	Members        []MemberInfo `json:"members"`
	Joins          int64        `json:"joins"`
	Renews         int64        `json:"renews"`
	Leaves         int64        `json:"leaves"`
	Evictions      int64        `json:"evictions"`
	Rejects        int64        `json:"rejects"`
	MaxSkewSeconds float64      `json:"max_skew_seconds,omitempty"`
	Source         SourceInfo   `json:"source"`
}

// Stats snapshots the registry, one row per member in name order.
func (m *Membership) Stats() MembershipStats {
	now := m.now()
	m.mu.Lock()
	members := make([]MemberInfo, 0, len(m.members))
	for _, mem := range m.members {
		info := MemberInfo{
			Name:        mem.Name,
			URL:         mem.URL,
			Permanent:   mem.permanent,
			JoinedAt:    mem.joinedAt.UTC().Format(time.RFC3339),
			SkewSeconds: mem.skew.Seconds(),
			Healthy:     mem.healthy,
			Generation:  mem.generation,
			Digest:      mem.digest,
			AgeSeconds:  mem.ageSeconds,
			LastError:   mem.lastError,
		}
		if !mem.renewedAt.IsZero() {
			info.RenewedAt = mem.renewedAt.UTC().Format(time.RFC3339)
		}
		if !mem.permanent {
			info.LeaseSeconds = mem.expires.Sub(now).Seconds()
		}
		members = append(members, info)
	}
	source := m.source
	m.mu.Unlock()
	slices.SortFunc(members, func(a, b MemberInfo) int { return strings.Compare(a.Name, b.Name) })
	return MembershipStats{
		TTLSeconds:     m.ttl.Seconds(),
		Source:         source,
		Members:        members,
		Joins:          m.counters.joins.Load(),
		Renews:         m.counters.renews.Load(),
		Leaves:         m.counters.leaves.Load(),
		Evictions:      m.counters.evictions.Load(),
		Rejects:        m.counters.rejects.Load(),
		MaxSkewSeconds: time.Duration(m.maxSkew.Load()).Seconds(),
	}
}

// handleFleet serves the membership control surface on the front tier:
//
//	POST /v1/fleet/join   announce/renew; responds with the lease grant
//	POST /v1/fleet/leave  graceful immediate eviction
//	GET  /v1/fleet/members  the member table
//	GET  /v1/fleet/source   the current source role + epoch fence
func (f *Front) handleFleet(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == fleetPrefix+"join" && r.Method == http.MethodPost:
		var req joinRequest
		if err := json.NewDecoder(io1MB(r)).Decode(&req); err != nil {
			http.Error(w, "bad join body: "+err.Error(), http.StatusBadRequest)
			return
		}
		grant, admitted, err := f.members.Join(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		// A fresh joiner becomes routable after its first good probe;
		// probe it now so that is one round-trip away, not one tick. A
		// renewal waits for the tick: the member is probed there anyway.
		if admitted != nil {
			go f.probe(f.runCtx(), admitted)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(grant)
	case r.URL.Path == fleetPrefix+"leave" && r.Method == http.MethodPost:
		var req leaveRequest
		if err := json.NewDecoder(io1MB(r)).Decode(&req); err != nil {
			http.Error(w, "bad leave body: "+err.Error(), http.StatusBadRequest)
			return
		}
		f.members.Leave(req.Name)
		w.WriteHeader(http.StatusOK)
	case r.URL.Path == fleetPrefix+"members" && r.Method == http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(f.members.Stats())
	case r.URL.Path == fleetPrefix+"source" && r.Method == http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(f.members.Source())
	default:
		http.NotFound(w, r)
	}
}
