package fleet

import (
	"testing"
	"time"
)

// TestMembershipChaosSoak is E23, the self-healing membership drill: a
// fleet built entirely from self-registering replicas, under saturating
// audited load, while the campaign composes crashes, front↔replica and
// replica↔primary partitions, a primary outage, slow and hung replicas,
// clock skew, silent heartbeat stalls and corruption bursts, several at
// a time. It asserts ring re-convergence within one lease TTL of every
// heal, and lease-lapse eviction of a replica that silently stops
// renewing. `make membership-soak` runs it alone under -race; `make ci`
// runs it once, in `make race`.
func TestMembershipChaosSoak(t *testing.T) {
	const (
		checkEvery = 25 * time.Millisecond
		leaseTTL   = 300 * time.Millisecond * raceScale
		// convergeBudget is one lease TTL from heal to full ring
		// re-convergence, plus sweep-cadence slack (the sweeper and prober
		// only look every checkEvery).
		convergeBudget = leaseTTL + 4*checkEvery
	)
	s := startSoak(t, soakSpec{
		wiring: selfRegistered, replicas: 3, clients: 6,
		soakFor:      4 * time.Second * raceScale,
		front:        leasedFront(leaseTTL, checkEvery),
		slack:        3,
		publishEvery: 350 * time.Millisecond * raceScale, pullEvery: 80 * time.Millisecond,
		announceEvery: 60 * time.Millisecond,
		publishKeep:   4, keep: 3, segmentTarget: 32 << 10,
		wireSeed: 2000, wireRate: 0.05,
		// r3's clock runs two hours fast for the whole soak, and nothing
		// may care: leases live on the front's clock alone.
		skew:          2 * time.Hour,
		bootstrapWait: 10 * time.Second, convergeBudget: convergeBudget,
		queries: soakQueries, shedPause: 2 * time.Millisecond,
		campaign: Campaign{Seed: 0xE23, HoldMin: 200 * time.Millisecond * raceScale,
			HoldMax: 550 * time.Millisecond * raceScale},
		palette: func(s *soak) []Fault {
			return append(s.each("kill", "partition-front", "partition-primary", "corrupt-burst"),
				s.fault("slow", 0), s.fault("hang", 1), s.fault("skew-flip", 2),
				s.fault("pause-announce", 0), s.fault("primary-outage", -1))
		},
	})
	rounds := s.run()

	// Lease-lapse epilogue, whatever the campaign drew: r1's heartbeats
	// stop reaching the front, so it must be evicted within one TTL plus
	// sweep slack, then rejoin on its next heartbeat once they get through.
	drill := s.fault("pause-announce", 0)
	drill.Inject()
	waitFor(t, leaseTTL+150*time.Millisecond*raceScale, "silently dead replica evicted", func() bool {
		return !s.f.Members().Has("r1")
	})
	drill.Heal()
	waitFor(t, convergeBudget, "resumed replica rejoined", func() bool { return s.f.Members().Has("r1") })

	tot := s.check(rounds)
	ms := s.f.Members().Stats()
	if ms.Evictions == 0 {
		t.Error("no lease-lapse evictions — the failure detector never fired")
	}
	if ms.Joins < int64(len(s.replicas))+1 {
		t.Errorf("%d joins: want the %d bootstraps plus at least one post-eviction rejoin", ms.Joins, len(s.replicas))
	}
	// r3 announced with a clock hours off from its very first join: the
	// skew must be on the diagnostics surface and nowhere else.
	if ms.MaxSkewSeconds < 7000 {
		t.Errorf("max observed skew %.0fs, want ≥ ~2h — the skew leg is vacuous", ms.MaxSkewSeconds)
	}
	if tot.Corrupted == 0 {
		t.Error("fault transports injected nothing — the corruption leg is vacuous")
	}
	if s.drawn["partition-primary"]+s.drawn["primary-outage"] > 0 && tot.Pull.Backoffs == 0 {
		t.Error("pulls were partitioned but no puller ever backed off")
	}
}
