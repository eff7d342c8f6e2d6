package fleet

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestHealSoak is E24, the self-healing data-plane drill: a fleet with
// no external primary. The front elects one member to publish, every
// member ships to its peers, and a scrubber on every member repairs bit
// rot in place from a peer's verified copy. The campaign composes kills
// (the source's included), partitions, corruption bursts and on-disk
// bit rot under audited load; then the source dies for good, a survivor
// rots and is repaired in place, and the dead source returns:
//
//   - promotion: within one lease TTL of the source dying, a healthy
//     member holding the newest generation is promoted under a higher
//     epoch, and publishing resumes;
//   - anti-entropy: every injected bit-flip is repaired in place — no
//     replica is restarted to heal, and every surviving store ends the
//     soak Fsck-clean;
//   - fencing: epochs observed at the front only ever increase, and a
//     returning dead source rejoins as a plain replica, its unshipped
//     tail reconciled away rather than served;
//   - the shared response audit.
//
// `make heal-soak` runs it alone under -race; `make ci` runs it once,
// in `make race`.
func TestHealSoak(t *testing.T) {
	const (
		publishEvery = 300 * time.Millisecond * raceScale
		checkEvery   = 25 * time.Millisecond
		leaseTTL     = 300 * time.Millisecond * raceScale
		// promoteBudget is one lease TTL from source death to a new
		// source elected, plus probe-cadence slack (the health-fail path
		// usually beats the lease lapse).
		promoteBudget = leaseTTL + 40*checkEvery
	)
	s := startSoak(t, soakSpec{
		wiring: promotedSource, replicas: 4, clients: 4,
		soakFor: 5 * time.Second * raceScale, loadTail: 4 * time.Second * raceScale,
		front:        leasedFront(leaseTTL, checkEvery),
		slack:        4,
		publishEvery: publishEvery, pullEvery: 60 * time.Millisecond,
		announceEvery: 60 * time.Millisecond, scrubEvery: 75 * time.Millisecond * raceScale,
		// The source keeps more history than the replicas' Keep=4, so
		// repair peers overlap plenty; its GC bounds each scrub cycle.
		publishKeep: 8, keep: 4, segmentTarget: 16 << 10,
		wireSeed: 2400, wireRate: 0.04,
		bootstrapWait: 15 * time.Second, convergeBudget: leaseTTL + promoteBudget,
		queries: soakQueries[:4], shedPause: 2 * time.Millisecond,
		campaign: Campaign{Seed: 0xE24, HoldMin: 250 * time.Millisecond * raceScale,
			HoldMax: 600 * time.Millisecond * raceScale},
		palette: func(s *soak) []Fault { return s.each("kill", "partition-front", "corrupt-burst", "bitrot") },
		// A round has healed only once a live member holds the source role.
		converged: func(s *soak) bool {
			r := s.replica(s.f.Members().Source().Name)
			return r != nil && r.Running()
		},
	})

	// Epoch watcher: the fence must be monotone at the front for the
	// whole soak, through every promotion and rejoin.
	var epochViolations atomic.Int64
	var maxEpoch int64
	s.every(5*time.Millisecond, func() {
		if e := s.f.Members().Source().Epoch; e < maxEpoch {
			epochViolations.Add(1)
		} else {
			maxEpoch = e
		}
	})
	rounds := s.run()

	// Permanent source kill: the fleet must re-elect within the budget
	// and resume publishing. A generation saved but never announced first
	// is the unshipped tail the rebirth drill must find reconciled away.
	srcBefore := s.f.Members().Source()
	victim := s.replica(srcBefore.Name)
	if victim == nil || !victim.Running() {
		t.Fatalf("no live source to kill: %+v", srcBefore)
	}
	s.killMu.Lock()
	if st := victim.Store(); st != nil {
		if gi, err := st.Save(corpus(t), "unshipped tail"); err == nil {
			s.record(gi) // it exists on disk; if anything ever serves it, the digest is legitimate
		}
	}
	killedAt, genAtKill := time.Now(), s.latest.Load()
	victim.Kill()
	s.killMu.Unlock()
	t.Logf("heal soak: permanently killed source %s (epoch %d) at generation %d", victim.Name, srcBefore.Epoch, genAtKill)
	waitFor(t, promoteBudget+time.Second, "replacement source elected", func() bool {
		src := s.f.Members().Source()
		return src.Name != "" && src.Name != victim.Name && src.Epoch > srcBefore.Epoch
	})
	t.Logf("heal soak: re-elected %+v %v after source death", s.f.Members().Source(), time.Since(killedAt))
	waitFor(t, promoteBudget+6*publishEvery, "publishing resumed under the new source", func() bool {
		return s.latest.Load() > genAtKill
	})

	// Bit-rot drill, whatever the campaign drew: rot a byte on a
	// surviving replica and watch the scrubber repair it in place —
	// same store instance, no restart.
	var drill *soakMember
	for _, r := range s.replicas {
		if r.Running() && r.Name != s.f.Members().Source().Name {
			drill = r
			break
		}
	}
	if drill == nil {
		t.Fatal("no surviving non-source replica for the bit-rot drill")
	}
	repairedBefore, stBefore := drill.CumulativeScrub().Repaired, drill.Store()
	waitFor(t, 10*time.Second, "bit-rot drill injected", func() bool { return flipOnDisk(drill.ChaosReplica) })
	s.flips++
	waitFor(t, 10*time.Second, "scrubber repaired the rot in place", func() bool {
		return drill.CumulativeScrub().Repaired > repairedBefore
	})
	if drill.Store() != stBefore {
		t.Error("store instance changed during the repair drill — a restart healed it, not the scrubber")
	}

	// Rebirth drill: the dead source returns, and must rejoin as a plain
	// replica — despite warm-starting with the highest generation id in
	// the fleet — and converge on the living branch.
	s.pubPaused.Store(true)
	epochAtRebirth := s.f.Members().Source().Epoch
	if err := victim.Start(); err != nil {
		t.Fatalf("restarting dead source: %v", err)
	}
	waitFor(t, 10*time.Second, "dead source rejoined as a plain member", func() bool {
		ann := victim.Announcer()
		return ann != nil && ann.State().Joined
	})
	if st := victim.Announcer().State(); st.IsSource {
		t.Error("returning dead source still believes it holds the role")
	}
	if src := s.f.Members().Source(); src.Name == victim.Name {
		t.Errorf("returning dead source took the role back: %+v", src)
	}
	if e := s.f.Members().Source().Epoch; e < epochAtRebirth {
		t.Errorf("epoch went backwards across the rebirth: %d → %d", epochAtRebirth, e)
	}
	// With publishing stopped every branch is frozen: the reborn replica
	// must converge on exactly the live source's newest id and digest.
	waitFor(t, 15*time.Second, "reborn replica converged on the living branch", func() bool {
		src := s.replica(s.f.Members().Source().Name)
		if src == nil || src == victim || !src.Running() {
			return false
		}
		sst, vst := src.Store(), victim.Store()
		if sst == nil || vst == nil {
			return false
		}
		sid, serr := sst.LatestID()
		vid, verr := vst.LatestID()
		if serr != nil || verr != nil || sid != vid {
			return false
		}
		sd, serr := sst.GenDigest(sid)
		vd, verr := vst.GenDigest(vid)
		return serr == nil && verr == nil && sd == vd
	})

	tot := s.check(rounds)
	if epochViolations.Load() != 0 {
		t.Errorf("%d epoch regressions observed at the front — the fence is not monotone", epochViolations.Load())
	}
	if s.flips == 0 {
		t.Error("no bit-flips injected — the rot leg is vacuous")
	}
	if tot.Scrub.Repaired == 0 {
		t.Error("bit rot was injected but the scrubbers repaired nothing")
	}
	// Every injected bit-flip healed without a restart: each surviving
	// store must scrub to Fsck-clean (quarantined debris is invisible to
	// Fsck by design — quarantine retires an unrepairable generation
	// without deleting it).
	for _, r := range s.replicas {
		if r.Running() {
			waitFor(t, 15*time.Second, "store "+r.Name+" scrubbed clean", func() bool {
				st := r.Store()
				if st == nil {
					return false
				}
				rep, err := st.Fsck()
				return err == nil && rep.OK()
			})
		}
	}
}
