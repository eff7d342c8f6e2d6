package fleet

import (
	"context"
	"math/rand/v2"
	"time"
)

// Campaign is the multi-fault chaos driver: a seeded loop that
// composes faults together. Each round it draws a random subset of the
// fault palette, injects them together, holds, heals them all, and
// gives the fleet a quiescent window to converge — in which
// OnRoundHealed runs the test's convergence assertions before the next
// round begins. Everything is deterministic in Seed, so a failing
// campaign replays its fault schedule.
type Campaign struct {
	Seed uint64 // drives every random choice (which faults, how long)
	// Faults is the palette. Inject and Heal must be idempotent and
	// safe regardless of fleet state — a fault may find its target
	// replica already killed by a sibling fault.
	Faults []Fault
	// Each round draws 1..MaxActive faults (default min(3, len(Faults)))
	// and holds them HoldMin..HoldMax (HoldMax >= HoldMin). Settle is a
	// quiescent window after the heal, before OnRoundHealed.
	MaxActive        int
	HoldMin, HoldMax time.Duration
	Settle           time.Duration
	// OnRoundHealed, when set, runs after each round heals: the place
	// for convergence assertions. Returning false stops the campaign.
	OnRoundHealed func(round int, injected []string) bool
}

// Fault is one nameable failure mode with a way in and a way out.
type Fault struct {
	Name   string
	Inject func()
	Heal   func()
}

// Run executes rounds until ctx is done or OnRoundHealed stops it,
// returning the number of completed (injected AND healed) rounds.
// Faults are always healed before return — even on cancellation
// mid-hold — so a finished campaign never leaks a partition into
// whatever the test does next.
func (c *Campaign) Run(ctx context.Context) int {
	rng := rand.New(rand.NewPCG(c.Seed, c.Seed^0x9e3779b97f4a7c15|1))
	maxA := c.MaxActive
	if maxA <= 0 || maxA > len(c.Faults) {
		maxA = min(3, len(c.Faults))
	}

	rounds := 0
	for ctx.Err() == nil && len(c.Faults) > 0 {
		// Draw this round's faults: a partial shuffle of the palette.
		k := 1 + rng.IntN(maxA)
		idx := rng.Perm(len(c.Faults))[:k]
		names := make([]string, 0, k)
		for _, i := range idx {
			names = append(names, c.Faults[i].Name)
			c.Faults[i].Inject()
		}

		hold := c.HoldMin + time.Duration(rng.Int64N(int64(c.HoldMax-c.HoldMin)+1))
		select {
		case <-ctx.Done():
		case <-time.After(hold):
		}

		for _, i := range idx {
			c.Faults[i].Heal()
		}
		if ctx.Err() != nil {
			return rounds
		}
		rounds++

		if c.Settle > 0 {
			select {
			case <-ctx.Done():
				return rounds
			case <-time.After(c.Settle):
			}
		}
		if c.OnRoundHealed != nil && !c.OnRoundHealed(rounds, names) {
			return rounds
		}
	}
	return rounds
}
